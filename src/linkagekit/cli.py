"""Command line front end.

Subcommands: models, trace, locus, certify, bom. Model arguments accept a
builtin name or a path to a linkage file. Data goes to stdout, diagnostics
to stderr, and identical invocations produce byte-identical output.

Exit codes: 0 success, 1 usage error (bad flags, solver settings, pair
budget, sweep or straightness window, or, for trace and certify, a linkage
with an anchor coordinate or a squared bar length beyond the float range), 2
invalid input: a parse or validation error, an unreadable or non-UTF-8 file,
or a tracer that does not trace a curve (locus.NotACurve), 3 no solvable
configuration reached at the sweep start, 4 pair budget exhausted. The
default --pair-budget is poly.DEFAULT_PAIR_BUDGET.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import bom as bom_mod
from . import catalog, model
from .exports import trace_csv, trace_svg
from .locus import DegenerateWindow, NotACurve, Verdict, certify, locus_equation
from .model import MM_PER_UNIT
from .poly import DEFAULT_PAIR_BUDGET, MultiPoly, PairBudgetExceededError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_NUMERIC = 3
EXIT_SYMBOLIC = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here says 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _resolve(name: str) -> tuple[model.LinkageSpec, Optional[catalog.CatalogEntry]]:
    """A builtin name, or a path to a linkage file."""
    if name in catalog.names():
        e = catalog.entry(name)
        return e.spec, e
    if os.path.exists(name):
        try:
            with open(name, encoding="utf-8") as fh:
                return model.load(fh.read()), None
        except (model.ParseError, model.ValidationError, UnicodeDecodeError) as ex:
            raise _CliError(EXIT_INVALID, f"{name}: {ex}")
    raise _CliError(
        EXIT_INVALID,
        f"unknown model {name!r} (not a builtin, not a file); "
        f"builtins: {', '.join(catalog.names())}",
    )


def _pair_budget(args) -> int:
    if args.pair_budget < 0:
        raise _CliError(
            EXIT_USAGE, f"--pair-budget must be non-negative, got {args.pair_budget}"
        )
    return args.pair_budget


def _run_trace(spec, entry, args):
    # the solver brings numpy; only the commands that trace load it
    from .solver import NoSeed, SolverSettings, SweepError, trace

    if args.theta_from is None or args.theta_to is None:
        if entry is None:
            raise _CliError(
                EXIT_USAGE, "--from and --to are required for file-based models"
            )
        start, end = entry.sweep
        start = args.theta_from if args.theta_from is not None else start
        end = args.theta_to if args.theta_to is not None else end
    else:
        start, end = args.theta_from, args.theta_to
    try:
        settings = SolverSettings(
            tol=args.tol, initial_step=args.step, min_step=args.min_step
        )
    except ValueError as ex:
        raise _CliError(
            EXIT_USAGE,
            f"{ex} (--step {args.step:g}, --min-step {args.min_step:g}, --tol {args.tol:g})",
        )
    seed, seed_theta = (None, None) if entry is None else (entry.seed, entry.theta_ref)
    try:
        return trace(spec, start, end, settings, seed=seed, seed_theta=seed_theta)
    except SweepError as ex:
        raise _CliError(EXIT_USAGE, f"{ex} (--from {start:g}, --to {end:g})")
    except ValueError as ex:  # the linkage's own dimensions, not the sweep
        raise _CliError(EXIT_USAGE, str(ex))
    except NoSeed as ex:
        raise _CliError(EXIT_NUMERIC, str(ex))


def _report_events(tr) -> None:
    for ev in tr.events:
        print(f"{ev.kind.value.replace('_', ' ')} at theta = {ev.theta:.6f}",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_models(args) -> int:
    rows = []
    for name in catalog.names():
        e = catalog.entry(name)
        rows.append(
            {
                "name": name,
                "bars": len(e.spec.bars),
                "joints": len(e.spec.joints),
                "description": e.description,
            }
        )
    if args.json:
        print(json.dumps(rows, indent=2))
        return EXIT_OK
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        unit = "bar " if r["bars"] == 1 else "bars"
        print(f"{r['name']:<{width}}  {r['bars']:2d} {unit}  {r['description']}")
    return EXIT_OK


def _cmd_trace(args) -> int:
    spec, entry = _resolve(args.model)
    tr = _run_trace(spec, entry, args)
    _report_events(tr)
    if args.stats:
        st = tr.stats
        print(f"newton: {st.calls} calls, {st.iterations} iterations, {st.failed_calls} "
              f"failed calls ({st.failed_iterations} iterations), {st.backtracks} backtracks, "
              f"{st.halvings} step halvings, max condition {st.max_condition:.3e}",
              file=sys.stderr)
    description = entry.description if entry is not None else spec.name
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(trace_svg(tr, spec, description=description))
        print(f"wrote {args.svg}", file=sys.stderr)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(trace_csv(tr))
        print(f"wrote {args.csv}", file=sys.stderr)

    if args.json:
        payload = {
            "model": spec.name,
            "theta": [tr.samples[0].theta, tr.samples[-1].theta],
            "samples": [
                {"theta": s.theta, "x": s.x, "y": s.y, "residual": s.residual}
                for s in tr.samples
            ],
            "events": [{"theta": ev.theta, "kind": ev.kind.value} for ev in tr.events],
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    xs = [s.x for s in tr.samples]
    ys = [s.y for s in tr.samples]
    dx = (max(xs) - min(xs)) * MM_PER_UNIT
    dy = (max(ys) - min(ys)) * MM_PER_UNIT
    print(
        f"{len(tr.samples)} samples, theta {tr.samples[0].theta:.6f} to "
        f"{tr.samples[-1].theta:.6f}, pen box {dx:.1f} x {dy:.1f} mm, "
        f"{len(tr.events)} event(s)"
    )
    return EXIT_OK


def _cmd_locus(args) -> int:
    spec, _ = _resolve(args.model)
    res = locus_equation(spec, pair_budget=_pair_budget(args))
    n = len(res.factors)
    if args.json:
        payload = {
            "model": spec.name,
            "locus": res.locus.text(),
            "degree": res.total_degree,
            "factors": [
                {"line": f.text(), "multiplicity": m} for f, m in res.factors
            ],
            "cofactor": res.residual_cofactor.text(),
            "cofactor_degree": res.residual_cofactor.total_degree(),
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(res.locus.text())
    print(f"degree: {res.total_degree}")
    print(f"{n} linear factor{'' if n == 1 else 's'} found")
    for f, m in res.factors:
        mult = f" (multiplicity {m})" if m > 1 else ""
        print(f"  {f.text()}{mult}")
    if n:
        print(
            f"cofactor: {res.residual_cofactor.text()} "
            f"(degree {res.residual_cofactor.total_degree()})"
        )
    return EXIT_OK


def _cmd_certify(args) -> int:
    spec, entry = _resolve(args.model)
    budget = _pair_budget(args)
    if args.window is not None:
        window = tuple(args.window)
    elif entry is not None:
        window = entry.window
    else:
        raise _CliError(EXIT_USAGE, "--window is required for file-based models")
    tr = _run_trace(spec, entry, args)
    _report_events(tr)
    cert = certify(spec, tr, window, pair_budget=budget)

    if args.json:
        payload = {
            "model": spec.name,
            "verdict": cert.verdict.value,
            "window": list(cert.window),
            "max_deviation": cert.max_deviation,
            "line": None
            if cert.line is None
            else [int(v) for v in cert.line],
            "via_fallback": cert.via_fallback,
            "evidence": cert.evidence,
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    if cert.verdict is Verdict.EXACT_LINE:
        a, b, c = cert.line
        line = MultiPoly(("x", "y"), {(1, 0): a, (0, 1): b, (0, 0): c})
        print(f"EXACT LINE: {line.text()} = 0")
    else:
        print(
            f"APPROXIMATE: max deviation {cert.max_deviation:.4e} units "
            f"({cert.max_deviation * MM_PER_UNIT:.4e} mm) over window "
            f"[{window[0]:g}, {window[1]:g}]"
        )
    print(cert.evidence)
    return EXIT_OK


def _table_models(names: list[str], requirements) -> list[str]:
    """Map catalog names onto parts-table columns, passing columns through."""
    out = []
    for name in names:
        if name in catalog.names():
            column = catalog.entry(name).table_model
            if column is None:
                raise model.UnknownModelError(name, sorted(requirements))
        elif name in requirements:
            column = name
        else:
            raise model.UnknownModelError(name, sorted(requirements))
        if column not in out:
            out.append(column)
    return out


def _cmd_bom(args) -> int:
    if args.catalog:
        with open(args.catalog, encoding="utf-8") as fh:
            parts, requirements = bom_mod.catalog_load(fh.read())
    else:
        parts, requirements = bom_mod.shipped()
    if args.all:
        wanted = [m for m in requirements if m != "set"]
    elif args.models:
        wanted = _table_models(args.models, requirements)
    else:
        raise _CliError(EXIT_USAGE, "name at least one model, or pass --all")

    if args.simultaneous:
        shopping = bom_mod.simultaneous_union(wanted, requirements)
    else:
        shopping = bom_mod.set_union(wanted, requirements)

    vendors = list(bom_mod.VENDORS) if args.vendor == "both" else [args.vendor]
    total_parts = sum(shopping.values())
    totals = {v: bom_mod.price(shopping, v, parts) for v in vendors}

    if args.json:
        payload = {
            "models": wanted,
            "simultaneous": args.simultaneous,
            "parts": [
                {
                    "code": code,
                    "name": parts[code].name,
                    "color": parts[code].color,
                    "count": count,
                    **{
                        f"price_{v}": bom_mod.format_price(parts[code].price(v))
                        for v in vendors
                    },
                }
                for code, count in sorted(shopping.items())
            ],
            "totals": {
                "parts": total_parts,
                **{v: bom_mod.format_price(totals[v]) for v in vendors},
            },
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK

    name_w = max(len(parts[c].name) for c in shopping)
    color_w = max(len(parts[c].color) for c in shopping)
    for code, count in sorted(shopping.items()):
        p = parts[code]
        cols = "  ".join(
            f"{bom_mod.format_price(p.price(v))} ({v})" for v in vendors
        )
        print(f"{code:>6}  {p.name:<{name_w}}  {p.color:<{color_w}}  x{count:<2d}  {cols}")
    cols = "  ".join(f"{bom_mod.format_price(totals[v])} ({v})" for v in vendors)
    print(f"total  {total_parts} parts  {cols}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--from", dest="theta_from", type=float, default=None,
                   metavar="THETA", help="sweep start (default: catalog sweep)")
    p.add_argument("--to", dest="theta_to", type=float, default=None,
                   metavar="THETA", help="sweep end")
    p.add_argument("--step", type=float, default=1e-2, help="initial theta step")
    p.add_argument("--min-step", type=float, default=1e-7, help="smallest retry step")
    p.add_argument("--tol", type=float, default=1e-12, help="residual tolerance")


def _build_parser() -> _Parser:
    parser = _Parser(prog="linkagekit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("models", help="list builtin linkage models")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_models)

    p = sub.add_parser("trace", help="sweep the driver and record the pen path")
    p.add_argument("model", help="builtin name or linkage file path")
    _add_sweep_flags(p)
    p.add_argument("--svg", metavar="PATH", help="write the curve as SVG")
    p.add_argument("--csv", metavar="PATH", help="write theta,x,y,residual rows")
    p.add_argument("--json", action="store_true")
    p.add_argument("--stats", action="store_true",
                   help="print the Newton work of the trace on stderr")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("locus", help="exact implicit equation of the pen path")
    p.add_argument("model", help="builtin name or linkage file path")
    p.add_argument("--pair-budget", type=int, default=DEFAULT_PAIR_BUDGET,
                   help="Groebner critical-pair allowance")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_locus)

    p = sub.add_parser("certify", help="decide exact straightness over a window")
    p.add_argument("model", help="builtin name or linkage file path")
    p.add_argument("--window", nargs=2, type=float, metavar=("LO", "HI"),
                   default=None, help="theta window (default: catalog window)")
    _add_sweep_flags(p)
    p.add_argument("--pair-budget", type=int, default=DEFAULT_PAIR_BUDGET,
                   help="Groebner critical-pair allowance")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("bom", help="price the parts for one or more models")
    p.add_argument("models", nargs="*", help="model names (catalog or table column)")
    p.add_argument("--all", action="store_true", help="every model in the table")
    p.add_argument("--vendor", choices=("brickowl", "bricklink", "both"),
                   default="both")
    p.add_argument("--simultaneous", action="store_true",
                   help="sum counts to build all models at once (default: reuse)")
    p.add_argument("--catalog", metavar="PATH", help="alternate parts CSV")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_bom)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CliError as ex:
        print(f"linkagekit: {ex}", file=sys.stderr)
        return ex.code
    except (bom_mod.CatalogError, NotACurve, OSError, UnicodeDecodeError) as ex:
        print(f"linkagekit: {ex}", file=sys.stderr)
        return EXIT_INVALID
    except (model.UnknownModelError, bom_mod.UnknownPartError) as ex:
        # KeyError wraps its message in quotes; unwrap for readability
        print(f"linkagekit: {ex.args[0]}", file=sys.stderr)
        return EXIT_INVALID
    except DegenerateWindow as ex:
        print(f"linkagekit: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except PairBudgetExceededError as ex:
        print(
            f"linkagekit: {ex}; raise --pair-budget to keep going",
            file=sys.stderr,
        )
        return EXIT_SYMBOLIC


if __name__ == "__main__":
    sys.exit(main())
