"""linkagekit benchmark: one workload, closed loop, one client, no threads.

    python3 bench/run.py --workload trace_sweep --seed 1 --seconds 50 --trace 0

Each round runs the workload's operations one after another; the next
operation starts only when the previous one has returned. Every output is
checked, a failed check or a raised exception counts as a failed operation,
and neither stops the run. The last stdout line is one JSON object with
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of BENCHMARK.json with --trace 1.

Set-up time is taken from fresh processes (setup_probe.py), several per run,
spread between the rounds over the whole run, and reported as their median. The traced run alternates untraced and traced
rounds, so it also reports how much tracing slows a round.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# fresh-process set-ups per run; set-up time is their median
SETUP_RUNS = 7
# rounds that must lie beyond the reported tail percentile
TAIL_BEYOND = 10


def environment(workload: str, seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def _importtime(stderr: str, prefix: str) -> float:
    """Cumulative seconds of the top-level imports whose name starts with
    prefix, from `python -X importtime` output."""
    total = 0.0
    for m in re.finditer(r"^import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)$", stderr, re.M):
        if not m.group(2) and m.group(3).split(".")[0] == prefix:
            total += int(m.group(1)) / 1e6
    return total


def setup_probe(workload: str, seed: int, importtime: bool) -> dict:
    """Time one fresh process from start until its inputs are built."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(BENCH / "setup_probe.py"), workload, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()[-500:]}")
    out = json.loads(line)
    out["setup_s"] = elapsed
    if importtime:
        out["import_numpy_s"] = _importtime(err, "numpy")
        out["import_linkagekit_s"] = _importtime(err, "linkagekit")
    return out


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least TAIL_BEYOND rounds beyond it, or
    the slowest round when there are too few rounds for one."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n} rounds (fewer than {TAIL_BEYOND + 1})"
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return ordered[n - TAIL_BEYOND - 1], f"p{pct:.1f} of {n} rounds"


class Loop:
    """Closed-loop rounds over one workload's operations."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def round(self) -> float:
        results = []
        t0 = time.perf_counter()
        for op in self.ops:
            try:
                results.append(op.run())
            except Exception as exc:  # a failed operation is counted, not fatal
                results.append(exc)
                traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - t0
        for op, res in zip(self.ops, results):
            self.attempted += 1
            why = f"{type(res).__name__}: {res}" if isinstance(res, Exception) else op.check(res)
            if why:
                self.failed += 1
                self.reasons.append(f"{op.label}: {why}")
        return wall


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, walls: list[float], setups: list[dict]) -> tuple[dict, list[str]]:
    tail_s, tail_note = tail(walls)
    ok = loop.attempted - loop.failed
    # The round median is printed but not gated: this kind of shared host
    # switches between speed states up to 2x apart for tens of seconds, and
    # the median flips between them from run to run, while the tail stays in
    # the common slow state (see bench/README.md).
    metrics = {
        "round_tail_s": metric(tail_s, "s"),
        "setup_s": metric(statistics.median(p["setup_s"] for p in setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": metric(ok / loop.attempted, "ratio"),
    }
    notes = [
        "rounds_s " + json.dumps(walls),
        f"round_p50_s (not gated) = {statistics.median(walls)!r} s, median of {len(walls)} rounds",
        f"round_tail_s: {tail_note}",
        f"setup_s: median of {len(setups)} fresh processes",
        f"fail_ratio: {loop.failed / loop.attempted} ({loop.failed} failed of {loop.attempted} attempted)",
    ]
    return metrics, notes


def per_layer(summary: dict, traced: list[tuple[float, float]], untraced: list[float],
              setups: list[dict], span_cost: float) -> tuple[dict, list[str]]:
    from workloads import FALLBACK_MODELS, TRACE_EXPECTED

    models = list(TRACE_EXPECTED)
    n = len(traced)

    def agg(name):
        return summary.get(name, {"self_s": 0.0, "calls": 0, "counts": {}, "models": {}})

    def per_round(v):
        return v / n

    m = {}
    tr = agg("solver.trace")
    m["solver.trace.s"] = metric(per_round(tr["self_s"]), "s")
    samples = tr["counts"].get("samples", 0)
    m["solver.trace.us_per_sample"] = metric(tr["self_s"] / samples * 1e6 if samples else 0.0, "us")
    for model in models:
        m[f"solver.trace.{model}.s"] = metric(per_round(tr["models"].get(model, 0.0)), "s")
    m["solver.trace.calls"] = metric(per_round(tr["calls"]), "count")
    m["solver.trace.samples"] = metric(per_round(samples), "count")
    m["solver.trace.events"] = metric(per_round(tr["counts"].get("events", 0)), "count")
    m["solver.straightness_stats.s"] = metric(per_round(agg("solver.straightness_stats")["self_s"]), "s")

    primary, fallback = agg("locus.certify"), agg("locus.certify_fallback")
    m["locus.certify.s"] = metric(per_round(primary["self_s"] + fallback["self_s"]), "s")
    for model in models:
        m[f"locus.certify.{model}.s"] = metric(per_round(primary["models"].get(model, 0.0)), "s")
    for model in FALLBACK_MODELS:
        m[f"locus.certify_fallback.{model}.s"] = metric(per_round(fallback["models"].get(model, 0.0)), "s")
    certifies = primary["calls"] + fallback["calls"]
    m["locus.certify.fallback_share"] = metric(fallback["calls"] / certifies if certifies else 0.0, "ratio")
    for name in ("locus.locus_equation", "locus.constraint_ideal", "locus.extract_linear_factors"):
        m[f"{name}.s"] = metric(per_round(agg(name)["self_s"]), "s")
    m["locus.extract_linear_factors.calls"] = metric(per_round(agg("locus.extract_linear_factors")["calls"]), "count")
    for name in ("poly.eliminate", "poly.divide"):
        m[f"{name}.s"] = metric(per_round(agg(name)["self_s"]), "s")
        m[f"{name}.calls"] = metric(per_round(agg(name)["calls"]), "count")

    for key in ("import_numpy_s", "import_linkagekit_s", "inputs_s"):
        m[f"setup.{key}"] = metric(statistics.median(p[key] for p in setups), "s")

    traced_p50 = statistics.median(w for w, _ in traced)
    untraced_p50 = statistics.median(untraced)
    m["trace.overhead_share"] = metric(traced_p50 / untraced_p50 - 1.0, "ratio")
    m["trace.uncovered_share"] = metric(max(1.0 - top / w for w, top in traced), "ratio")
    m["trace.spans"] = metric(per_round(sum(a["calls"] for a in summary.values())), "count")
    m["trace.span_cost_us"] = metric(span_cost * 1e6, "us")
    notes = [f"traced rounds {n}, untraced rounds {len(untraced)}",
             f"traced round p50 {traced_p50:.6f} s, untraced round p50 {untraced_p50:.6f} s"]
    return m, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "linkagekit" / "__init__.py").is_file():
        print(f"error: linkagekit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.BUILDERS)}",
              file=sys.stderr)
        return 1

    print("env " + json.dumps(environment(args.workload, args.seed)))
    loop = Loop(workloads.build(args.workload, args.seed))
    print("ops " + " ".join(op.label for op in loop.ops))
    # No warm-up round: building the inputs has already imported everything
    # and filled the catalog cache, and the library keeps no other lazy state.
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
    walls: list[float] = []
    traced: list[tuple[float, float]] = []
    setups: list[dict] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    probes_s = 0.0
    while True:
        if recorder and len(walls) % 2:
            recorder.install()
            mark = recorder.mark()
            try:
                wall = loop.round()
            finally:
                recorder.uninstall()
            traced.append((wall, recorder.top_level(mark)))
        else:
            wall = loop.round()
        walls.append(wall)
        # The machine's speed drifts within seconds, so set-ups are spread
        # evenly over the rounds' time instead of run back to back; the time
        # they take is added to the deadline.
        if len(setups) * args.seconds <= (time.perf_counter() - start - probes_s) * SETUP_RUNS:
            t0 = time.perf_counter()
            setups.append(setup_probe(args.workload, args.seed, bool(args.trace)))
            probe_s = time.perf_counter() - t0
            probes_s += probe_s
            deadline += probe_s
        # stop once the next round would likely end past the deadline
        if len(walls) >= 2 and time.perf_counter() + wall > deadline:
            break
    while len(setups) < SETUP_RUNS:
        setups.append(setup_probe(args.workload, args.seed, bool(args.trace)))

    covered = True
    if recorder:
        untraced = walls[::2]
        metrics, notes = per_layer(spans.summarize(recorder.spans), traced, untraced, setups,
                                   recorder.span_cost())
        # the top-level spans must account for each traced round's wall time,
        # up to the wrappers' own cost (spans x cost of one, which machine
        # noise does not move, unlike the traced/untraced ratio) plus 1%
        uncovered = metrics["trace.uncovered_share"]["value"]
        wrapper_share = (metrics["trace.spans"]["value"] * metrics["trace.span_cost_us"]["value"]
                         * 1e-6 / statistics.median(w for w, _ in traced))
        covered = uncovered <= wrapper_share + 0.01
        if not covered:
            print(f"FAILED top-level spans leave {uncovered:.2%} of a traced round uncovered",
                  file=sys.stderr)
    else:
        metrics, notes = end_to_end(loop, walls, setups)

    for reason in loop.reasons[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    for note in notes:
        print(note)
    for name, mv in metrics.items():
        print(f"{name} = {mv['value']!r} {mv['unit']}")
    print(json.dumps({"correct": covered and loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
