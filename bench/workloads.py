"""Benchmark workloads: seeded inputs, the operations of one round, and the
checks each operation's output must pass.

Operations call only the public functions of linkagekit.catalog, .solver,
.locus and .poly, and look them up on the module at call time, so the
traced run can wrap them in place. Checks use expected values recorded at
the seed commit and arithmetic of their own, never linkagekit code.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from linkagekit import catalog, locus, poly, solver

# A check returns None when the output is right, else a one-line reason.
Check = Callable[[Any], Optional[str]]


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Any]
    check: Check


# --- trace_sweep -------------------------------------------------------------

# sample count and event kinds of each catalog trace over its default sweep,
# from its catalog seed, recorded at the seed commit
TRACE_EXPECTED: dict[str, tuple[int, tuple[str, ...]]] = {
    "compass": (630, ()),
    "chebyshev": (110, ()),
    "chebyshev_open": (110, ()),
    "chebyshev_lambda": (630, ()),
    "watt": (161, ()),
    "hart_inversor": (128, ("workspace_boundary",)),
    "hart_aframe": (75, ("workspace_boundary",)),
}

RESIDUAL_LIMIT = 1e-12


def _catalog_trace(name: str):
    e = catalog.entry(name)
    anchored = {
        j.id: (float(j.anchor[0]), float(j.anchor[1])) for j in e.spec.anchored_joints
    }
    lo, hi = e.sweep
    return solver.trace(
        e.spec, lo, hi, solver.SolverSettings(),
        seed=solver.Configuration({**anchored, **e.seed}), seed_theta=e.theta_ref,
    )


def _check_trace(name: str) -> Check:
    n_expected, kinds_expected = TRACE_EXPECTED[name]

    def check(tr) -> Optional[str]:
        if len(tr.samples) != n_expected:
            return f"{name}: {len(tr.samples)} samples, expected {n_expected}"
        kinds = tuple(ev.kind.value for ev in tr.events)
        if kinds != kinds_expected:
            return f"{name}: events {kinds}, expected {kinds_expected}"
        worst = max(s.residual for s in tr.samples)
        if not worst < RESIDUAL_LIMIT:
            return f"{name}: residual {worst:.3e} not below {RESIDUAL_LIMIT:g}"
        return None

    return check


def build_trace_sweep(rng: random.Random) -> list[Op]:
    order = catalog.names()
    for name in order:
        catalog.entry(name)  # fill the catalog cache in set-up, not in round 1
    rng.shuffle(order)
    return [Op(name, lambda n=name: _catalog_trace(n), _check_trace(name)) for name in order]


# --- certify_catalog ---------------------------------------------------------

FALLBACK_BUDGET = 30
FALLBACK_MODELS = ("watt", "hart_inversor", "hart_aframe")

# (model, via_fallback) -> (verdict, line, max deviation) as the tests pin
# them; the deviation is only pinned for approximate verdicts, to a relative
# 1e-3
_APPROX = "approximate"
_EXACT = "exact_line"
_HART_LINE = (Fraction(0), Fraction(2), Fraction(3))  # 2*y + 3 = 0
_AFRAME_LINE = (Fraction(1), Fraction(0), Fraction(0))  # x = 0
CERTIFY_EXPECTED: dict[tuple[str, bool], tuple[str, Any, Optional[float]]] = {
    ("compass", False): (_APPROX, None, 3.155e-01),
    ("chebyshev", False): (_APPROX, None, 1.209e-02),
    ("chebyshev_open", False): (_APPROX, None, 2.754e-01),
    ("chebyshev_lambda", False): (_APPROX, None, 4.577e-03),
    ("watt", False): (_APPROX, None, 1.005e-02),
    ("hart_inversor", False): (_EXACT, _HART_LINE, None),
    ("hart_aframe", False): (_EXACT, _AFRAME_LINE, None),
    ("watt", True): (_APPROX, None, 1.005e-02),
    ("hart_inversor", True): (_EXACT, _HART_LINE, None),
    ("hart_aframe", True): (_EXACT, _AFRAME_LINE, None),
}


def _check_certificate(name: str, fallback: bool) -> Check:
    verdict, line, deviation = CERTIFY_EXPECTED[(name, fallback)]

    def check(cert) -> Optional[str]:
        if cert.verdict.value != verdict:
            return f"{name}: verdict {cert.verdict.value}, expected {verdict}"
        if cert.via_fallback is not fallback:
            return f"{name}: via_fallback {cert.via_fallback}, expected {fallback}"
        got = None if cert.line is None else tuple(Fraction(v) for v in cert.line)
        if got != line:
            return f"{name}: line {got}, expected {line}"
        if deviation is not None and not math.isclose(cert.max_deviation, deviation, rel_tol=1e-3):
            return f"{name}: max deviation {cert.max_deviation:.4e}, expected {deviation:.4e}"
        return None

    return check


def build_certify_catalog(rng: random.Random) -> list[Op]:
    traces = {name: _catalog_trace(name) for name in catalog.names()}
    ops = []
    for name in catalog.names():
        e, tr = catalog.entry(name), traces[name]
        ops.append(Op(name, lambda e=e, tr=tr: locus.certify(e.spec, tr, e.window),
                      _check_certificate(name, False)))
    for name in FALLBACK_MODELS:
        e, tr = catalog.entry(name), traces[name]
        ops.append(Op(f"{name}@{FALLBACK_BUDGET}",
                      lambda e=e, tr=tr: locus.certify(e.spec, tr, e.window, pair_budget=FALLBACK_BUDGET),
                      _check_certificate(name, True)))
    rng.shuffle(ops)
    return ops


# --- elim_growth -------------------------------------------------------------

ELIM_R2 = (4, 9, 16, 25)
ELIM_DEGREE = 12
ELIM_VARS = ("u", "v", "w", "x", "y")
ELIM_REL_TOL = 1e-8


def _variety_points(r2: int) -> list[tuple[float, float]]:
    """Float points (x, y) of the projected variety.

    With u = r cos t, v = r sin t, the last generator becomes the quadratic
    w^2 - (1 - u v) w - (u + v - v^2) = 0, and x = v^2 + w^2, y = u v w.
    """
    r = math.sqrt(r2)
    pts = []
    for k in range(24):
        t = 2 * math.pi * (k + 0.37) / 24
        u, v = r * math.cos(t), r * math.sin(t)
        b, c = -(1 - u * v), -(u + v - v * v)
        disc = b * b - 4 * c
        if disc < 0:
            continue
        for w in ((-b + math.sqrt(disc)) / 2, (-b - math.sqrt(disc)) / 2):
            pts.append((v * v + w * w, u * v * w))
    return pts


def _check_eliminant(r2: int) -> Check:
    pts = _variety_points(r2)

    def check(basis) -> Optional[str]:
        if not pts:
            return f"no real points of the variety found for r^2 = {r2}"
        if not basis:
            return "empty elimination ideal"
        for g in basis:
            if tuple(g.vars) != ("x", "y"):
                return f"eliminant lives on {g.vars}, expected ('x', 'y')"
        terms = [[(e, float(c)) for e, c in g.as_dict().items()] for g in basis]
        degree = min(max(sum(e) for e, _ in ts) for ts in terms)
        if degree != ELIM_DEGREE:
            return f"eliminant degree {degree}, expected {ELIM_DEGREE}"
        for ts in terms:
            for x, y in pts:
                vals = [c * x ** e[0] * y ** e[1] for e, c in ts]
                scale = sum(abs(v) for v in vals)
                if abs(sum(vals)) > ELIM_REL_TOL * scale:
                    return f"eliminant does not vanish at ({x:.6g}, {y:.6g})"
        return None

    return check


def build_elim_growth(rng: random.Random) -> list[Op]:
    r2 = rng.choice(ELIM_R2)
    u, v, w, x, y = (poly.MultiPoly.variable(ELIM_VARS, n) for n in ELIM_VARS)
    gens = [
        u * u + v * v - poly.MultiPoly.const(ELIM_VARS, r2),
        v * v + w * w - x,
        u * v * w - y,
        u + v + w - x - y,
    ]
    return [Op(f"r2={r2}", lambda: poly.eliminate(gens, ("x", "y")), _check_eliminant(r2))]


BUILDERS: dict[str, Callable[[random.Random], list[Op]]] = {
    "trace_sweep": build_trace_sweep,
    "certify_catalog": build_certify_catalog,
    "elim_growth": build_elim_growth,
}


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one round; the same seed gives the same inputs."""
    return BUILDERS[workload](random.Random(seed))
