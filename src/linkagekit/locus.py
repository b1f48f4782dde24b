"""Exact coupler-curve equations and straightness certificates.

The constraint system of a linkage, taken over exact rationals with the
driver angle left free, cuts out every configuration the mechanism can
reach. Eliminating all joint coordinates from it leaves a single bivariate
polynomial in the tracer coordinates: the implicit equation of the drawn
curve. Peeling exact linear factors off that polynomial and checking which
component the numeric trace actually follows turns "looks straight" into a
yes/no certificate: a straight segment shares infinitely many points with
the curve, so by Bezout's theorem it can only lie on a linear component.

The constraint rows come from model.reduced_constraints, the one encoding
the numeric solver shares. Linear factors are peeled off with poly.divide,
which runs the poly layer's one division engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .model import LinkageSpec, reduced_constraints
from .poly import MultiPoly, PairBudgetExceededError, divide, eliminate
from .solver import DegenerateWindow, Trace, TraceSample, straightness_stats

DEFAULT_PAIR_BUDGET = 200_000

# a factor "contains" the windowed samples when its residual, scaled by the
# factor's coefficient norm, stays below this on every sample
EXACT_LINE_TOL = 1e-9

Line = tuple[Fraction, Fraction, Fraction]


class EmptyElimination(RuntimeError):
    """The elimination ideal is zero: the tracer sweeps a region, not a curve,
    so the linkage is under-constrained."""


class CertificateDisagreement(RuntimeError):
    """Minimal-degree elimination generators disagree on straightness."""


@dataclass(frozen=True)
class ConstraintIdeal:
    """Polynomial system whose solutions are the reachable configurations.

    A free joint J contributes variables J_x, J_y; the tracer point gets the
    distinguished variables x, y, placed last. Anchored coordinates are
    substituted as exact constants. Every bar contributes its squared-length
    equation, the driver bar included: no angle is pinned, so the system
    describes the whole curve over all driver positions. The rows come from
    model.reduced_constraints, the encoding the numeric solver uses too:
    collinear triples become affine rows, and the tracer adds two rows when
    it sits on a bar.
    """

    variables: tuple[str, ...]
    generators: tuple[MultiPoly, ...]


def constraint_ideal(spec: LinkageSpec) -> ConstraintIdeal:
    triples, quadrics = reduced_constraints(spec)
    tracer = spec.tracer

    names: list[str] = []
    for j in spec.free_joints:
        if tracer.joint is not None and j.id == tracer.joint:
            continue
        names.append(f"{j.id}_x")
        names.append(f"{j.id}_y")
    names += ["x", "y"]
    ring = tuple(names)

    def pt(jid: str) -> tuple[MultiPoly, MultiPoly]:
        j = spec.joint(jid)
        if j.is_anchored:
            return (MultiPoly.const(ring, j.anchor[0]),
                    MultiPoly.const(ring, j.anchor[1]))
        if tracer.joint is not None and jid == tracer.joint:
            return (MultiPoly.variable(ring, "x"), MultiPoly.variable(ring, "y"))
        return (MultiPoly.variable(ring, f"{jid}_x"),
                MultiPoly.variable(ring, f"{jid}_y"))

    gens: list[MultiPoly] = []
    for t in triples:
        m, a, b = pt(t.mid), pt(t.a), pt(t.b)
        for i in (0, 1):
            gens.append(m[i] - ((1 - t.t) * a[i] + t.t * b[i]))
    for bar in quadrics:
        a, b = pt(bar.a), pt(bar.b)
        gens.append((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 - bar.length**2)
    if tracer.on_bar:
        bar = spec.bar(tracer.bar)
        a, b = pt(bar.a), pt(bar.b)
        off = tracer.offset
        gens.append(MultiPoly.variable(ring, "x") - ((1 - off) * a[0] + off * b[0]))
        gens.append(MultiPoly.variable(ring, "y") - ((1 - off) * a[1] + off * b[1]))
    return ConstraintIdeal(ring, tuple(g for g in gens if not g.is_zero))


@dataclass(frozen=True)
class LocusResult:
    """Implicit equation of the traced curve.

    locus is primitive with positive leading coefficient. factors lists the
    exact rational lines dividing it, with multiplicity; the product of all
    factors (to their multiplicities) times residual_cofactor reconstructs
    locus exactly. alternates holds any further minimal-degree elimination
    generators; certificates must agree across them.
    """

    locus: MultiPoly
    total_degree: int
    factors: tuple[tuple[MultiPoly, int], ...]
    residual_cofactor: MultiPoly
    alternates: tuple[MultiPoly, ...] = ()


def locus_equation(
    spec: LinkageSpec,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    hints: Sequence[Line] = (),
) -> LocusResult:
    """Eliminate every joint coordinate, keeping the tracer's x, y."""
    ci = constraint_ideal(spec)
    basis = eliminate(ci.generators, ("x", "y"), pair_budget=pair_budget)
    if not basis:
        raise EmptyElimination(
            f"locus of {spec.name!r} is two-dimensional; the linkage does not "
            "constrain its tracer to a curve"
        )
    dmin = min(g.total_degree() for g in basis)
    minimal = [g.primitive() for g in basis if g.total_degree() == dmin]
    locus = minimal[0]
    factors, cofactor = extract_linear_factors(locus, hints=hints)
    return LocusResult(
        locus=locus,
        total_degree=dmin,
        factors=tuple(factors),
        residual_cofactor=cofactor,
        alternates=tuple(minimal[1:]),
    )


# probe values for univariate slices; plenty for the degree-7 loci here,
# whose leading-coefficient curves can kill only finitely many probes
_PROBES = tuple(Fraction(v) for v in (0, 1, -1, 2, -2, Fraction(1, 2), 3, -3))


def _norm_line(a: Fraction, b: Fraction, c: Fraction) -> Optional[Line]:
    if a == 0 and b == 0:
        return None
    den = 1
    for v in (a, b, c):
        den = den * v.denominator // math.gcd(den, v.denominator)
    ia, ib, ic = (int(v * den) for v in (a, b, c))
    g = math.gcd(math.gcd(abs(ia), abs(ib)), abs(ic))
    ia, ib, ic = ia // g, ib // g, ic // g
    if ia < 0 or (ia == 0 and ib < 0):
        ia, ib, ic = -ia, -ib, -ic
    return (Fraction(ia), Fraction(ib), Fraction(ic))


def _slice_roots(p: MultiPoly, root_var: int) -> list[tuple[Fraction, Fraction]]:
    """Rationalized real roots of p sliced at probe values of the other
    variable; pairs (root, probe) as points (x, y) in ring order."""
    other = 1 - root_var
    deg = max(e[root_var] for e, _ in p.terms)
    points: list[tuple[Fraction, Fraction]] = []
    good = 0
    for probe in _PROBES:
        if good == 2:
            break
        coeffs = [Fraction(0)] * (deg + 1)
        for e, c in p.terms:
            coeffs[e[root_var]] += c * probe ** e[other]
        if coeffs[deg] == 0:
            continue
        good += 1
        vec = np.array([float(c) for c in coeffs[::-1]])
        vec /= np.abs(vec).max()
        for r in np.roots(vec):
            if abs(r.imag) > 1e-7 * (1.0 + abs(r.real)):
                continue
            rat = Fraction(float(r.real)).limit_denominator(10**6)
            pt = (rat, probe) if root_var == 0 else (probe, rat)
            points.append(pt)
    return points


def _candidate_lines(p: MultiPoly, hints: Sequence[Line]) -> list[Line]:
    cands: set[Line] = set()
    for a, b, c in hints:
        n = _norm_line(Fraction(a), Fraction(b), Fraction(c))
        if n:
            cands.add(n)
    for axis in (0, 1):
        pts = _slice_roots(p, axis)
        for i in range(len(pts)):
            x1, y1 = pts[i]
            for j in range(i + 1, len(pts)):
                x2, y2 = pts[j]
                if (x1, y1) == (x2, y2):
                    continue
                n = _norm_line(y1 - y2, x2 - x1, x1 * y2 - x2 * y1)
                if n:
                    cands.add(n)
    return sorted(cands)


def extract_linear_factors(
    p: MultiPoly, hints: Sequence[Line] = ()
) -> tuple[list[tuple[MultiPoly, int]], MultiPoly]:
    """All exact rational lines a*x + b*y + c dividing p, with multiplicity,
    plus the exact cofactor.

    Candidates come from rational points on univariate slices of p at two
    probe values per axis, and from externally fitted lines passed as hints;
    a candidate only counts after exact division leaves a zero remainder, so
    a wrong guess costs time, never correctness.
    """
    if len(p.vars) != 2:
        raise ValueError(f"expected a bivariate polynomial, got variables {p.vars}")
    if p.is_zero or p.total_degree() < 1:
        return [], p
    vx, vy = (MultiPoly.variable(p.vars, v) for v in p.vars)
    factors: list[tuple[MultiPoly, int]] = []
    work = p
    for a, b, c in _candidate_lines(p, hints):
        line = a * vx + b * vy + MultiPoly.const(p.vars, c)
        mult = 0
        while not work.is_zero:
            quots, rem = divide(work, [line])
            if not rem.is_zero:
                break
            work = quots[0]
            mult += 1
        if mult:
            factors.append((line, mult))
    return factors, work


class Verdict(Enum):
    EXACT_LINE = "exact_line"
    APPROXIMATE = "approximate"


@dataclass(frozen=True)
class StraightnessCertificate:
    """Outcome of certify(): is the windowed trace segment exactly straight?

    line is the exact rational (a, b, c) of a*x + b*y + c = 0 when the
    verdict is EXACT_LINE, else None. max_deviation is the numeric
    total-least-squares deviation over the window in model units, reported
    for both verdicts. via_fallback marks certificates decided without the
    full locus polynomial (see certify).
    """

    verdict: Verdict
    window: tuple[float, float]
    max_deviation: float
    line: Optional[Line]
    evidence: str
    via_fallback: bool = False


def _line_norm(a: Fraction, b: Fraction, c: Fraction) -> float:
    return math.sqrt(float(a) ** 2 + float(b) ** 2 + float(c) ** 2)


def _vanishes_on(line: Line, samples: Sequence[TraceSample]) -> bool:
    a, b, c = (float(v) for v in line)
    scale = _line_norm(*line)
    return all(abs(a * s.x + b * s.y + c) / scale < EXACT_LINE_TOL for s in samples)


def _factor_coeffs(factor: MultiPoly) -> Line:
    n = len(factor.vars)
    ex = tuple(1 if i == 0 else 0 for i in range(n))
    ey = tuple(1 if i == 1 else 0 for i in range(n))
    return (factor.coefficient(ex), factor.coefficient(ey),
            factor.coefficient(tuple(0 for _ in range(n))))


def _vanishing_factor(
    factors: Sequence[tuple[MultiPoly, int]], samples: Sequence[TraceSample]
) -> Optional[MultiPoly]:
    for f, _ in factors:
        if _vanishes_on(_factor_coeffs(f), samples):
            return f
    return None


def _tls_hints(line: tuple[float, float, float]) -> list[Line]:
    """Rationalizations of a floating TLS line, as factor-search hints."""
    a, b, c = line
    scale = max(abs(a), abs(b), abs(c), 1e-30)
    hints = []
    for limit in (100, 10**6):
        cand = tuple(Fraction(v / scale).limit_denominator(limit) for v in (a, b, c))
        if cand[0] != 0 or cand[1] != 0:
            hints.append(cand)
    return hints


_BEZOUT_NOTE = (
    "a straight segment shares infinitely many points with the curve, so by "
    "Bezout's theorem it could only lie on a linear component"
)


def certify(
    spec: LinkageSpec,
    trace: Trace,
    window: tuple[float, float],
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    fallback_budget: int = DEFAULT_PAIR_BUDGET,
) -> StraightnessCertificate:
    """Decide whether the windowed trace segment is exactly straight.

    Primary path: compute the locus polynomial and test the windowed samples
    against each exact linear factor. If elimination exhausts pair_budget,
    fall back to certify-by-candidate: rationalize the fitted line, confirm
    it numerically, then substitute it into the constraint system and
    eliminate down to the line's free coordinate (budgeted separately by
    fallback_budget, since this system is far smaller). An empty elimination
    ideal there means the curve meets the line in infinitely many points,
    which makes the line a component of the locus without ever computing it.
    """
    samples = trace.windowed(window)
    if len(samples) < 10:
        raise DegenerateWindow(
            f"straightness window {window} holds {len(samples)} samples; need at least 10"
        )
    stats = straightness_stats(trace, window)
    try:
        res = locus_equation(spec, pair_budget=pair_budget, hints=_tls_hints(stats.line))
    except PairBudgetExceededError:
        return _certify_fallback(spec, samples, stats, window, fallback_budget)

    hit = _vanishing_factor(res.factors, samples)
    for alt in res.alternates:
        alt_factors, _ = extract_linear_factors(alt, hints=_tls_hints(stats.line))
        alt_hit = _vanishing_factor(alt_factors, samples)
        if (hit is None) != (alt_hit is None):
            raise CertificateDisagreement(
                f"minimal-degree generators disagree: {res.locus.text()} says "
                f"{'line' if hit is not None else 'no line'}, {alt.text()} says "
                f"{'line' if alt_hit is not None else 'no line'}"
            )
    if hit is not None:
        return StraightnessCertificate(
            verdict=Verdict.EXACT_LINE,
            window=window,
            max_deviation=stats.max_deviation,
            line=_factor_coeffs(hit),
            evidence=(
                f"all {len(samples)} windowed samples vanish on the linear factor "
                f"{hit.text()} of the degree-{res.total_degree} locus "
                f"(normalized residual < {EXACT_LINE_TOL:g})"
            ),
        )
    return StraightnessCertificate(
        verdict=Verdict.APPROXIMATE,
        window=window,
        max_deviation=stats.max_deviation,
        line=None,
        evidence=(
            f"no linear factor of the degree-{res.total_degree} locus contains the "
            f"windowed samples ({len(res.factors)} linear factor(s) present); "
            f"{_BEZOUT_NOTE}; max deviation {stats.max_deviation:.6g} units"
        ),
    )


def _certify_fallback(spec, samples, stats, window, fallback_budget) -> StraightnessCertificate:
    approx_base = "locus elimination exceeded its pair budget; "
    if stats.max_deviation >= EXACT_LINE_TOL:
        return StraightnessCertificate(
            verdict=Verdict.APPROXIMATE,
            window=window,
            max_deviation=stats.max_deviation,
            line=None,
            evidence=(
                approx_base
                + f"the fitted line already deviates {stats.max_deviation:.6g} units "
                f"over the window, so no exact-line claim is possible; {_BEZOUT_NOTE}"
            ),
            via_fallback=True,
        )
    cands = _tls_hints(stats.line)
    cand = next((c for c in (_norm_line(*h) for h in cands) if c and _vanishes_on(c, samples)), None)
    if cand is None:
        return StraightnessCertificate(
            verdict=Verdict.APPROXIMATE,
            window=window,
            max_deviation=stats.max_deviation,
            line=None,
            evidence=(
                approx_base + "the fitted line does not rationalize to an exact "
                f"candidate containing the samples; {_BEZOUT_NOTE}"
            ),
            via_fallback=True,
        )
    a, b, c = cand
    ci = constraint_ideal(spec)
    ring = ci.variables
    x = MultiPoly.variable(ring, "x")
    y = MultiPoly.variable(ring, "y")
    if b != 0:
        rep, keep = {"y": (x * (-a) + MultiPoly.const(ring, -c)) * (1 / b)}, "x"
    else:
        rep, keep = {"x": (y * (-b) + MultiPoly.const(ring, -c)) * (1 / a)}, "y"
    substituted = [g.subs(rep) for g in ci.generators]
    leftover = eliminate(substituted, (keep,), pair_budget=fallback_budget)
    line_text = (a * x + b * y + MultiPoly.const(ring, c)).restrict(("x", "y")).text()
    if leftover:
        return StraightnessCertificate(
            verdict=Verdict.APPROXIMATE,
            window=window,
            max_deviation=stats.max_deviation,
            line=None,
            evidence=(
                approx_base + f"candidate line {line_text} meets the curve in only "
                f"finitely many points (substituted elimination is non-empty); {_BEZOUT_NOTE}"
            ),
            via_fallback=True,
        )
    return StraightnessCertificate(
        verdict=Verdict.EXACT_LINE,
        window=window,
        max_deviation=stats.max_deviation,
        line=cand,
        evidence=(
            f"fallback certificate: all {len(samples)} windowed samples lie on "
            f"{line_text} (normalized residual < {EXACT_LINE_TOL:g}), and substituting "
            "the line into the constraint system eliminates to the zero ideal, so the "
            "curve meets it in infinitely many points; by Bezout's theorem the line is "
            "a component of the locus"
        ),
        via_fallback=True,
    )
