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
the numeric solver shares. The linear-factor search uses integer arithmetic
only and is complete: a factor's direction divides the top-degree form, and
the factor crosses a transverse slice at a rational root, so both come from
exact rational roots of univariate polynomials (Sturm counting and integer
bisection). Candidates are peeled off with poly.divide, which runs the poly
layer's one division engine. A line is a primitive MultiPoly over (x, y),
signed by its x, then its y coefficient, as every primitive polynomial is.
A tracer that does not trace a curve raises NotACurve. The default pair
budget is poly.DEFAULT_PAIR_BUDGET, re-exported here.

The numeric side of a certificate, the total-least-squares line through the
windowed samples, is fitted here too (straightness_stats), in pure Python
from the closed form of the 2x2 scatter matrix, so this module never loads
numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .model import LinkageSpec, reduced_constraints
from .poly import DEFAULT_PAIR_BUDGET, MultiPoly, PairBudgetExceededError, divide, eliminate

if TYPE_CHECKING:
    from .solver import Trace, TraceSample

# a factor "contains" the windowed samples when its residual, scaled by the
# factor's coefficient norm, stays below this on every sample
EXACT_LINE_TOL = 1e-9

Line = tuple[Fraction, Fraction, Fraction]


class NotACurve(RuntimeError):
    """The tracer does not trace a curve: the elimination ideal is zero (it
    sweeps a region; the linkage is under-constrained), or the elimination
    basis has a constant gcd (it reaches only finitely many points)."""


class DegenerateWindow(ValueError):
    """The window holds too few samples, or samples that cannot define a line."""


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
    it sits on a bar or on an anchor.
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
    if tracer.joint is not None and spec.joint(tracer.joint).is_anchored:
        ax, ay = pt(tracer.joint)
        gens += [MultiPoly.variable(ring, "x") - ax, MultiPoly.variable(ring, "y") - ay]
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
    locus exactly.
    """

    locus: MultiPoly
    total_degree: int
    factors: tuple[tuple[MultiPoly, int], ...]
    residual_cofactor: MultiPoly


def locus_equation(spec: LinkageSpec, pair_budget: int = DEFAULT_PAIR_BUDGET) -> LocusResult:
    """Eliminate every joint coordinate, keeping the tracer's x, y.

    The elimination ideal is g*J, where g is the gcd of its generators and J
    cuts out finitely many points (isolated or embedded), so the curve is
    g = 0. A zero ideal or a constant g raises NotACurve.
    """
    return _locus_equation(spec, constraint_ideal(spec), pair_budget)


def _locus_equation(spec: LinkageSpec, ci: ConstraintIdeal, pair_budget: int) -> LocusResult:
    """locus_equation on spec's constraint ideal ci, built once by the caller."""
    basis = eliminate(ci.generators, ("x", "y"), pair_budget=pair_budget)
    if not basis:
        raise NotACurve(
            f"locus of {spec.name!r} is two-dimensional; the linkage does not "
            "constrain its tracer to a curve"
        )
    locus = basis[0]
    for g in basis[1:]:
        locus = _gcd(locus, g, pair_budget)
    if locus.total_degree() < 1:
        raise NotACurve(
            f"locus of {spec.name!r} is finite; the tracer reaches only finitely "
            "many points, not a curve"
        )
    factors, cofactor = extract_linear_factors(locus)
    return LocusResult(
        locus=locus,
        total_degree=locus.total_degree(),
        factors=tuple(factors),
        residual_cofactor=cofactor,
    )


def _gcd(f: MultiPoly, g: MultiPoly, pair_budget: int) -> MultiPoly:
    """Primitive gcd of two polynomials: f*g over their lcm, which generates
    (t*f, (1 - t)*g) intersected with the ring of f and g (Cox, Little and
    O'Shea, Ideals, Varieties, and Algorithms, section 4.3)."""
    ring = ("t", *f.vars)
    t = MultiPoly.variable(ring, "t")
    f_t, g_t = (p.restrict(ring) for p in (f, g))
    (lcm,) = eliminate([t * f_t, (1 - t) * g_t], f.vars, pair_budget=pair_budget)
    quots, rem = divide(f * g, [lcm])
    assert rem.is_zero
    return quots[0].primitive()


def _derivative(f: MultiPoly) -> MultiPoly:
    return MultiPoly(f.vars, {(e - 1,): e * c for (e,), c in f.terms if e})


def _rational_roots(f: MultiPoly) -> list[Fraction]:
    """Distinct rational roots of a univariate f, ascending, exactly.

    The primitive square-free part of f, of degree d and leading coefficient
    lc, has the roots s/lc for the integer roots s of the monic integer
    polynomial g(s) = lc^(d-1) * f(s/lc). Sturm's theorem counts g's real
    roots in (lo, hi]; integer bisection from a power-of-two bound narrows
    every interval that holds one to width 1, and its right end is checked.
    """
    if f.total_degree() < 1:
        return []
    a, b = f, _derivative(f)
    while not b.is_zero:
        a, b = b, divide(a, [b])[1].primitive()
    f = divide(f, [a])[0][0].primitive()
    d = f.total_degree()
    lc = int(f.terms[0][1])
    g = MultiPoly(f.vars, {e: c * Fraction(lc) ** (d - 1 - e[0]) for e, c in f.terms})
    seq = [g, _derivative(g)]
    while seq[-1].total_degree() > 0:
        # -rem scaled by a positive constant keeps the Sturm signs
        rem = -divide(seq[-2], [seq[-1]])[1]
        seq.append(rem.primitive() if rem.content > 0 else -rem.primitive())
    rows = [[int(p.coefficient((i,))) for i in range(p.total_degree(), -1, -1)] for p in seq]

    def value(row: list[int], s: int) -> int:
        v = 0
        for c in row:
            v = v * s + c
        return v

    def changes(s: int) -> int:
        signs = [v > 0 for v in (value(r, s) for r in rows) if v]
        return sum(u != w for u, w in zip(signs, signs[1:]))

    bound = 1 << (max(abs(int(c)) for _, c in f.terms).bit_length() + 1)
    roots = []
    stack = [(-bound, bound, changes(-bound), changes(bound))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            if value(rows[0], hi) == 0:
                roots.append(Fraction(hi, lc))
            continue
        mid = (lo + hi) // 2
        vmid = changes(mid)
        stack += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
    return sorted(roots)


def _candidate_lines(p: MultiPoly) -> list[MultiPoly]:
    """Every rational line that can divide p, primitive and sorted by its
    coefficients; see extract_linear_factors for why the list is complete."""
    vx, vy = p.vars
    x, y = (MultiPoly.variable(p.vars, v) for v in (vx, vy))
    d = p.total_degree()
    top = MultiPoly(p.vars, {e: c for e, c in p.terms if sum(e) == d})
    dirs = [(Fraction(1), -r) for r in _rational_roots(top.subs(vy, 1).restrict((vx,)))]
    if not top.coefficient((d, 0)):
        dirs.append((Fraction(0), Fraction(1)))
    slices: dict[int, tuple[int, list[Fraction]]] = {}
    cands: set[MultiPoly] = set()
    for a, b in dirs:
        # slice at x = k when the line is not vertical, else at y = k
        axis = 0 if b else 1
        if axis not in slices:
            k = 0
            while (cut := p.subs(p.vars[axis], k)).is_zero:
                k += 1
            slices[axis] = (k, _rational_roots(cut.restrict((p.vars[1 - axis],))))
        k, roots = slices[axis]
        for r in roots:
            x0, y0 = (k, r) if axis == 0 else (r, k)
            cands.add((a * x + b * y - (a * x0 + b * y0)).primitive())
    return sorted(cands, key=_factor_coeffs)


def extract_linear_factors(p: MultiPoly) -> tuple[list[tuple[MultiPoly, int]], MultiPoly]:
    """All exact rational lines a*x + b*y + c dividing p, with multiplicity,
    plus the exact cofactor.

    The search is exact and complete. A factor's direction a*x + b*y divides
    the top-degree form p_d of p, so it is x - r*y for a rational root r of
    p_d(t, 1), or y when p has no x^d term. The factor then meets the slice
    x = k of p (y = k for the direction x), where k is the first of 0, 1,
    2, ... on which p does not vanish identically, at a rational root of
    that slice, which fixes c. Every candidate still has to leave a zero
    remainder under exact division before it counts.
    """
    if len(p.vars) != 2:
        raise ValueError(f"expected a bivariate polynomial, got variables {p.vars}")
    if p.is_zero or p.total_degree() < 1:
        return [], p
    factors: list[tuple[MultiPoly, int]] = []
    work = p
    for line in _candidate_lines(p):
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


@dataclass(frozen=True)
class StraightnessStats:
    line: tuple[float, float, float]  # a*x + b*y + c fit, a^2 + b^2 = 1
    max_deviation: float  # perpendicular distance, units


def straightness_stats(trace: Trace, window: tuple[float, float]) -> StraightnessStats:
    """Total-least-squares line through the windowed tracer points.

    The line passes through the centroid along the major axis of the scatter
    matrix [[sxx, sxy], [sxy, syy]] of the centred points, at the angle
    phi = atan2(2*sxy, sxx - syy) / 2; its unit normal (a, b) is
    (-sin phi, cos phi), signed so that a > 0, or b > 0 when a is zero.
    """
    samples = trace.windowed(window)
    n = len(samples)
    if n < 2:
        raise DegenerateWindow(f"window {window} holds {n} samples; need at least 2")
    # averaged as offsets from the first sample, so that a coordinate every
    # sample shares is the centroid's exactly and centres to 0.0
    x0, y0 = samples[0].x, samples[0].y
    cx = x0 + math.fsum(s.x - x0 for s in samples) / n
    cy = y0 + math.fsum(s.y - y0 for s in samples) / n
    dx = [s.x - cx for s in samples]
    dy = [s.y - cy for s in samples]
    sxx = math.fsum(u * u for u in dx)
    sxy = math.fsum(u * v for u, v in zip(dx, dy))
    syy = math.fsum(v * v for v in dy)
    # the largest singular value of the centred points, sqrt(lambda_max)
    span = math.sqrt((sxx + syy) / 2 + math.hypot((sxx - syy) / 2, sxy))
    if span <= 1e-12 * (1.0 + math.hypot(cx, cy)):
        raise DegenerateWindow("all windowed points coincide")
    phi = math.atan2(2 * sxy, sxx - syy) / 2
    a, b = -math.sin(phi), math.cos(phi)
    c = -(a * cx + b * cy)
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    dev = max(abs(a * u + b * v) for u, v in zip(dx, dy))
    return StraightnessStats(line=(a, b, c), max_deviation=dev)


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


def _vanishes_on(line: MultiPoly, samples: Sequence[TraceSample]) -> bool:
    # divided exactly by the largest magnitude, so no coefficient or square
    # overflows a float however large the integers are
    coeffs = _factor_coeffs(line)
    top = max(map(abs, coeffs))
    a, b, c = (float(v / top) for v in coeffs)
    scale = math.sqrt(a**2 + b**2 + c**2)
    return all(abs(a * s.x + b * s.y + c) / scale < EXACT_LINE_TOL for s in samples)


def _factor_coeffs(line: MultiPoly) -> Line:
    """(a, b, c) of a line a*x + b*y + c over two variables."""
    return line.coefficient((1, 0)), line.coefficient((0, 1)), line.coefficient((0, 0))


def _tls_hints(line: tuple[float, float, float]) -> list[MultiPoly]:
    """Rationalizations of a floating TLS line, primitive over (x, y), as
    fallback candidates."""
    a, b, c = line
    scale = max(abs(a), abs(b), abs(c), 1e-30)
    x, y = (MultiPoly.variable(("x", "y"), v) for v in ("x", "y"))
    hints = []
    for limit in (100, 10**6):
        ra, rb, rc = (Fraction(v / scale).limit_denominator(limit) for v in (a, b, c))
        if ra != 0 or rb != 0:
            hints.append((ra * x + rb * y + rc).primitive())
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
) -> StraightnessCertificate:
    """Decide whether the windowed trace segment is exactly straight.

    Primary path: compute the locus polynomial and test the windowed samples
    against each exact linear factor; the factor search is complete, so an
    APPROXIMATE verdict here proves no rational line contains the segment.
    If elimination exhausts pair_budget, fall back to certify-by-candidate:
    rationalize the fitted line, confirm it numerically, then eliminate
    down to the line's free coordinate from the constraint system with the
    line as its first generator, which eliminate substitutes away (budgeted
    separately by DEFAULT_PAIR_BUDGET, since that system is far smaller). An
    empty elimination ideal means the curve meets the line in infinitely
    many points, which makes the line a component of the locus without
    ever computing it. The constraint ideal is built once, for both paths.
    The verdict is EXACT_LINE exactly when a line is found.
    """
    samples = trace.windowed(window)
    if len(samples) < 10:
        raise DegenerateWindow(
            f"straightness window {window} holds {len(samples)} samples; need at least 10"
        )
    stats = straightness_stats(trace, window)
    ci = constraint_ideal(spec)
    try:
        res = _locus_equation(spec, ci, pair_budget)
    except PairBudgetExceededError:
        line, evidence = _certify_fallback(ci, samples, stats)
        via_fallback = True
    else:
        via_fallback = False
        line = next((f for f, _ in res.factors if _vanishes_on(f, samples)), None)
        if line is not None:
            evidence = (
                f"all {len(samples)} windowed samples vanish on the linear factor "
                f"{line.text()} of the degree-{res.total_degree} locus "
                f"(normalized residual < {EXACT_LINE_TOL:g})"
            )
        else:
            evidence = (
                f"no linear factor of the degree-{res.total_degree} locus contains the "
                f"windowed samples ({len(res.factors)} linear factor(s) present); "
                f"{_BEZOUT_NOTE}; max deviation {stats.max_deviation:.6g} units"
            )
    return StraightnessCertificate(
        verdict=Verdict.APPROXIMATE if line is None else Verdict.EXACT_LINE,
        window=window,
        max_deviation=stats.max_deviation,
        line=None if line is None else _factor_coeffs(line),
        evidence=evidence,
        via_fallback=via_fallback,
    )


def _certify_fallback(ci, samples, stats) -> tuple[Optional[MultiPoly], str]:
    """The line and evidence of a certificate decided without the locus, from
    the constraint ideal ci the locus attempt built."""
    approx_base = "locus elimination exceeded its pair budget; "
    if stats.max_deviation >= EXACT_LINE_TOL:
        return None, (
            approx_base
            + f"the fitted line already deviates {stats.max_deviation:.6g} units "
            f"over the window, so no exact-line claim is possible; {_BEZOUT_NOTE}"
        )
    line = next((h for h in _tls_hints(stats.line) if _vanishes_on(h, samples)), None)
    if line is None:
        return None, (
            approx_base + "the fitted line does not rationalize to an exact "
            f"candidate containing the samples; {_BEZOUT_NOTE}"
        )
    # eliminate solves the line, its first generator, for y (x when it is
    # vertical), the one coordinate it uses that is not kept
    keep = "x" if line.coefficient((0, 1)) else "y"
    gens = [line.restrict(ci.variables), *ci.generators]
    if eliminate(gens, (keep,), pair_budget=DEFAULT_PAIR_BUDGET):
        return None, (
            approx_base + f"candidate line {line.text()} meets the curve in only "
            f"finitely many points (substituted elimination is non-empty); {_BEZOUT_NOTE}"
        )
    return line, (
        f"fallback certificate: all {len(samples)} windowed samples lie on "
        f"{line.text()} (normalized residual < {EXACT_LINE_TOL:g}), and substituting "
        "the line into the constraint system eliminates to the zero ideal, so the "
        "curve meets it in infinitely many points; by Bezout's theorem the line is "
        "a component of the locus"
    )
