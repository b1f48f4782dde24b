"""Constraint ideals, symbolic locus equations, and straightness certificates."""

import math
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import evaluate, scaled, solve, sympy_divide
from linkagekit.catalog import entry, names
from linkagekit.locus import (
    DEFAULT_PAIR_BUDGET,
    DegenerateWindow,
    NotACurve,
    Verdict,
    _factor_coeffs,
    _gcd,
    _rational_roots,
    certify,
    constraint_ideal,
    extract_linear_factors,
    locus_equation,
    straightness_stats,
)
from linkagekit.model import Bar, Driver, Joint, LinkageSpec, Tracer
from linkagekit.poly import MultiPoly, PairBudgetExceededError, divide, eliminate
from linkagekit.solver import Trace, TraceSample, trace

V2 = ("x", "y")
X = MultiPoly.variable(V2, "x")
Y = MultiPoly.variable(V2, "y")

# frozen against numeric traces: windowed samples of each model vanish on its
# equation, and the off-axis circle-intersection assemblies of the A-frame
# vanish on the sextic cofactor (worst normalized residual 4.5e-14)
GOLDEN = {
    "compass": "x^2 + y^2 - 16",
    "chebyshev": (
        "x^6 + 3*x^4*y^2 + 3*x^2*y^4 + y^6 - 224*x^4 - 384*x^2*y^2 "
        "- 160*y^4 + 12544*x^2 + 6144*y^2"
    ),
    "chebyshev_lambda": (
        "x^6 + 3*x^4*y^2 + 3*x^2*y^4 + y^6 - 24*x^5 - 48*x^3*y^2 - 24*x*y^4 "
        "+ 16*x^4 - 96*x^2*y^2 - 112*y^4 + 2304*x^3 + 2304*x*y^2 - 5120*x^2 "
        "+ 768*y^2 - 49152*x + 147456"
    ),
    "watt": (
        "x^6 + 3*x^4*y^2 + 3*x^2*y^4 + y^6 - 24*x^4*y - 48*x^2*y^3 - 24*y^5 "
        "- 200*x^4 + 48*x^2*y^2 + 248*y^4 + 1152*x^2*y - 1408*y^3 + 12304*x^2 "
        "+ 3600*y^2 - 128*y - 9984"
    ),
    "hart_inversor": (
        "2*x^6*y + 6*x^4*y^3 + 6*x^2*y^5 + 2*y^7 + 3*x^6 + 9*x^4*y^2 "
        "+ 9*x^2*y^4 + 3*y^6 - 32*x^4*y - 192*x^2*y^3 - 160*y^5 - 48*x^4 "
        "- 672*x^2*y^2 - 624*y^4 - 2496*x^2*y + 2624*y^3 - 2880*x^2 "
        "+ 20160*y^2 + 41472*y + 27648"
    ),
    "hart_aframe": (
        "9*x^5*y^2 + 18*x^3*y^4 + 9*x*y^6 - 1728*x^3*y^2 - 128*x*y^4 + 20736*x^3"
    ),
}
GOLDEN["chebyshev_open"] = GOLDEN["chebyshev"]

DEGREE = {
    "compass": 2, "chebyshev": 6, "chebyshev_open": 6, "chebyshev_lambda": 6,
    "watt": 6, "hart_inversor": 7, "hart_aframe": 7,
}


def normalized_residual(g: MultiPoly, x: float, y: float) -> float:
    # scale bounds every monomial, so points where all monomials vanish
    # together (the A-frame's x = 0 branch) stay well-normalized
    num = abs(evaluate(g, {"x": x, "y": y}))
    scale = sum(abs(float(c)) for _, c in g.terms)
    scale *= max(1.0, abs(x), abs(y)) ** g.total_degree()
    return num / scale


def quadric_and_linear_counts(ci):
    degs = [g.total_degree() for g in ci.generators]
    return degs.count(2), degs.count(1)


def test_constraint_ideal_watt():
    ci = constraint_ideal(entry("watt").spec)
    assert ci.variables == ("C_x", "C_y", "D_x", "D_y", "x", "y")
    assert quadric_and_linear_counts(ci) == (3, 2)


def test_constraint_ideal_hart():
    ci = constraint_ideal(entry("hart_inversor").spec)
    assert len(ci.variables) == 12
    assert ci.variables[-2:] == ("x", "y")
    # collinear triples keep only the outer quadric plus two affine rows each
    assert quadric_and_linear_counts(ci) == (5, 6)


def test_constraint_ideal_compass():
    ci = constraint_ideal(entry("compass").spec)
    assert ci.variables == ("x", "y")
    assert [g.text() for g in ci.generators] == ["x^2 + y^2 - 16"]


def test_solved_configuration_zeroes_constraint_ideal():
    # cross-check of the two halves: the numeric solution at theta_ref must
    # satisfy every exact generator, each residual scaled by its term sizes
    for name in names():
        e = entry(name)
        cfg = solve(e.spec, e.theta_ref, e.seed_config())
        tracer = e.spec.tracer
        if tracer.on_bar:
            bar, off = e.spec.bar(tracer.bar), float(tracer.offset)
            pen = [(1 - off) * a + off * b for a, b in zip(cfg[bar.a], cfg[bar.b])]
        else:
            pen = cfg[tracer.joint]
        ci = constraint_ideal(e.spec)
        point = []
        for v in ci.variables:
            if v in ("x", "y"):
                point.append(pen[v == "y"])
            else:
                jid, axis = v.rsplit("_", 1)
                point.append(cfg[jid][axis == "y"])
        for g in ci.generators:
            terms = [
                float(c) * math.prod(p**k for p, k in zip(point, exp)) for exp, c in g.terms
            ]
            assert abs(sum(terms)) <= 1e-9 * sum(abs(t) for t in terms), (name, g.text())


def test_locus_goldens(loci):
    for name in names():
        res = loci[name]
        assert res.locus.text() == GOLDEN[name], name
        assert res.total_degree == DEGREE[name], name


def test_shifted_four_bar_matches_symmetric_one(loci):
    assert loci["chebyshev_open"].locus == loci["chebyshev"].locus


def test_hart_linear_factor(loci):
    res = loci["hart_inversor"]
    assert [(f.text(), m) for f, m in res.factors] == [("2*y + 3", 1)]
    assert res.residual_cofactor.total_degree() == 6


def test_aframe_linear_factor(loci):
    res = loci["hart_aframe"]
    assert [(f.text(), m) for f, m in res.factors] == [("x", 1)]
    assert res.residual_cofactor.total_degree() == 6


def test_round_loci_have_no_linear_factor(loci):
    for name in ("compass", "chebyshev", "chebyshev_open", "chebyshev_lambda", "watt"):
        assert loci[name].factors == (), name


def test_factor_product_reconstructs_locus(loci):
    for name in ("hart_inversor", "hart_aframe"):
        res = loci[name]
        prod = MultiPoly.const(res.locus.vars, 1)
        for f, mult in res.factors:
            prod = prod * f**mult
        assert prod * res.residual_cofactor == res.locus, name


# both true factors of the catalog loci (2*y + 3 and x) and lines that divide
# none, so the division oracle sees zero and nonzero remainders alike
DIVISION_LINES = [
    (0, 2, 3), (1, 0, 0), (1, 0, 4), (1, 0, -4), (0, 1, 0), (0, 1, 4), (0, 1, -4),
    (1, 1, 0), (1, -1, 0), (1, 1, 7), (3, -2, 5), (2, 0, 3), (0, 3, -1), (1, 2, -8),
    (4, 1, 16), (5, -7, 11), (7, 3, -2), (1, -3, 12), (2, 5, 1), (6, 1, -9),
]


def test_candidate_line_division_matches_sympy(loci):
    pytest.importorskip("sympy")
    for name in names():
        p = loci[name].locus
        for a, b, c in DIVISION_LINES:
            line = a * X + b * Y + MultiPoly.const(V2, c)
            (q,), r = divide(p, [line])
            assert ([q.as_dict()], r.as_dict()) == sympy_divide(p, [line]), (name, line.text())


def test_elimination_generators_vanish_on_traces(traces):
    # soundness: every surviving generator, minimal degree or not, must
    # vanish on points the solver reached
    for name in names():
        e = entry(name)
        ci = constraint_ideal(e.spec)
        basis = eliminate(ci.generators, ("x", "y"))
        assert basis, name
        samples = traces[name].windowed(e.window)
        assert len(samples) >= 10
        for g in basis:
            worst = max(normalized_residual(g, s.x, s.y) for s in samples)
            assert worst < 1e-6, (name, g.text(), worst)


def test_extract_linear_factors_with_multiplicity():
    p = (X + Y) ** 2 * (X - Y + 1) * (X**2 + Y**2 + 1)
    factors, cofactor = extract_linear_factors(p)
    assert {(f.text(), m) for f, m in factors} == {("x + y", 2), ("x - y + 1", 1)}
    assert cofactor == X**2 + Y**2 + 1


T = ("t",)
TV = MultiPoly.variable(T, "t")


@pytest.mark.parametrize(
    "f",
    [
        (TV - 2) ** 3 * (3 * TV + 1) ** 2,
        TV**2 * (TV**2 - 2) * (5 * TV - 4),
        (123456789012 * TV - 987654321) * (10**9 * TV + 7) * (TV**2 + TV + 1),
        -(2 * TV - 1) * (TV + 5) * (TV - F(1, 3)),
        TV**4 + 1,
        (TV**2 + 3) * (TV**2 - 2),
        MultiPoly.const(T, 7),
    ],
    ids=["repeated", "zero", "large-lead", "negative-lead", "no-real", "irrational", "constant"],
)
def test_rational_roots_match_sympy(f):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t**e for (e,), c in f.terms)
    want = set()
    for g, _ in sympy.factor_list(expr, t)[1]:
        g = sympy.Poly(g, t)
        if g.degree() == 1:
            r = -g.nth(0) / g.nth(1)
            want.add(F(int(r.p), int(r.q)))
    assert _rational_roots(f) == sorted(want)


_COEFF = st.one_of(st.just(0), st.integers(-10**7, 10**7))
_LINES = st.lists(
    st.tuples(
        st.tuples(_COEFF, _COEFF, _COEFF).filter(lambda abc: abc[0] or abc[1]),
        st.integers(1, 2),
    ),
    max_size=3,
)
_COFACTORS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: sum(e) <= 3),
    st.integers(-20, 20),
    max_size=6,
).map(lambda terms: MultiPoly(V2, terms)).filter(lambda q: not q.is_zero)


def sympy_linear_factors(p):
    """Normalized (a, b, c) of every linear factor sympy finds, with multiplicity."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    expr = sum(int(c) * x**i * y**j for (i, j), c in p.terms)
    found: dict = {}
    for g, mult in sympy.factor_list(expr, x, y)[1]:
        g = sympy.Poly(g, x, y)
        if g.total_degree() == 1:
            a, b, c = (int(g.coeff_monomial(m)) for m in (x, y, 1))
            line = _factor_coeffs((a * X + b * Y + c).primitive())
            found[line] = found.get(line, 0) + mult
    return found


@settings(max_examples=100, deadline=None)
@given(lines=_LINES, cofactor=_COFACTORS)
# float probes rounded to denominators of 10^6 missed this factor
@example(lines=[((1234567, -7654321, 1), 1)], cofactor=X**2 + Y**2 + 1)
# x divides p, so the slice for the non-vertical directions moves off x = 0
@example(
    lines=[((1, 0, 0), 2), ((0, 3, -7), 2), ((2, 5, 1), 1)],
    cofactor=X**2 - 2 * Y**2 + 3 * Y + 1,
)
# two factors share the direction x + y
@example(lines=[((1, 1, 0), 1), ((1, 1, 1), 1)], cofactor=MultiPoly.const(V2, 1))
def test_planted_linear_factors_match_sympy(lines, cofactor):
    p = cofactor
    for (a, b, c), mult in lines:
        p = p * (a * X + b * Y + MultiPoly.const(V2, c)) ** mult
    factors, rest = extract_linear_factors(p)
    assert {_factor_coeffs(f): m for f, m in factors} == sympy_linear_factors(p)
    prod = rest
    for f, mult in factors:
        prod = prod * f**mult
    assert prod == p


def test_extract_linear_factors_needs_two_variables():
    p = MultiPoly.variable(("x", "y", "z"), "x")
    with pytest.raises(ValueError, match="bivariate"):
        extract_linear_factors(p)


def test_two_dof_tracer_has_no_curve():
    spec = LinkageSpec(
        name="arm",
        joints=(Joint("O", (F(0), F(0))), Joint("A", None), Joint("T", None)),
        bars=(Bar("oa", "O", "A", F(2)), Bar("at", "A", "T", F(2))),
        driver=Driver("oa"),
        tracer=Tracer(joint="T"),
    )
    with pytest.raises(NotACurve, match="two-dimensional"):
        locus_equation(spec)


def test_anchored_tracer_is_finite():
    # the tracer sits still: the basis (x, y) has a constant gcd
    spec = replace(entry("compass").spec, tracer=Tracer(joint="O"))
    with pytest.raises(NotACurve, match="finitely many points"):
        locus_equation(spec)


def test_locus_is_gcd_of_elimination_basis():
    # (P) intersected with the ideal of the point (10, 0): the basis is
    # [P*y, P*(x - 10)], and its first element would add a spurious line y
    R = ("t", "x", "y")
    t, x, y = (MultiPoly.variable(R, v) for v in R)
    P = x * x + y * y - 16
    basis = eliminate([t * P, (1 - t) * (x - 10), (1 - t) * y], ("x", "y"))
    assert [g.text() for g in basis] == [
        "x^2*y + y^3 - 16*y", "x^3 + x*y^2 - 10*x^2 - 10*y^2 - 16*x + 160",
    ]
    locus = _gcd(basis[0], basis[1], DEFAULT_PAIR_BUDGET)
    assert locus.text() == "x^2 + y^2 - 16"
    assert extract_linear_factors(locus)[0] == []


def test_gcd_keeps_a_common_line():
    P = X * X + Y * Y - 16
    g = _gcd((X - 1) * P * Y, (X - 1) * P * (X - 10) * 3, DEFAULT_PAIR_BUDGET)
    assert g == ((X - 1) * P).primitive()
    assert [(f.text(), m) for f, m in extract_linear_factors(g)[0]] == [("x - 1", 1)]
    assert _gcd(X - 1, Y, DEFAULT_PAIR_BUDGET).text() == "1"


@settings(max_examples=40, deadline=None)
@given(common=_COFACTORS, f=_COFACTORS, g=_COFACTORS)
def test_gcd_matches_sympy(common, f, g):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    f, g = common * f, common * g
    want = sympy.Poly(sympy.gcd(*(
        sum(int(c) * x**i * y**j for (i, j), c in p.terms) for p in (f, g)
    )), x, y)
    want = MultiPoly(V2, {e: int(c) for e, c in want.as_dict().items()}).primitive()
    assert _gcd(f, g, DEFAULT_PAIR_BUDGET) == want


# critical pairs each catalog elimination needs, pinned from both sides so a
# schedule change shows
PAIR_COUNTS = {
    "chebyshev": 36, "chebyshev_open": 36, "chebyshev_lambda": 36, "watt": 36,
    "hart_inversor": 574, "hart_aframe": 1155,
}


@pytest.mark.parametrize("name", sorted(PAIR_COUNTS))
def test_elimination_pair_counts(name):
    gens = constraint_ideal(entry(name).spec).generators
    pairs = PAIR_COUNTS[name]
    assert len(eliminate(gens, ("x", "y"), pair_budget=pairs)) == 1
    with pytest.raises(PairBudgetExceededError):
        eliminate(gens, ("x", "y"), pair_budget=pairs - 1)


@pytest.mark.parametrize("order, pairs", [("ABCDPQ", 574), ("ABDCQP", 835), ("QPDCBA", 835)])
def test_hart_locus_is_independent_of_ring_order(loci, order, pairs):
    spec = entry("hart_inversor").spec
    joints = tuple(j for j in spec.joints if j.is_anchored) + tuple(spec.joint(j) for j in order)
    res = locus_equation(replace(spec, joints=joints), pair_budget=pairs)
    want = loci["hart_inversor"]
    assert res.locus.text() == want.locus.text()
    assert [(f.text(), m) for f, m in res.factors] == [(f.text(), m) for f, m in want.factors]
    assert res.residual_cofactor.text() == want.residual_cofactor.text()


APPROX_DEVIATIONS = {
    "compass": 3.155e-01,
    "chebyshev": 1.209e-02,
    "chebyshev_open": 2.754e-01,
    "chebyshev_lambda": 4.577e-03,
    "watt": 1.005e-02,
}


def test_certify_approximate_models(traces):
    for name, dev in APPROX_DEVIATIONS.items():
        e = entry(name)
        cert = certify(e.spec, traces[name], e.window)
        assert cert.verdict is Verdict.APPROXIMATE, name
        assert cert.line is None
        assert not cert.via_fallback
        assert cert.max_deviation == pytest.approx(dev, rel=1e-3), name


def test_certify_exact_lines(traces):
    expected = {"hart_inversor": (0, 2, 3), "hart_aframe": (1, 0, 0)}
    for name, line in expected.items():
        e = entry(name)
        cert = certify(e.spec, traces[name], e.window)
        assert cert.verdict is Verdict.EXACT_LINE, name
        assert cert.line == line
        assert not cert.via_fallback
        assert cert.max_deviation < 1e-9


def test_certify_exact_line_with_coefficients_past_the_float_range():
    # every length and anchor times 1 + 10^-170: the floats, and so the trace,
    # stay the catalog's, while the line's integer coefficients pass 10^170
    e = entry("hart_inversor")
    spec = scaled(e.spec, 1 + F(1, 10**170))
    tr = trace(spec, *e.sweep, seed=e.seed_config(), seed_theta=e.theta_ref)
    cert = certify(spec, tr, e.window)
    assert cert.verdict is Verdict.EXACT_LINE
    assert cert.line == (0, 2 * 10**170, 3 * (10**170 + 1))


def test_certify_fallback_on_budget_exhaustion(traces):
    # budget 30 cannot finish any elimination stage; the certificate must
    # come from the substituted system instead and still name the same line
    for name in ("hart_inversor", "hart_aframe"):
        e = entry(name)
        cert = certify(e.spec, traces[name], e.window, pair_budget=30)
        assert cert.verdict is Verdict.EXACT_LINE, name
        assert cert.via_fallback
        a, b, c = cert.line
        if name == "hart_inversor":
            assert a == 0 and 3 * b == 2 * c
        else:
            assert b == 0 and c == 0 and a != 0


def test_certify_fallback_approximate(traces):
    e = entry("watt")
    cert = certify(e.spec, traces["watt"], e.window, pair_budget=30)
    assert cert.verdict is Verdict.APPROXIMATE
    assert cert.via_fallback
    assert cert.max_deviation == pytest.approx(APPROX_DEVIATIONS["watt"], rel=1e-3)


_FALLBACK_NOTE = (
    "a straight segment shares infinitely many points with the curve, so by "
    "Bezout's theorem it could only lie on a linear component"
)


@pytest.mark.parametrize(
    "points, evidence",
    [
        # a rational line off watt's curve: the substituted elimination is non-empty
        (
            [(-2 + 0.04 * k, 4.0) for k in range(50)],
            "candidate line y - 4 meets the curve in only finitely many points "
            "(substituted elimination is non-empty)",
        ),
        # a line of irrational slope: no rationalization contains the samples
        (
            [(200 * k, math.sqrt(2) * (200 * k)) for k in range(50)],
            "the fitted line does not rationalize to an exact candidate "
            "containing the samples",
        ),
    ],
    ids=["finitely-many-points", "does-not-rationalize"],
)
def test_certify_fallback_approximate_branches(points, evidence):
    tr = Trace([TraceSample(float(k), x, y, 0.0) for k, (x, y) in enumerate(points)], [])
    cert = certify(entry("watt").spec, tr, (0, 49), pair_budget=30)
    assert cert.verdict is Verdict.APPROXIMATE
    assert cert.via_fallback
    assert cert.line is None
    assert cert.max_deviation < 1e-12
    assert cert.evidence == (
        f"locus elimination exceeded its pair budget; {evidence}; {_FALLBACK_NOTE}"
    )


def test_certify_rejects_negative_pair_budget(traces):
    # a negative budget is an error, not an exhausted budget that would
    # silently send certify down its fallback path
    e = entry("watt")
    with pytest.raises(ValueError, match="non-negative"):
        certify(e.spec, traces["watt"], e.window, pair_budget=-1)


def test_certify_rejects_thin_window(traces):
    with pytest.raises(ValueError, match="at least 10"):
        certify(entry("watt").spec, traces["watt"], (0.30, 0.301))


def svd_fit(points):
    """The total-least-squares fit by numpy's SVD, as straightness_stats
    computed it before its closed form: (line, max deviation, singular values,
    centroid)."""
    pts = np.array(points, dtype=float)
    centroid = pts.mean(axis=0)
    centred = pts - centroid
    _, sv, vt = np.linalg.svd(centred, full_matrices=False)
    a, b = (float(v) for v in vt[-1])
    c = -float(a * centroid[0] + b * centroid[1])
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    dev = float(np.abs(centred @ np.array([a, b])).max())
    return (a, b, c), dev, sv, centroid


def cloud_trace(points):
    return Trace([TraceSample(float(i), x, y, 0.0) for i, (x, y) in enumerate(points)], [])


def assert_same_line(line, want, tol):
    """line equals want up to orientation: the sign rule keys on the sign of
    a, which rounding decides when a line is nearly horizontal."""
    flipped = tuple(-v for v in line)
    assert line == pytest.approx(want, abs=tol, rel=0) or flipped == pytest.approx(
        want, abs=tol, rel=0
    ), (line, want)


@pytest.mark.parametrize("name", names())
def test_straightness_stats_match_svd_on_catalog_windows(traces, name):
    window = entry(name).window
    stats = straightness_stats(traces[name], window)
    line, dev, _, _ = svd_fit([(s.x, s.y) for s in traces[name].windowed(window)])
    assert stats.line == pytest.approx(line, abs=1e-12, rel=0)
    assert stats.max_deviation == pytest.approx(dev, abs=1e-12, rel=0)


coords = st.floats(-100, 100, allow_nan=False, allow_infinity=False) | st.integers(-9, 9)
clouds = st.lists(st.tuples(coords, coords), min_size=2, max_size=30)


@settings(max_examples=300, deadline=None)
@given(clouds)
@example([(0, 0), (1, 1), (2, 2)])
@example([(1, 1), (-1, -1), (1, -1), (-1, 1)])  # isotropic: every line fits equally
def test_straightness_stats_match_svd_on_clouds(points):
    _, dev, sv, centroid = svd_fit(points)
    threshold = 1e-12 * (1.0 + float(np.linalg.norm(centroid)))
    if sv[0] < threshold / 2:
        with pytest.raises(DegenerateWindow, match="coincide"):
            straightness_stats(cloud_trace(points), (0, len(points)))
        return
    assume(sv[0] > 2 * threshold)  # too close to the threshold to call
    stats = straightness_stats(cloud_trace(points), (0, len(points)))
    a, b, c = stats.line
    assert a * a + b * b == pytest.approx(1.0, abs=1e-12)
    assert a > 0 or (a == 0 and b > 0)
    # the fitted line is a least-squares minimiser even when the direction is
    # ill-conditioned: its squared deviations sum to the least singular value
    # squared, up to rounding in the scatter sums
    squares = sum((a * x + b * y + c) ** 2 for x, y in points)
    assert squares == pytest.approx(sv[-1] ** 2, abs=1e-9 * sv[0] ** 2)
    if sv[-1] ** 2 < 0.99 * sv[0] ** 2:  # a well-defined direction
        scale = 1.0 + float(np.linalg.norm(centroid))
        line, _, _, _ = svd_fit(points)
        assert_same_line(stats.line, line, 1e-9 * scale)
        assert stats.max_deviation == pytest.approx(dev, abs=1e-9 * scale, rel=0)


@settings(max_examples=100, deadline=None)
@given(
    at=coords,
    along=st.lists(coords, min_size=2, max_size=30).filter(lambda v: max(v) - min(v) > 1e-3),
    vertical=st.booleans(),
)
@example(at=0.1, along=[0, 1, 2], vertical=True)
@example(at=-3, along=[5, -5, 2.5], vertical=False)
# a centroid of fsum(y) / n leaves a 1-ulp offset here, and the normal flips
@example(at=85.89317276229801, along=[0.0, 0.0, 1.0], vertical=False)
def test_straightness_stats_on_axis_lines(at, along, vertical):
    points = [(at, v) if vertical else (v, at) for v in along]
    stats = straightness_stats(cloud_trace(points), (0, len(points)))
    want = (1.0, 0.0, -at) if vertical else (0.0, 1.0, -at)
    assert stats.line == pytest.approx(want, abs=1e-12, rel=0)
    assert stats.max_deviation <= 1e-12
    line, dev, _, _ = svd_fit(points)
    assert line == pytest.approx(want, abs=1e-12, rel=0)
    assert dev <= 1e-12


def test_lambda_chebyshev_comparison_report(loci):
    # the two equations are compared, and the outcome reported, without
    # gating the suite on it: the models are distinct builds whose curves
    # happen to coincide up to anchor placement
    lam = loci["chebyshev_lambda"].locus
    cheb = loci["chebyshev"].locus
    shifted = lam.subs("x", X + 4).primitive()
    report = {
        "shift": "x -> x + 4",
        "lambda_degree": lam.total_degree(),
        "chebyshev_degree": cheb.total_degree(),
        "identical_after_shift": shifted == cheb,
    }
    print(
        "lambda vs chebyshev: "
        + ("identical after " + report["shift"]
           if report["identical_after_shift"]
           else "DIFFER after " + report["shift"])
    )
    assert report["lambda_degree"] == 6
    assert report["chebyshev_degree"] == 6
    assert isinstance(report["identical_after_shift"], bool)
