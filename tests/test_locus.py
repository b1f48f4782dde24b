"""Constraint ideals, symbolic locus equations, and straightness certificates."""

import math
from fractions import Fraction as F

import pytest

from conftest import sympy_divide
from linkagekit.catalog import entry, names
from linkagekit.locus import (
    EmptyElimination,
    Verdict,
    _candidate_lines,
    certify,
    constraint_ideal,
    extract_linear_factors,
    locus_equation,
)
from linkagekit.model import Bar, Driver, Joint, LinkageSpec, Tracer
from linkagekit.poly import MultiPoly, divide, eliminate
from linkagekit.solver import solve_configuration

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
    num = abs(float(g.evaluate({"x": float(x), "y": float(y)})))
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
        cfg = solve_configuration(e.spec, e.theta_ref, e.seed_config())
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


def test_candidate_line_division_matches_sympy(loci):
    pytest.importorskip("sympy")
    for name in names():
        p = loci[name].locus
        for a, b, c in _candidate_lines(p, ()):
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


def test_extract_linear_factors_ignores_bad_hint(loci):
    factors, cofactor = extract_linear_factors(
        loci["compass"].locus, hints=[(F(1), F(1), F(7))]
    )
    assert factors == []
    assert cofactor == loci["compass"].locus


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
    with pytest.raises(EmptyElimination, match="two-dimensional"):
        locus_equation(spec)


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


def test_certify_rejects_negative_pair_budget(traces):
    # a negative budget is an error, not an exhausted budget that would
    # silently send certify down its fallback path
    e = entry("watt")
    with pytest.raises(ValueError, match="non-negative"):
        certify(e.spec, traces["watt"], e.window, pair_budget=-1)


def test_certify_rejects_thin_window(traces):
    with pytest.raises(ValueError, match="at least 10"):
        certify(entry("watt").spec, traces["watt"], (0.30, 0.301))


def test_lambda_chebyshev_comparison_report(loci):
    # the two equations are compared, and the outcome reported, without
    # gating the suite on it: the models are distinct builds whose curves
    # happen to coincide up to anchor placement
    lam = loci["chebyshev_lambda"].locus
    cheb = loci["chebyshev"].locus
    shifted = lam.subs({"x": X + 4}).primitive()
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
