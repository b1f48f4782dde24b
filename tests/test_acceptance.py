"""Acceptance suite: one test per shipped claim, tolerances pinned.

Degrees and factor structure are exact integer checks. Certificates are
exact enum outcomes. Numeric invariants carry the tolerances stated in each
test. The final size check is a geometry diagnostic on reconstructed
dimensions and allows a factor-of-two band.
"""

import bisect
import math
import random
import time
from fractions import Fraction as F

import pytest

from conftest import catalog_trace, evaluate, reduce, reflect, solve, spoly
from linkagekit.bom import format_price, price, shipped
from linkagekit.catalog import entry, names
from linkagekit.locus import (
    Verdict,
    certify,
    constraint_ideal,
    locus_equation,
    straightness_stats,
)
from linkagekit.model import MM_PER_UNIT
from linkagekit.poly import GREVLEX, MultiPoly, buchberger, divide
from linkagekit.solver import SolverSettings, trace

V3 = ("x", "y", "z")


def rand_poly(rng, varnames=V3, max_terms=4, max_deg=3, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in varnames)
        c = F(rng.randint(-max_coeff, max_coeff), rng.randint(1, 4))
        terms[e] = terms.get(e, F(0)) + c
    return MultiPoly(varnames, terms)


def normalized_residual(g, x, y):
    num = abs(evaluate(g, {"x": x, "y": y}))
    scale = sum(abs(float(c)) for _, c in g.terms)
    scale *= max(1.0, abs(x), abs(y)) ** g.total_degree()
    return num / scale


def line_distance(line, x, y):
    a, b, c = (float(v) for v in line)
    return abs(a * x + b * y + c) / math.hypot(a, b)


# --- degree reproduction, zero tolerance ---


def test_watt_locus_degree_six_within_time_budget():
    start = time.monotonic()
    res = locus_equation(entry("watt").spec)
    elapsed = time.monotonic() - start
    assert res.total_degree == 6
    assert elapsed < 60.0


def test_chebyshev_and_lambda_loci_degree_six(loci):
    assert loci["chebyshev"].total_degree == 6
    assert loci["chebyshev_lambda"].total_degree == 6


def test_hart_locus_degree_seven_splits_line_and_sextic(loci):
    res = loci["hart_inversor"]
    assert res.total_degree == 7
    assert len(res.factors) == 1
    assert res.factors[0][1] == 1
    assert res.factors[0][0].total_degree() == 1
    assert res.residual_cofactor.total_degree() == 6


def test_compass_locus_is_circle_of_radius_four(loci):
    assert loci["compass"].total_degree == 2
    assert loci["compass"].locus.text() == "x^2 + y^2 - 16"


# --- certificate dichotomy, exact enum outcomes ---


def test_certificates_exact_line_for_hart_linkages(traces):
    for name in ("hart_inversor", "hart_aframe"):
        e = entry(name)
        cert = certify(e.spec, traces[name], e.window)
        assert cert.verdict is Verdict.EXACT_LINE, name
        assert cert.line is not None


def test_certificate_fallback_path_still_exact(traces):
    # with the budget too small for any elimination, the documented
    # substitute-and-eliminate fallback must reach the same verdict
    e = entry("hart_aframe")
    cert = certify(e.spec, traces["hart_aframe"], e.window, pair_budget=30)
    assert cert.verdict is Verdict.EXACT_LINE
    assert cert.via_fallback is True


def test_certificates_approximate_for_near_straight_models(traces):
    for name in ("chebyshev", "chebyshev_lambda", "watt", "compass"):
        e = entry(name)
        cert = certify(e.spec, traces[name], e.window)
        assert cert.verdict is Verdict.APPROXIMATE, name
        assert cert.line is None


# --- trace invariants ---


def test_every_trace_residual_below_1e12(traces):
    for name in names():
        assert max(s.residual for s in traces[name].samples) < 1e-12, name


def test_compass_samples_sit_on_radius_four(traces):
    for s in traces["compass"].samples:
        assert abs(math.hypot(s.x, s.y) - 4.0) <= 1e-9


def test_step_halving_changes_samples_below_1e8():
    for name in ("watt", "hart_inversor"):
        coarse = catalog_trace(name)
        fine = catalog_trace(name, SolverSettings(initial_step=5e-3))
        by_theta = sorted((s.theta, s) for s in fine.samples)
        thetas = [t for t, _ in by_theta]
        matched = 0
        for s in coarse.samples:
            i = bisect.bisect_left(thetas, s.theta)
            for j in (i - 1, i, i + 1):
                if 0 <= j < len(thetas) and abs(thetas[j] - s.theta) < 1e-9:
                    other = by_theta[j][1]
                    assert math.hypot(s.x - other.x, s.y - other.y) < 1e-8, name
                    matched += 1
                    break
        assert matched > len(coarse.samples) // 2, name


def test_hart_straight_branch_within_1e9_of_exact_line(traces, loci):
    e = entry("hart_inversor")
    factor = loci["hart_inversor"].factors[0][0]
    n = len(factor.vars)
    line = (
        factor.coefficient(tuple(1 if i == 0 else 0 for i in range(n))),
        factor.coefficient(tuple(1 if i == 1 else 0 for i in range(n))),
        factor.coefficient(tuple(0 for _ in range(n))),
    )
    samples = traces["hart_inversor"].windowed(e.window)
    assert len(samples) >= 50
    for s in samples:
        assert line_distance(line, s.x, s.y) < 1e-9


def test_flipped_branch_rides_the_sextic_not_the_line(traces, loci):
    # flip the antiparallelogram into its parallelogram assembly at a
    # regular configuration and confirm the pen leaves the straight branch
    e = entry("hart_inversor")
    settings = SolverSettings()
    base = solve(e.spec, 3.6, e.seed)
    flipped = solve(e.spec, 3.6, reflect(base, "C", ("B", "D")))
    tr = trace(e.spec, 3.6, 4.1, settings, seed=flipped, seed_theta=3.6)
    assert len(tr.samples) >= 50
    cofactor = loci["hart_inversor"].residual_cofactor
    line = (F(0), F(2), F(3))
    for s in tr.samples:
        assert normalized_residual(cofactor, s.x, s.y) < 1e-6
    assert min(line_distance(line, s.x, s.y) for s in tr.samples) > 0.1


# --- symbolic property suite ---


def test_ring_axioms_on_thousand_random_triples():
    rng = random.Random(8161863)
    zero = MultiPoly(V3, {})
    for _ in range(1000):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a - a == zero
        assert a * 1 == a


def test_spolynomials_of_produced_bases_reduce_to_zero():
    x, y, z = (MultiPoly.variable(V3, v) for v in V3)
    systems = [
        [x * x + y * y + z * z - 4, x * y - z],
        [x + 2 * y + 2 * z - 1, x * x + 2 * y * y + 2 * z * z - x,
         2 * x * y + 2 * y * z - y],
    ]
    for name in ("compass", "chebyshev", "watt"):
        systems.append(list(constraint_ideal(entry(name).spec).generators))
    for gens in systems:
        basis = buchberger(gens)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert reduce(spoly(basis[i], basis[j], GREVLEX), basis).is_zero
        for g in gens:
            assert reduce(g, basis).is_zero


def test_division_reexpansion_identity_exact():
    rng = random.Random(977)
    x, y, z = (MultiPoly.variable(V3, v) for v in V3)
    divisors = [x * x - y, y * z + 1, x + y + z]
    for _ in range(100):
        f = rand_poly(rng, max_terms=8, max_deg=4)
        quots, rem = divide(f, divisors)
        rebuilt = rem
        for q, d in zip(quots, divisors):
            rebuilt = rebuilt + q * d
        assert rebuilt == f


def test_factor_product_identity_exact(loci):
    for name in ("hart_inversor", "hart_aframe"):
        res = loci[name]
        prod = MultiPoly.const(res.locus.vars, 1)
        for f, mult in res.factors:
            prod = prod * f**mult
        assert prod * res.residual_cofactor == res.locus, name


# --- parts table, bit-exact rationals ---


def test_part_table_reproduced_bit_exact():
    parts, reqs = shipped()
    totals = {m: sum(c.values()) for m, c in reqs.items()}
    assert totals == {
        "compass": 3, "chebyshev": 12, "chebyshev_lambda": 10,
        "watt": 21, "hart_inversor": 14, "set": 24,
    }
    assert price(reqs["set"], "brickowl", parts) == F(1123, 1000)
    assert price(reqs["set"], "bricklink", parts) == F(253, 625)
    assert format_price(price(reqs["set"], "brickowl", parts)) == "1.1230"
    assert format_price(price(reqs["set"], "bricklink", parts)) == "0.4048"


# --- geometry diagnostic, factor-of-two band ---


def test_straight_window_sizes_match_published_hardware(traces):
    def span_mm(name):
        e = entry(name)
        stats = straightness_stats(traces[name], e.window)
        a, b, _ = stats.line
        ts = [
            -b * s.x + a * s.y for s in traces[name].windowed(e.window)
        ]
        return (max(ts) - min(ts)) * MM_PER_UNIT

    watt = span_mm("watt")
    hart = span_mm("hart_inversor")
    # claims: roughly 7 cm for Watt's window, about 2 cm for Hart's segment;
    # bar dimensions are reconstructions, so only the scale is checked
    assert 35.0 <= watt <= 140.0
    assert 10.0 <= hart <= 40.0
    assert hart < watt
