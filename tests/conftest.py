"""Shared fixtures and helpers. Catalog traces and locus results are computed
once per run. to_sympy and sympy_divide serve oracle tests, which skip
themselves when sympy is missing. leading_term, spoly and reduce are plain
rational references, independent of poly's integer engine, for checking the
bases it produces; Lex, evaluate, reflect, scaled and solve serve tests
only, so the package does not carry them."""

from dataclasses import replace
from fractions import Fraction as F
from operator import mul

import pytest

from linkagekit import solver
from linkagekit.catalog import entry, names
from linkagekit.locus import locus_equation
from linkagekit.model import Configuration
from linkagekit.poly import DEGREE_LIMIT, GREVLEX, MultiPoly
from linkagekit.solver import SolveStats, SolverSettings, trace


def catalog_trace(name: str, settings: SolverSettings = None, sweep=None):
    e = entry(name)
    lo, hi = sweep if sweep is not None else e.sweep
    return trace(
        e.spec, lo, hi, settings or SolverSettings(),
        seed=e.seed_config(), seed_theta=e.theta_ref,
    )


@pytest.fixture(scope="session")
def traces():
    return {name: catalog_trace(name) for name in names()}


@pytest.fixture(scope="session")
def loci():
    return {name: locus_equation(entry(name).spec) for name in names()}


def to_sympy(q):
    """q as a sympy expression in symbols named by its variables."""
    import sympy

    gens = sympy.symbols(q.vars)
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(g**k for g, k in zip(gens, e)))
        for e, c in q.terms
    ))


def sympy_divide(p, divisors):
    """sympy.reduced under grevlex, as term dicts comparable with MultiPoly.as_dict():
    (one dict per quotient, remainder dict)."""
    import sympy

    gens = sympy.symbols(p.vars)

    def terms(expr):
        poly = sympy.Poly(expr, *gens, domain="QQ")
        return {e: F(int(c.p), int(c.q)) for e, c in poly.as_dict().items() if c}

    quots, rem = sympy.reduced(
        to_sympy(p), [to_sympy(d) for d in divisors], *gens, order="grevlex"
    )
    return [terms(q) for q in quots], terms(rem)


class Lex:
    """Pure lexicographic order as a weight order: variable i of n weighs
    DEGREE_LIMIT^(n-1-i), so the packed keys compare like exponent tuples."""

    def key(self, varnames):
        n = len(varnames)
        weights = tuple(DEGREE_LIMIT ** (n - 1 - i) for i in range(n))
        return lambda exp: sum(map(mul, exp, weights))


LEX = Lex()


def evaluate(p, point):
    """p at a point of floats, keyed by variable name."""
    vals = [float(point[v]) for v in p.vars]
    total = 0.0
    for exp, coeff in p.terms:
        term = float(coeff)
        for v, e in zip(vals, exp):
            if e:
                term = term * v**e
        total += term
    return total


def leading_term(p, order=GREVLEX):
    """(exponents, coefficient) of p's greatest term under order."""
    if not p.terms:
        raise ValueError("zero polynomial has no leading term")
    key = order.key(p.vars)
    return max(p.terms, key=lambda t: key(t[0]))


def spoly(f, g, order=GREVLEX):
    """S-polynomial: the lead-cancelling combination of f and g."""
    ef, cf = leading_term(f, order)
    eg, cg = leading_term(g, order)
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    mf = MultiPoly(f.vars, {tuple(m - a for m, a in zip(lcm, ef)): 1 / cf})
    mg = MultiPoly(g.vars, {tuple(m - a for m, a in zip(lcm, eg)): 1 / cg})
    return mf * f - mg * g


def reduce(p, basis, order=GREVLEX):
    """Remainder of p on division by the nonzero basis elements, by the
    textbook algorithm over the rationals, one MultiPoly operation a step."""
    divisors = [(leading_term(g, order), g) for g in basis if not g.is_zero]
    rem = MultiPoly(p.vars, {})
    while not p.is_zero:
        e, c = leading_term(p, order)
        for (eg, cg), g in divisors:
            if all(a >= b for a, b in zip(e, eg)):
                shift = tuple(a - b for a, b in zip(e, eg))
                p = p - MultiPoly(p.vars, {shift: c / cg}) * g
                break
        else:
            lead = MultiPoly(p.vars, {e: c})
            rem, p = rem + lead, p - lead
    return rem


def reflect(config, joint, across):
    """config with one joint mirrored across the line through two others,
    a seed for the assembly branch the joint does not sit on."""
    (px, py), (ax, ay), (bx, by) = config[joint], config[across[0]], config[across[1]]
    dx, dy = bx - ax, by - ay
    t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
    return Configuration({**config.positions,
                          joint: (2 * (ax + t * dx) - px, 2 * (ay + t * dy) - py)})


def solve(spec, theta, seed):
    """The configuration, anchors included, that one Newton call from seed
    reaches with the driver at theta, or None where the call fails."""
    comp = solver._compile(spec)
    x, _, ok = solver._newton(comp, theta, comp.to_vec(seed), SolverSettings(), SolveStats())
    if not ok:
        return None
    v = x.tolist()
    anchors = {j.id: (float(j.anchor[0]), float(j.anchor[1])) for j in spec.anchored_joints}
    return Configuration({**anchors, **dict(zip(comp.free, zip(v[::2], v[1::2])))})


def scaled(spec, factor):
    """spec with every length and anchor coordinate multiplied by factor."""
    return replace(
        spec,
        joints=tuple(
            replace(j, anchor=(j.anchor[0] * factor, j.anchor[1] * factor)) if j.is_anchored else j
            for j in spec.joints
        ),
        bars=tuple(replace(b, length=b.length * factor) for b in spec.bars),
    )
