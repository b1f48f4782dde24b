"""Shared fixtures and helpers. Catalog traces and locus results are computed
once per run. to_sympy and sympy_divide serve oracle tests, which skip
themselves when sympy is missing. leading_term, spoly and reduce are plain
rational references, independent of poly's integer engine, for checking the
bases it produces; Lex, evaluate, reflect, scaled, moved, solve and the generated
four-bars (four_bar, four_bars) serve tests only, so the package does not
carry them."""

import math
import random
from dataclasses import replace
from fractions import Fraction as F
from operator import mul

import pytest

from linkagekit import solver
from linkagekit.catalog import entry, names
from linkagekit.locus import locus_equation
from linkagekit.model import Bar, Configuration, Driver, Joint, LinkageSpec, Tracer
from linkagekit.poly import DEGREE_LIMIT, GREVLEX, MultiPoly, _pack, _unpack
from linkagekit.solver import SolveStats, SolverSettings, trace


def catalog_trace(name: str, settings: SolverSettings = None, sweep=None):
    e = entry(name)
    lo, hi = sweep if sweep is not None else e.sweep
    return trace(
        e.spec, lo, hi, settings or SolverSettings(),
        seed=e.seed, seed_theta=e.theta_ref,
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
    DEGREE_LIMIT^(n-1-i), so the keys of packed exponents compare like
    exponent tuples."""

    def key(self, varnames):
        n = len(varnames)
        weights = tuple(DEGREE_LIMIT ** (n - 1 - i) for i in range(n))
        return lambda p: sum(map(mul, _unpack(p, n), weights))


LEX = Lex()


def tuple_key(order, varnames):
    """order's key on exponent tuples."""
    key = order.key(varnames)
    return lambda exp: key(_pack(exp))


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
    key = tuple_key(order, p.vars)
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
    return Configuration({**config,
                          joint: (2 * (ax + t * dx) - px, 2 * (ay + t * dy) - py)})


def solve(spec, theta, seed):
    """The configuration, anchors included, that one Newton call from seed
    reaches with the driver at theta, or None where the call fails."""
    comp = solver._compile(spec)
    x, _, ok = solver._newton(comp, theta, comp.to_vec(seed), SolverSettings(), SolveStats())
    if not ok:
        return None
    # x is in the solver's frame: a framed point p is origin + unit * p
    (ox, oy), u = comp.origin, comp.unit
    anchors = {j.id: (float(j.anchor[0]), float(j.anchor[1])) for j in spec.anchored_joints}
    free = {j: (ox + u * px, oy + u * py) for j, px, py in zip(comp.free, x[::2], x[1::2])}
    return Configuration({**anchors, **free})


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


def moved(spec, offset):
    """spec with every anchor moved offset along x."""
    return replace(spec, joints=tuple(
        replace(j, anchor=(j.anchor[0] + offset, j.anchor[1])) if j.is_anchored else j
        for j in spec.joints
    ))


def four_bar(rng):
    """A four-bar with rational bars between 1 and 40, many of them
    non-Grashof, and a seed assembled at a random crank angle theta:
    (spec, seed, theta), or None where it does not assemble."""
    d, a, b, c = (F(rng.randint(4, 40), rng.randint(1, 4)) for _ in range(4))
    theta = rng.uniform(0, 2 * math.pi)
    p = (float(a) * math.cos(theta), float(a) * math.sin(theta))
    dx, dy = float(d) - p[0], -p[1]
    dist = math.hypot(dx, dy)
    along = (dist**2 + float(b) ** 2 - float(c) ** 2) / (2 * dist)
    if along**2 >= float(b) ** 2:
        return None
    h = math.sqrt(float(b) ** 2 - along**2)
    q = (p[0] + (along * dx - h * dy) / dist, p[1] + (along * dy + h * dx) / dist)
    spec = LinkageSpec(
        name="four_bar",
        joints=(Joint("A", (F(0), F(0))), Joint("B", (d, F(0))),
                Joint("P", None), Joint("Q", None)),
        bars=(Bar("crank", "A", "P", a), Bar("coupler", "P", "Q", b),
              Bar("rocker", "B", "Q", c)),
        driver=Driver("crank"),
        tracer=Tracer(bar="coupler", offset=F(rng.randint(-4, 8), 4)),
    )
    return spec, Configuration({"A": (0.0, 0.0), "B": (float(d), 0.0), "P": p, "Q": q}), theta


def four_bars(seeds):
    """The generated four-bars that assemble, 50 draws per seed."""
    out = []
    for seed in seeds:
        rng = random.Random(seed)
        out += [fb for fb in (four_bar(rng) for _ in range(50)) if fb is not None]
    return out
