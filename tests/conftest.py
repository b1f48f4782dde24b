"""Shared fixtures and helpers. Catalog traces and locus results are computed
once per run. sympy_divide serves oracle tests, which skip themselves when
sympy is missing."""

from fractions import Fraction as F

import pytest

from linkagekit.catalog import entry, names
from linkagekit.locus import locus_equation
from linkagekit.solver import SolverSettings, trace


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


def sympy_divide(p, divisors):
    """sympy.reduced under grevlex, as term dicts comparable with MultiPoly.as_dict():
    (one dict per quotient, remainder dict)."""
    import sympy

    gens = sympy.symbols(p.vars)

    def to_sympy(q):
        return sympy.Add(*(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(g**k for g, k in zip(gens, e)))
            for e, c in q.terms
        ))

    def terms(expr):
        poly = sympy.Poly(expr, *gens, domain="QQ")
        return {e: F(int(c.p), int(c.q)) for e, c in poly.as_dict().items() if c}

    quots, rem = sympy.reduced(
        to_sympy(p), [to_sympy(d) for d in divisors], *gens, order="grevlex"
    )
    return [terms(q) for q in quots], terms(rem)
