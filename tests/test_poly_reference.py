"""Packed monomial keys, the degree guard and cached substitution, checked
against the tuple keys and the per-term substitution loop they replaced,
which are kept here as reference implementations."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from linkagekit.poly import (  # noqa: E402
    DEGREE_LIMIT,
    GREVLEX,
    LEX,
    BlockElim,
    GrevLex,
    Lex,
    MultiPoly,
    buchberger,
    divide,
)

# -- references --------------------------------------------------------------


def ref_grevlex_key(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


def ref_key(order, varnames):
    """The tuple key of each order, as the orders computed it before packing."""
    if isinstance(order, GrevLex):
        return ref_grevlex_key
    if isinstance(order, Lex):
        return lambda exp: tuple(exp)
    front = [i for i, v in enumerate(varnames) if v in order.front]
    back = [i for i, v in enumerate(varnames) if v not in order.front]
    return lambda exp: (
        ref_grevlex_key(tuple(exp[i] for i in front)),
        ref_grevlex_key(tuple(exp[i] for i in back)),
    )


def ref_subs(p, replacements):
    """Substitution one MultiPoly product at a time."""
    basis = []
    for v in p.vars:
        rep = replacements.get(v)
        if rep is None:
            basis.append(MultiPoly.variable(p.vars, v))
        elif isinstance(rep, MultiPoly):
            basis.append(rep)
        else:
            basis.append(MultiPoly.const(p.vars, rep))
    out = MultiPoly.zero(p.vars)
    for exp, coeff in p.terms:
        term = MultiPoly.const(p.vars, coeff)
        for b, e in zip(basis, exp):
            for _ in range(e):
                term = term * b
        out = out + term
    return out


# -- strategies --------------------------------------------------------------


def _sign(a, b):
    return (a > b) - (a < b)


@st.composite
def ring_and_order(draw):
    n = draw(st.integers(1, 12))
    varnames = tuple(f"v{i}" for i in range(n))
    front = draw(st.sets(st.sampled_from(varnames)))
    order = draw(st.sampled_from([GREVLEX, LEX, BlockElim(tuple(sorted(front)))]))
    return varnames, order


def exponents(n, limit=DEGREE_LIMIT):
    """Exponent vectors of n variables with total degree below limit. Small
    entries make ties in the leading comparisons common; large ones are
    clipped in turn, so one entry alone can come close to the limit."""

    def clip(v):
        room, out = limit - 1, []
        for e in v:
            out.append(min(e, room))
            room -= out[-1]
        return tuple(out)

    return st.tuples(*[st.integers(0, 3) | st.integers(0, limit - 1)] * n).map(clip)


rationals = st.builds(F, st.integers(-20, 20), st.integers(1, 6))
V3 = ("x", "y", "z")


def polys(max_deg=3, max_terms=5):
    mono = st.tuples(*[st.integers(0, max_deg)] * len(V3))
    return st.dictionaries(mono, rationals, max_size=max_terms).map(
        lambda t: MultiPoly(V3, t)
    )


# -- properties --------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_key_orders_like_tuple_key(data):
    varnames, order = data.draw(ring_and_order())
    vec = exponents(len(varnames))
    a, b = data.draw(vec), data.draw(vec)
    key, ref = order.key(varnames), ref_key(order, varnames)
    assert _sign(key(a), key(b)) == _sign(ref(a), ref(b))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_key_is_linear(data):
    varnames, order = data.draw(ring_and_order())
    vec = exponents(len(varnames), DEGREE_LIMIT // 2)
    a, b = data.draw(vec), data.draw(vec)
    key = order.key(varnames)
    assert key(tuple(x + y for x, y in zip(a, b))) == key(a) + key(b)


@settings(max_examples=200, deadline=None)
@given(
    polys(),
    st.dictionaries(
        st.sampled_from(V3),
        polys(max_deg=2, max_terms=3) | rationals | st.integers(-3, 3),
        max_size=3,
    ),
)
def test_subs_matches_reference(p, replacements):
    assert p.subs(replacements) == ref_subs(p, replacements)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(0, DEGREE_LIMIT), min_size=n, max_size=n)
))
@example(parts=[0, 1])
def test_degree_guard_at_limit(parts):
    assert DEGREE_LIMIT == 2**32  # the bound the poly docstring states
    # spread the limit over the variables, then stay one below it
    exp = [p * DEGREE_LIMIT // max(sum(parts), 1) for p in parts]
    exp[0] += DEGREE_LIMIT - sum(exp)
    names = tuple(f"v{i}" for i in range(len(exp)))
    with pytest.raises(ValueError, match="reaches the limit"):
        MultiPoly(names, {tuple(exp): 1})
    exp[next(i for i, e in enumerate(exp) if e)] -= 1
    MultiPoly(names, {tuple(exp): 1})


def test_degree_guard_in_products_and_engine():
    half = DEGREE_LIMIT // 2
    x_half = MultiPoly(("x", "y"), {(half, 0): 1})
    with pytest.raises(ValueError, match="reaches the limit"):
        x_half * x_half
    # under lex a reducer's tail may outweigh its lead in degree
    x = MultiPoly(("x", "y"), {(1, 0): 1})
    tail = MultiPoly(("x", "y"), {(0, DEGREE_LIMIT - 1): 1})
    g = x - tail
    _, r = divide(x, [g], LEX)
    assert r == tail
    # dividing x^2 by g and tail would pass through x*tail, of degree 2^32,
    # and end with a zero remainder: the engine refuses the first shift
    with pytest.raises(ValueError, match=r"x\^\(1, 0\) times a degree-4294967295"):
        divide(x * x, [g, tail], LEX)
    # the S-polynomial of g and x*z shifts g by z, g first or second in the pair
    xz = MultiPoly(("x", "y", "z"), {(1, 0, 1): 1})
    g3 = MultiPoly(xz.vars, {(1, 0, 0): 1, (0, DEGREE_LIMIT - 1, 0): -1})
    for gens in ([g3, xz], [xz, g3]):
        with pytest.raises(ValueError, match=r"x\^\(0, 0, 1\) times a degree-4294967295"):
            buchberger(gens, LEX)
