"""Polynomial kernel: arithmetic laws, division, Groebner bases, elimination."""

import random
from fractions import Fraction as F
from operator import add, mul, sub

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import LEX, leading_term, reduce, spoly, sympy_divide, to_sympy, tuple_key
from linkagekit.catalog import entry
from linkagekit.locus import constraint_ideal
from linkagekit.poly import (
    BlockElim,
    GREVLEX,
    MultiPoly,
    PairBudgetExceededError,
    VariableMismatchError,
    buchberger,
    divide,
    eliminate,
)

V3 = ("x", "y", "z")


def mono(e, c=1, varnames=V3):
    return MultiPoly(varnames, {tuple(e): F(c)})


X, Y, Z = mono((1, 0, 0)), mono((0, 1, 0)), mono((0, 0, 1))
ONE = mono((0, 0, 0))


def random_poly(rng, varnames=V3, max_terms=4, max_deg=3, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in varnames)
        c = F(rng.randint(-max_coeff, max_coeff), rng.randint(1, 4))
        terms[e] = terms.get(e, F(0)) + c
    return MultiPoly(varnames, terms)


def test_ring_axioms_on_random_triples():
    rng = random.Random(20260816)
    for _ in range(1000):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + MultiPoly(a.vars, {}) == a
        assert (a - a).is_zero
        assert a * ONE == a


def test_text_normal_form():
    p = 2 * X * X + 3 * Y - ONE * 6
    assert p.text() == "2*x^2 + 3*y - 6"
    assert MultiPoly(V3, {}).text() == "0"
    assert (X * Y * Y - Z).text() == "x*y^2 - z"


def test_orders_rank_leading_terms():
    p = X * Y * Y + X * X  # grevlex: x*y^2 (deg 3) over x^2
    assert leading_term(p, GREVLEX)[0] == (1, 2, 0)
    assert leading_term(p, LEX)[0] == (2, 0, 0)
    front = tuple_key(BlockElim(("y",)), V3)
    assert front((0, 1, 0)) > front((3, 0, 2))  # any y beats y-free monomials


def test_variable_mismatch_raises():
    q = MultiPoly(("u", "v"), {(1, 0): F(1)})
    with pytest.raises(VariableMismatchError):
        X + q


@pytest.mark.parametrize("other", [0.5, 1.0, "1", None, [1]], ids=repr)
@pytest.mark.parametrize("op", [add, sub, mul])
def test_unsupported_operands_raise_type_error(op, other):
    # neither side can take the other: no float enters a coefficient
    for a, b in ((X, other), (other, X)):
        with pytest.raises(TypeError):
            op(a, b)


def test_division_reexpansion_random():
    rng = random.Random(7)
    divisors = [X * Y - Z, Y * Y - ONE, X * X * X - Y]
    for _ in range(200):
        f = random_poly(rng, max_terms=6)
        qs, r = divide(f, divisors, GREVLEX)
        acc = r
        for q, d in zip(qs, divisors):
            acc = acc + q * d
        assert acc == f
        # no remainder term is divisible by any divisor lead
        for e, _ in r.terms:
            for d in divisors:
                lead = leading_term(d, GREVLEX)[0]
                assert not all(a >= b for a, b in zip(e, lead))


def test_division_matches_sympy_reduced():
    pytest.importorskip("sympy")
    rng = random.Random(4711)
    cases = 0
    while cases < 300:
        f = random_poly(rng, max_terms=6)
        divisors = [random_poly(rng, max_terms=3, max_deg=2) for _ in range(rng.randint(1, 3))]
        if f.is_zero or any(d.is_zero for d in divisors):
            continue
        cases += 1
        qs, r = divide(f, divisors, GREVLEX)
        assert ([q.as_dict() for q in qs], r.as_dict()) == sympy_divide(f, divisors)


def test_spoly_cancels_leads():
    f = X * X + Y
    g = X * Y + Z
    s = spoly(f, g, GREVLEX)
    assert s == Y * Y - X * Z


def _gb_is_sound(gens, order=GREVLEX):
    basis = buchberger(gens, order)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert reduce(spoly(basis[i], basis[j], order), basis, order).is_zero
    # every input generator reduces to zero against the basis
    for g in gens:
        assert reduce(g, basis, order).is_zero
    return basis


def test_buchberger_toy_ideals():
    _gb_is_sound([X * X + Y * Y + Z * Z - ONE * 4, X * Y - Z])
    _gb_is_sound([X * X - Y, X * X * X - Z], LEX)
    katsura = [
        X + 2 * Y + 2 * Z - ONE,
        X * X + 2 * Y * Y + 2 * Z * Z - X,
        2 * X * Y + 2 * Y * Z - Y,
    ]
    _gb_is_sound(katsura)


def test_buchberger_deterministic():
    gens = [X * X + Y * Y + Z * Z - ONE * 4, X * Y - Z]
    a = [p.text() for p in buchberger(gens)]
    b = [p.text() for p in buchberger(list(reversed(gens)))]
    assert a == b


def test_eliminate_cuspidal_cubic():
    W = ("t", "x", "y")
    t = mono((1, 0, 0), varnames=W)
    x = mono((0, 1, 0), varnames=W)
    y = mono((0, 0, 1), varnames=W)
    out = eliminate([x - t * t, y - t * t * t], ("x", "y"))
    assert [p.text() for p in out] == ["x^3 - y^2"]
    assert out[0].vars == ("x", "y")


def test_eliminate_stages_more_than_two_vars():
    # u, v, w all eliminated; staged runs must agree with the known resultant
    U = ("u", "v", "w", "x", "y")
    u = mono((1, 0, 0, 0, 0), varnames=U)
    v = mono((0, 1, 0, 0, 0), varnames=U)
    w = mono((0, 0, 1, 0, 0), varnames=U)
    x = mono((0, 0, 0, 1, 0), varnames=U)
    y = mono((0, 0, 0, 0, 1), varnames=U)
    gens = [x - u - v, y - u * v, w - u + v, w * w - x * x + 4 * y]
    out = eliminate(gens, ("x", "y"))
    assert out == []  # last generator is implied, ideal eliminates to zero

    gens = [x - u - v, y - u * v, w - u + v]
    out = eliminate(gens, ("w", "x", "y"))
    assert [p.text() for p in out] == ["w^2 - x^2 + 4*y"]


def test_eliminate_keep_everything_reduces():
    out = eliminate([X * X + Y, X * X + Z], ("x", "y", "z"))
    texts = {p.text() for p in out}
    assert "y - z" in texts


def test_eliminate_unknown_keep_raises():
    with pytest.raises(VariableMismatchError):
        eliminate([X + Y], ("x", "q"))


def test_pair_budget_exhaustion():
    rng = random.Random(3)
    gens = [random_poly(rng, max_terms=5, max_deg=4) for _ in range(6)]
    with pytest.raises(PairBudgetExceededError) as ei:
        buchberger(gens, GREVLEX, pair_budget=2)
    assert ei.value.budget == 2
    assert ei.value.used == 2


def test_negative_pair_budget_rejected():
    gens = [X * X + Y, X * Y - Z]
    with pytest.raises(ValueError, match="non-negative"):
        buchberger(gens, GREVLEX, pair_budget=-1)
    with pytest.raises(ValueError, match="non-negative"):
        eliminate(gens, ("y", "z"), pair_budget=-5)
    assert buchberger([X + Y], GREVLEX, pair_budget=0)  # no pair to process


def test_budget_is_shared_across_stages():
    # generous budget succeeds; the same system under a tiny shared budget fails
    U = ("u", "v", "w", "x", "y")
    u = mono((1, 0, 0, 0, 0), varnames=U)
    v = mono((0, 1, 0, 0, 0), varnames=U)
    w = mono((0, 0, 1, 0, 0), varnames=U)
    x = mono((0, 0, 0, 1, 0), varnames=U)
    y = mono((0, 0, 0, 0, 1), varnames=U)
    gens = [
        u * u + v * v - mono((0, 0, 0, 0, 0), 9, U),
        v * v + w * w - x,
        u * v * w - y,
        u + v + w - x - y,
    ]
    eliminate(gens, ("x", "y"), pair_budget=200_000)
    with pytest.raises(PairBudgetExceededError) as ei:
        eliminate(gens, ("x", "y"), pair_budget=3)
    assert (ei.value.stage, ei.value.used) == ("dropping v, w", 3)
    assert "while dropping v, w (3 pairs used)" in str(ei.value)
    # hart_inversor drops D first (496 pairs), then P (78): each stage fits
    # in 550 pairs alone, but their shared budget runs out in the second
    hart = constraint_ideal(entry("hart_inversor").spec).generators
    with pytest.raises(PairBudgetExceededError) as ei:
        eliminate(hart, ("x", "y"), pair_budget=550)
    assert (ei.value.stage, ei.value.used) == ("dropping P_x, P_y", 550)


def test_stage_drops_the_cheapest_variables():
    # a costs 2 terms, b and c 7 each: a goes, and the tie goes to the later c
    R = ("a", "b", "c", "x", "y")
    a, b, c, x, y = (mono(tuple(int(i == k) for i in range(5)), varnames=R) for k in range(5))
    gens = [a * a - x, b * b + c * c + x * x + y * y - mono((0,) * 5, 1, R), b * c - y]
    with pytest.raises(PairBudgetExceededError) as ei:
        eliminate(gens, ("x", "y"), pair_budget=0)
    assert ei.value.stage == "dropping a, c"


def test_primitive_and_content():
    p = 6 * X * Y - 9 * Z
    assert p.primitive().text() == "2*x*y - 3*z"
    q = MultiPoly(V3, {(1, 0, 0): F(3, 4), (0, 0, 0): F(9, 8)})
    assert q.primitive().text() == "2*x + 3"


def test_subs_polynomial_replacement():
    p = X * X + Y
    assert p.subs("x", Y + Z) == (Y + Z) * (Y + Z) + Y


def test_restrict_checks_usage():
    p = X + Y
    with pytest.raises(VariableMismatchError):
        p.restrict(("x",))
    assert (X + ONE).restrict(("x",)).vars == ("x",)
    # widening: a variable new to the polynomial gets exponent 0, and
    # restricting back gives the polynomial again
    wide = (X * Y + Z * 3).restrict(("w", "z", "y", "x"))
    assert wide.vars == ("w", "z", "y", "x")
    assert wide.as_dict() == {(0, 0, 1, 1): 1, (0, 1, 0, 0): 3}
    assert wide.restrict(V3) == X * Y + Z * 3


_RING = ("a", "b", "c", "d", "e")


@st.composite
def _systems(draw):
    """2 to 4 generators over 3 to 5 variables, with a non-empty kept set."""
    ring = _RING[: draw(st.integers(3, 5))]
    exps = st.tuples(*(st.integers(0, 2) for _ in ring))
    term = st.tuples(exps, st.integers(-3, 3))
    gens = [
        MultiPoly(ring, dict(draw(st.lists(term, min_size=1, max_size=3))))
        for _ in range(draw(st.integers(2, 4)))
    ]
    keep = draw(st.lists(st.sampled_from(ring), min_size=1, unique=True))
    return ring, gens, keep


@settings(max_examples=100, deadline=None)
@given(_systems())
def test_staging_matches_one_block_order_run(system):
    # elimination ideals compose and a reduced basis is unique, so the staged
    # eliminate equals the kept-only part of one run under the full block order
    ring, gens, keep = system
    kept = tuple(v for v in ring if v in keep)
    try:
        staged = eliminate(gens, keep, pair_budget=60)
        full = buchberger(gens, BlockElim(tuple(v for v in ring if v not in keep)), pair_budget=60)
    except PairBudgetExceededError:
        assume(False)
    used = [{v for e, _ in g.terms for v, k in zip(ring, e) if k} for g in full]
    assert staged == [g.restrict(kept) for g, u in zip(full, used) if u <= set(kept)]


@settings(max_examples=100, deadline=None)
@given(_systems())
def test_eliminate_matches_sympy_lex_basis(system):
    # the elements of a lex basis free of the dropped variables generate the
    # elimination ideal (Cox, Little and O'Shea, ch. 3 section 1)
    sympy = pytest.importorskip("sympy")
    ring, gens, keep = system
    kept = [v for v in ring if v in keep]
    dropped = [v for v in ring if v not in keep]
    try:
        ours = eliminate(gens, keep, pair_budget=60)
    except PairBudgetExceededError:
        assume(False)
    lex_vars = sympy.symbols(dropped + kept)
    lex = sympy.groebner([to_sympy(g) for g in gens if not g.is_zero], *lex_vars, order="lex")
    theirs = [p for p in lex.exprs if not p.free_symbols & set(lex_vars[: len(dropped)])]
    assert bool(ours) == bool(theirs)
    for g in ours:
        assert g.vars == tuple(kept) and g == g.primitive()
        assert all(c.denominator == 1 for _, c in g.terms)
        _, rem = sympy.reduced(to_sympy(g), theirs, *lex_vars, order="lex")
        assert rem == 0
    for p in theirs:
        _, rem = sympy.reduced(p, [to_sympy(g) for g in ours], *sympy.symbols(kept),
                               order="grevlex")
        assert rem == 0
