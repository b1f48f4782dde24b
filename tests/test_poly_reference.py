"""Packed monomial keys, the packed pair lcm, the degree guard, the integer
ring operations, cached substitution, the heap-driven division engine and
the packed linear substitution, checked against the tuple keys and lcms,
the Fraction term-map arithmetic, the per-term substitution loop, the
list-merge normal form and the coefficient-scanning linear substitution
they replaced, which are kept here as reference implementations."""

from fractions import Fraction as F
from itertools import islice, product
from math import gcd, lcm
from operator import add, mul, sub

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, reject, settings, strategies as st  # noqa: E402

from conftest import LEX, Lex, tuple_key  # noqa: E402
from linkagekit.catalog import entry, names  # noqa: E402
from linkagekit.locus import constraint_ideal  # noqa: E402
from linkagekit.poly import (  # noqa: E402
    DEGREE_LIMIT,
    GREVLEX,
    BlockElim,
    MultiPoly,
    VariableMismatchError,
    _guards,
    _lcm,
    _pack,
    _substitute_linear,
    _unpack,
    buchberger,
    divide,
)

# -- references --------------------------------------------------------------


def ref_grevlex_key(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


def ref_key(order, varnames):
    """The tuple key of each order, as the orders computed it before packing."""
    if isinstance(order, Lex):
        return lambda exp: tuple(exp)
    front = [i for i, v in enumerate(varnames) if v in order.front]
    back = [i for i, v in enumerate(varnames) if v not in order.front]
    return lambda exp: (
        ref_grevlex_key(tuple(exp[i] for i in front)),
        ref_grevlex_key(tuple(exp[i] for i in back)),
    )


def ref_add(p, q):
    """p + q on Fraction term maps."""
    acc = dict(p.terms)
    for e, c in q.terms:
        acc[e] = acc.get(e, F(0)) + c
    return MultiPoly(p.vars, acc)


def ref_mul(p, q):
    """p * q on Fraction term maps; a scalar q scales every coefficient."""
    if not isinstance(q, MultiPoly):
        return MultiPoly(p.vars, {e: k * F(q) for e, k in p.terms})
    acc = {}
    for e1, c1 in p.terms:
        for e2, c2 in q.terms:
            e = tuple(map(add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return MultiPoly(p.vars, acc)


def ref_restrict(p, varnames):
    """p over another variable list, one Fraction term at a time."""
    index = {v: i for i, v in enumerate(p.vars)}
    pos = [index.get(v) for v in varnames]
    kept = set(pos)
    acc = {}
    for exp, coeff in p.terms:
        if any(e and i not in kept for i, e in enumerate(exp)):
            raise VariableMismatchError("polynomial uses variables outside the restriction")
        acc[tuple(0 if i is None else exp[i] for i in pos)] = coeff
    return MultiPoly(tuple(varnames), acc)


def ref_content_and_primitive(p):
    """(content, primitive integer terms, grevlex-descending, lead positive),
    from p's Fraction terms sorted by the tuple key."""
    terms = sorted(p.terms, key=lambda t: ref_grevlex_key(t[0]), reverse=True)
    if not terms:
        return F(0), []
    den = lcm(*(c.denominator for _, c in terms))
    ints = [(e, int(c * den)) for e, c in terms]
    g = gcd(*(c for _, c in ints))
    if ints[0][1] < 0:
        g = -g
    return F(g, den), [(e, c // g) for e, c in ints]


def ref_text(p):
    pieces = []
    for i, (exp, c) in enumerate(ref_content_and_primitive(p)[1]):
        mono = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip(p.vars, exp) if e
        )
        body = str(abs(c)) if not mono else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        if i == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(pieces) or "0"


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
    out = MultiPoly(p.vars, {})
    for exp, coeff in p.terms:
        term = MultiPoly.const(p.vars, coeff)
        for b, e in zip(basis, exp):
            for _ in range(e):
                term = term * b
        out = out + term
    return out


class TooLong(Exception):
    """The reference division ran past its step allowance."""


def ref_shift_terms(t, shift, kshift):
    if not any(shift):
        return t
    return [(k + kshift, tuple(map(add, e, shift)), c) for k, e, c in t]


def ref_scale_merge(a, p, start, b, g, shift, kshift):
    """a*p[start:] + b*(x^shift * g[1:]), both sorted descending by key."""
    out = []
    q = ref_shift_terms(g, shift, kshift)
    i, j = start, 1
    while i < len(p) and j < len(q):
        kp, ep, cp = p[i]
        kq, eq, cq = q[j]
        if kp > kq:
            out.append((kp, ep, a * cp))
            i += 1
        elif kq > kp:
            out.append((kq, eq, b * cq))
            j += 1
        else:
            c = a * cp + b * cq
            if c:
                out.append((kp, ep, c))
            i += 1
            j += 1
    out.extend((k, e, a * c) for k, e, c in islice(p, i, None))
    out.extend((k, e, b * c) for k, e, c in islice(q, j, None))
    return out


def ref_normal_form(p, basis, degs, key, quots, max_steps):
    """Fraction-free normal form on (key, exponent tuple, int) term lists,
    rebuilding the whole work list at every reduction step."""
    rem, work, w, scale, steps = [], p, 0, 1, 0
    while w < len(work):
        kw, ew, cw = work[w]
        for i, g in enumerate(basis):
            if all(x >= y for x, y in zip(ew, g[0][1])):
                break
        else:
            rem.append(work[w])
            w += 1
            continue
        steps += 1
        if steps > max_steps:
            raise TooLong
        reducer = basis[i]
        _, eg, cg = reducer[0]
        m = gcd(cw, cg)
        a, b = cg // m, -(cw // m)
        if a < 0:
            a, b = -a, -b
        shift = tuple(map(sub, ew, eg))
        total = sum(shift) + degs[i]
        if total >= DEGREE_LIMIT:
            raise ValueError(
                f"total degree {total} of x^{shift} times a degree-{degs[i]} polynomial "
                f"reaches the limit 2^{DEGREE_LIMIT.bit_length() - 1} of the packed monomial keys"
            )
        work = ref_scale_merge(a, work, w + 1, b, reducer, shift, key(shift))
        w = 0
        if a != 1:
            scale *= a
            rem = [(k, e, c * a) for k, e, c in rem]
            for q in quots:
                for e in q:
                    q[e] *= a
        quots[i][shift] = -b
    return rem, scale


def ref_divide(p, divisors, order, max_steps=2000):
    """divide as it ran on the list-merge engine; raises TooLong after
    max_steps reduction steps."""
    key = tuple_key(order, p.vars)

    def int_terms(q):
        terms = sorted(((key(e), e, int(c)) for e, c in q.primitive().terms), reverse=True)
        return q.content, terms

    content, pt = int_terms(p)
    ints = [int_terms(g) for g in divisors]
    quots = [{} for _ in divisors]
    rem, scale = ref_normal_form(
        pt, [t for _, t in ints], [g.total_degree() for g in divisors], key, quots, max_steps
    )
    factor = content / scale
    return (
        [MultiPoly(p.vars, {e: factor / c * v for e, v in q.items()})
         for q, (c, _) in zip(quots, ints)],
        MultiPoly(p.vars, {e: factor * c for _, e, c in rem}),
    )


def ref_substitute_linear(gens, eliminable):
    """The linear substitution of eliminate, scanning each degree-1
    generator's coefficients variable by variable."""
    varnames = gens[0].vars
    work = list(gens)
    changed = True
    while changed:
        changed = False
        for g in work:
            if g.is_zero or g.total_degree() != 1:
                continue
            # pick the first eliminable variable with nonzero coefficient; one
            # already substituted away has coefficient 0 everywhere
            target = None
            for vi, v in enumerate(varnames):
                if v not in eliminable:
                    continue
                unit = tuple(1 if k == vi else 0 for k in range(len(varnames)))
                c = g.coefficient(unit)
                if c:
                    target = (v, unit, c)
                    break
            if target is None:
                continue
            v, unit, c = target
            rest = MultiPoly(varnames, {e: k for e, k in g.terms if e != unit})
            replacement = rest * F(-1, 1) * (1 / c)
            work = [h.subs(v, replacement) for h in work if h is not g]
            changed = True
            break
    return [h for h in work if not h.is_zero]


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
nonzero = st.builds(F, st.integers(1, 20) | st.integers(-20, -1), st.integers(1, 6))


def polys(varnames, max_deg=3, max_terms=5):
    mono = st.tuples(*[st.integers(0, max_deg)] * len(varnames))
    return st.dictionaries(mono, rationals, max_size=max_terms).map(
        lambda t: MultiPoly(varnames, t)
    )


@st.composite
def substitutions(draw):
    """(p, variable, replacement) over 1 to 12 variables, in small degrees."""
    varnames = tuple(f"v{i}" for i in range(draw(st.integers(1, 12))))
    rep = draw(polys(varnames, max_deg=2, max_terms=3) | rationals | st.integers(-3, 3))
    return draw(polys(varnames)), draw(st.sampled_from(varnames)), rep


@st.composite
def divisions(draw):
    """(p, divisors, order) over 1 to 12 variables. Some terms of p are
    divisor terms times a small monomial, so that reduction steps happen
    also where single exponents come close to 2^32."""
    varnames, order = draw(ring_and_order())
    n = len(varnames)

    def poly(max_terms):
        terms = draw(st.dictionaries(exponents(n), nonzero, min_size=1, max_size=max_terms))
        return MultiPoly(varnames, terms)

    divisors = [poly(4) for _ in range(draw(st.integers(1, 3)))]
    terms = dict(poly(5).terms)
    small = st.tuples(*[st.integers(0, 2)] * n)
    for g in divisors:
        for e, _ in draw(st.lists(st.sampled_from(g.terms), max_size=2)):
            e = tuple(map(add, e, draw(small)))
            if sum(e) < DEGREE_LIMIT:
                terms[e] = draw(nonzero)
    return MultiPoly(varnames, terms), divisors, order


@st.composite
def linear_systems(draw):
    """(gens, eliminable) over 1 to 6 variables: degree-1 generators with
    rational coefficients, higher-degree ones, and duplicates, some the same
    object and some equal copies."""
    varnames = tuple(f"v{i}" for i in range(draw(st.integers(1, 6))))
    n = len(varnames)
    monos = [tuple(int(k == i) for k in range(n)) for i in range(n)] + [(0,) * n]
    linear = st.dictionaries(st.sampled_from(monos), nonzero, min_size=1, max_size=n + 1)
    gens = draw(st.lists(linear.map(lambda t: MultiPoly(varnames, t)), min_size=1, max_size=3))
    gens += draw(st.lists(polys(varnames, max_deg=2, max_terms=3), max_size=3))
    for g in draw(st.lists(st.sampled_from(gens), max_size=2)):
        gens.append(g if draw(st.booleans()) else MultiPoly(varnames, g.as_dict()))
    return draw(st.permutations(gens)), draw(st.sets(st.sampled_from(varnames), min_size=1))


@st.composite
def ring_pairs(draw):
    """(p, q) over 1 to 12 variables, with mixed denominators and exponents
    up to the degree limit. Some terms of q are the negated terms of p, so
    that p + q cancels them, down to zero when all of them are."""
    n = draw(st.integers(1, 12))
    varnames = tuple(f"v{i}" for i in range(n))
    p = draw(st.dictionaries(exponents(n), nonzero, max_size=5))
    q = draw(st.dictionaries(exponents(n), nonzero, max_size=4))
    for e, c in p.items():
        if draw(st.booleans()):
            q[e] = -c
    return MultiPoly(varnames, p), MultiPoly(varnames, q)


def outcome(op, *args):
    """What op returned, or the message of the ValueError it raised."""
    try:
        return op(*args)
    except ValueError as exc:
        return str(exc)


# -- properties --------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_key_orders_like_tuple_key(data):
    varnames, order = data.draw(ring_and_order())
    vec = exponents(len(varnames))
    a, b, c = data.draw(vec), data.draw(vec), data.draw(vec)
    key, ref = tuple_key(order, varnames), ref_key(order, varnames)
    assert _sign(key(a), key(b)) == _sign(ref(a), ref(b))
    # and the lcms of a and b with c, of total degree up to 2^33 - 2, as the
    # Buchberger heap keys the pairs of a new basis element
    ac, bc = tuple(map(max, a, c)), tuple(map(max, b, c))
    assert _sign(key(ac), key(bc)) == _sign(ref(ac), ref(bc))


@pytest.mark.parametrize("n", [2, 4])
def test_packed_key_orders_lcm_range_extremes_like_tuple_key(n):
    # every field 0, 1 or near 2^32 with total degree up to 2^33 - 2, so that
    # one block's smallest step meets the other block's largest lcm range
    varnames = tuple(f"v{i}" for i in range(n))
    values = (0, 1, DEGREE_LIMIT - 2, DEGREE_LIMIT - 1)
    vecs = [e for e in product(values, repeat=n) if sum(e) <= 2 * DEGREE_LIMIT - 2]
    fronts = [tuple(v for v, m in zip(varnames, mask) if m) for mask in product((0, 1), repeat=n)]
    for order in [LEX] + [BlockElim(front) for front in fronts]:
        key, ref = tuple_key(order, varnames), ref_key(order, varnames)
        assert sorted(vecs, key=key) == sorted(vecs, key=ref), order


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_key_is_linear(data):
    varnames, order = data.draw(ring_and_order())
    vec = exponents(len(varnames), DEGREE_LIMIT // 2)
    a, b = data.draw(vec), data.draw(vec)
    key = tuple_key(order, varnames)
    assert key(tuple(x + y for x, y in zip(a, b))) == key(a) + key(b)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(*[st.tuples(*[st.integers(0, 3) | st.integers(0, DEGREE_LIMIT - 1)] * n)] * 2)
))
@example(((DEGREE_LIMIT - 1, 0, 1), (0, DEGREE_LIMIT - 1, 1)))
@example(((1, DEGREE_LIMIT - 1), (2, 0)))
def test_packed_lcm_and_coprime_test(pair):
    # fields up to 2^32 - 1, where a borrow between fields would show
    a, b = pair
    n = len(a)
    lcm = _lcm(_pack(a), _pack(b), _guards(n))
    assert _unpack(lcm, n) == tuple(map(max, a, b)) and lcm == _pack(_unpack(lcm, n))
    assert (lcm == _pack(a) + _pack(b)) == (not any(map(min, a, b)))


@settings(max_examples=300, deadline=None)
@given(ring_pairs(), rationals | st.integers(-3, 3))
@example((MultiPoly(("x", "y"), {(DEGREE_LIMIT // 2, 0): 1, (0, 1): F(-1, 2)}),) * 2, 0)
def test_ring_operations_match_term_map_reference(pair, s):
    p, q = pair
    assert p + q == ref_add(p, q)
    assert p - q == ref_add(p, ref_mul(q, -1))
    assert -p == ref_mul(p, -1)
    assert p * s == s * p == ref_mul(p, s)
    const = MultiPoly.const(p.vars, s)
    assert p + s == s + p == ref_add(p, const)
    assert p - s == ref_add(p, ref_mul(const, -1))
    assert s - p == ref_add(const, ref_mul(p, -1))
    # products of large exponents reach the degree guard, with the same message
    assert outcome(mul, p, q) == outcome(ref_mul, p, q)
    assert outcome(mul, p, p) == outcome(ref_mul, p, p)
    for r in (p, q, p + q):
        assert r.text() == ref_text(r)


@settings(max_examples=200, deadline=None)
@given(ring_pairs(), st.data())
def test_restrict_matches_reference(pair, data):
    p = pair[0] + pair[1]
    names = data.draw(st.lists(st.sampled_from(p.vars + ("w0", "w1")), unique=True))
    assert outcome(MultiPoly.restrict, p, names) == outcome(ref_restrict, p, names)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.dictionaries(exponents(n), rationals, max_size=6))
))
def test_canonical_form(case):
    n, terms = case
    p = MultiPoly(tuple(f"v{i}" for i in range(n)), terms)
    assert p.as_dict() == {e: F(c) for e, c in terms.items() if c}
    for r in (p, -p, p * F(-3, 4), p + F(1, 3)):
        prim = r.primitive()
        assert r.content * prim == r
        content, ints = ref_content_and_primitive(r)
        assert (r.content, prim.terms) == (content, tuple((e, F(c)) for e, c in ints))
        if not r.is_zero:
            coeffs = [c.numerator for _, c in prim.terms]
            assert all(c.denominator == 1 for _, c in prim.terms)
            assert gcd(*coeffs) == 1 and coeffs[0] > 0
        again = MultiPoly(r.vars, r.as_dict())
        assert again == r and hash(again) == hash(r)


@settings(max_examples=200, deadline=None)
@given(substitutions())
def test_subs_matches_reference(case):
    p, var, rep = case
    assert p.subs(var, rep) == ref_subs(p, {var: rep})


@given(substitutions())
def test_subs_without_the_variable_returns_the_polynomial(case):
    # a polynomial free of the variable comes back as the same object, equal
    # to the reference substitution; the argument checks still run first
    p, var, rep = case
    p = p.subs(var, 0)
    assert p.subs(var, rep) is p
    assert p == ref_subs(p, {var: rep})
    with pytest.raises(VariableMismatchError):
        p.subs(var, MultiPoly(p.vars + ("w",), {}))
    with pytest.raises(ValueError):
        p.subs("w", rep)


def test_degree_guard_in_subs():
    # the first term whose product reaches the limit names its top monomial
    x, y = (MultiPoly.variable(("x", "y"), v) for v in ("x", "y"))
    p = x**2 * y + x * MultiPoly(("x", "y"), {(0, DEGREE_LIMIT - 2): 1})
    with pytest.raises(ValueError, match=r"total degree 4294967296 of \(0, 4294967296\)"):
        p.subs("x", y * y)
    # one degree less passes
    assert p.subs("x", y) == MultiPoly(("x", "y"), {(0, 3): 1, (0, DEGREE_LIMIT - 1): 1})


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


@settings(max_examples=80, deadline=None)
@given(linear_systems())
def test_substitute_linear_matches_reference(case):
    gens, eliminable = case
    assert _substitute_linear(gens, eliminable) == ref_substitute_linear(gens, eliminable)


@pytest.mark.parametrize("name", names())
def test_substitute_linear_matches_reference_on_catalog(name):
    gens = list(constraint_ideal(entry(name).spec).generators)
    eliminable = set(gens[0].vars) - {"x", "y"}
    assert _substitute_linear(gens, eliminable) == ref_substitute_linear(gens, eliminable)


@settings(max_examples=150, deadline=None)
@given(divisions())
def test_divide_matches_list_merge_reference(case):
    p, divisors, order = case
    try:
        expected = outcome(ref_divide, p, divisors, order)
    except TooLong:
        reject()  # a long reduction chain, say x^(2^31) by x - 1
    assert outcome(divide, p, divisors, order) == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_monomial_divides_exactly_when_every_exponent_does(data):
    varnames, order = data.draw(ring_and_order())
    a, b = data.draw(exponents(len(varnames))), data.draw(exponents(len(varnames)))
    quotient, rem = divide(MultiPoly(varnames, {a: 3}), [MultiPoly(varnames, {b: 2})], order)
    if all(x >= y for x, y in zip(a, b)):
        assert rem.is_zero
        assert quotient == [MultiPoly(varnames, {tuple(map(sub, a, b)): F(3, 2)})]
    else:
        assert rem == MultiPoly(varnames, {a: 3})
        assert quotient[0].is_zero


@pytest.mark.parametrize("n", [2, 3, 12])
@pytest.mark.parametrize("k", [1, 2, 2**31, DEGREE_LIMIT - 1])
def test_no_borrow_across_exponent_fields(n, k):
    """A lead in one variable never divides a power of another, however
    large: a borrow from a neighbouring field would fake that divisibility."""
    names = tuple(f"v{i}" for i in range(n))
    for order in (GREVLEX, LEX, BlockElim(names[:1]), BlockElim(names[1:])):
        for i in range(n):
            power = MultiPoly(names, {tuple(k if m == i else 0 for m in range(n)): 1})
            for j in range(n):
                if j == i:
                    continue
                lead = MultiPoly.variable(names, names[j])
                quotient, rem = divide(power, [lead, lead + 1], order)
                assert rem == power and all(q.is_zero for q in quotient)


@pytest.mark.parametrize("exp", [
    (DEGREE_LIMIT - 1,), (0, DEGREE_LIMIT - 1), (DEGREE_LIMIT - 1, 0, 0),
    (2**31, 2**31 - 1), (1, 1, DEGREE_LIMIT - 3), (3,) * 12,
])
def test_equal_monomials_divide(exp):
    names = tuple(f"v{i}" for i in range(len(exp)))
    m = MultiPoly(names, {exp: 5})
    for order in (GREVLEX, LEX, BlockElim(names[-1:])):
        quotient, rem = divide(m, [m], order)
        assert rem.is_zero and quotient == [MultiPoly.const(names, 1)]
        # and inside a Groebner basis: the duplicate generator goes
        assert buchberger([m, m * 2], order) == [MultiPoly(names, {exp: 1})]
