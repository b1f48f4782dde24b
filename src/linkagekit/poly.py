"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is its content, a rational (0 for the zero polynomial), times
its primitive part: integer terms with coprime coefficients and a positive
lead, sorted strictly descending under graded reverse lexicographic order.
The form is canonical, and the ring operations work on the integers: a sum
over a common denominator, a product as the product of the contents times
that of the primitive parts, which is primitive by Gauss's lemma. ``terms``,
``as_dict()`` and ``coefficient()`` give exponent tuples and ``Fraction``
coefficients. The one monomial order is a two-block elimination order,
BlockElim; grevlex is the block order with an empty front (GREVLEX).
Alongside it come multivariate division with quotient tracking,
Buchberger's algorithm with the coprime-lead and chain criteria, and
elimination ideals via the block order. No floating point enters any
coefficient.

One division engine serves division, reduction and the Buchberger loop: the
standard algorithm (Cox, Little and O'Shea, *Ideals, Varieties, and
Algorithms*, ch. 2 section 3) run fraction-free on the primitive integer
terms, content stripped after every Buchberger reduction, to keep bignum
growth under control. Each element of a reduced basis is primitive with a
positive lead, which makes the basis unique. Buchberger and eliminate count
critical pairs against a budget, DEFAULT_PAIR_BUDGET (200 000) unless told
otherwise; the budget bounds pairs, not time.

The exponents are packed into one int (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", 2007):
``e_i`` sits in bits ``[33i, 33i + 32)`` and bit ``33i + 32`` is a guard
bit, with G the mask of all guard bits. A shift is one addition, ``a`` is
divisible by ``b`` exactly when ``((a | G) - b) & G == G`` (a field with
``a_i < b_i`` borrows its own guard bit and no other), and the total degree
is ``a % (2^33 - 1)``, since ``2^33 == 1`` modulo it. The same borrow picks
the fields of a pair lcm, and two leads are coprime exactly when their lcm
is their sum. Exponent tuples are only the public face: the constructor,
``terms``, ``as_dict()``, ``coefficient()``, ``text()`` and the
degree-guard messages.

Every monomial order here is a weight order (Cox, Little and O'Shea, ch. 2
section 2), so each packs exactly into one Python int. Grevlex weighs
variable i of n by ``2^(33n) - 2^(33i)``, so the key of packed exponents
``p`` is ``(p % (2^33 - 1)) * 2^(33n) - p``, two big-int operations. The
block order masks out each block's fields, takes their grevlex keys and
lifts the front block's above the back block's range. Keys order monomials
exactly like the textbook comparisons, and equal keys mean equal exponents,
while every field is below 2^32 and every total degree below 2^33 - 1, as
for the lcm of any two terms. Every term's total degree stays below
``DEGREE_LIMIT`` = 2^32: ``MultiPoly`` rejects one at or above it with
``ValueError``, a product checks its exact degree once, and the engine
checks once per reduction step, before a shift could create one. The key
is linear: shifting by x^s adds ``key(s)``. A term is ``(key, packed
exponents, int coefficient)``; a ``MultiPoly``'s terms are keyed under
grevlex, so the engine reads them as they are under grevlex and re-keys
them under any other order. The normal form keeps the terms still to
reduce in a dict from key to coefficient beside a max-heap of keys (Yan's
geobuckets, JSC 1998, serve the same end). Each step pops the greatest
term, cancels it with the first basis lead that divides it, and adds the
shifted reducer tail, so a step touches only the reducer's terms, plus
every stored coefficient when the step's multiplier is not 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heappop, heappush
from itertools import chain, islice
from math import gcd, lcm
from operator import or_
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

Exponents = tuple[int, ...]
Scalar = Union[int, Fraction]

# the critical-pair allowance of buchberger and eliminate unless told otherwise
DEFAULT_PAIR_BUDGET = 200_000


class VariableMismatchError(ValueError):
    """Raised when two polynomials over different variable lists are combined."""


class PairBudgetExceededError(RuntimeError):
    """Raised when Buchberger would process more critical pairs than allowed.

    stage names the Groebner run that was interrupted (the variables being
    dropped, or the final grevlex run of an elimination); used counts the
    pairs processed before it stopped, across all stages.
    """

    def __init__(self, budget: int, stage: str, used: int):
        super().__init__(
            f"critical pair budget of {budget} exhausted while {stage} "
            f"({used} pairs used)"
        )
        self.budget = budget
        self.stage = stage
        self.used = used


class _PairCounter:
    """One pair allowance shared by every Buchberger run inside a computation."""

    __slots__ = ("budget", "used", "stage")

    def __init__(self, budget: int):
        if budget < 0:
            raise ValueError(f"pair budget must be non-negative, got {budget}")
        self.budget = budget
        self.used = 0
        self.stage = ""

    def spend(self) -> None:
        if self.used >= self.budget:
            raise PairBudgetExceededError(self.budget, self.stage, self.used)
        self.used += 1


# ---------------------------------------------------------------------------
# monomial orders and packed terms

_DIGIT_BITS = 32
DEGREE_LIMIT = 1 << _DIGIT_BITS  # total degrees must stay below this

Key = Callable[[int], int]  # packed exponents -> monomial key

# a term: (key, packed exponents, int coefficient); a term list is sorted
# descending by key
_Terms = Sequence

_FIELD = 33  # bits per packed exponent: 32 for the exponent, 1 guard bit
_EXP_MASK = (1 << _DIGIT_BITS) - 1
_DEGREE_MOD = (1 << _FIELD) - 1  # 2^(33i) == 1 modulo this


def _check_degree(degree: int, what: object) -> None:
    if degree >= DEGREE_LIMIT:
        raise ValueError(
            f"total degree {degree} of {what} reaches the limit 2^{_DIGIT_BITS} "
            "of the packed monomial keys"
        )


def _pack(exp: Exponents) -> int:
    p = 0
    for e in reversed(exp):
        p = (p << _FIELD) | e
    return p


def _unpack(p: int, n: int) -> Exponents:
    return tuple((p >> (_FIELD * i)) & _EXP_MASK for i in range(n))


def _rekey(terms: Iterable[tuple[int, ...]], key: Key) -> list:
    """Terms, or (packed exponents, coefficient) pairs, keyed by key and
    sorted descending."""
    return sorted(((key(e), e, c) for *_, e, c in terms), reverse=True)


def _sum_terms(terms: Iterable[tuple[int, int, int]]) -> list:
    """Terms added up by key, zeros dropped, sorted descending."""
    coeffs: dict[int, int] = {}
    exps: dict[int, int] = {}
    for k, e, c in terms:
        if k in coeffs:
            coeffs[k] += c
        else:
            coeffs[k] = c
            exps[k] = e
    return [(k, exps[k], coeffs[k]) for k in sorted(coeffs, reverse=True) if coeffs[k]]


def _strip_content(terms: _Terms) -> _Terms:
    """terms divided by their content: coprime, with a positive lead."""
    if not terms:
        return terms
    g = 0
    for _, _, c in terms:
        g = gcd(g, c)
        if g == 1:
            break
    if terms[0][2] < 0:
        g = -g
    return terms if g == 1 else [(k, e, c // g) for k, e, c in terms]


@dataclass(frozen=True)
class BlockElim:
    """Elimination order: the front block dominates, grevlex within each block.

    Any monomial containing a front variable sorts above every monomial free of
    them, so a Groebner basis under this order intersected with the back-block
    ring generates the elimination ideal.
    """

    front: tuple[str, ...]

    def key(self, varnames: Sequence[str]) -> Key:
        unknown = set(self.front).difference(varnames)
        if unknown:
            raise VariableMismatchError(f"front variables {sorted(unknown)} not in ring")
        n = len(varnames)
        front = sum(_EXP_MASK << (_FIELD * varnames.index(v)) for v in set(self.front))
        back = _guards(n) - (_guards(n) >> _DIGIT_BITS) - front  # every field less the front
        top = _FIELD * n
        # a block's grevlex key stays below 2^lift while its degree is below 2^33 - 1
        lift = top + _FIELD

        def key(p: int) -> int:
            f, b = p & front, p & back
            return (((f % _DEGREE_MOD << top) - f) << lift) + (b % _DEGREE_MOD << top) - b

        return key


# grevlex is the block order with an empty front: every variable is in the
# back block, weighed by its grevlex weight
GREVLEX = BlockElim(())


# ---------------------------------------------------------------------------
# polynomials


def _monomial_text(varnames: Sequence[str], exp: Exponents) -> str:
    parts = []
    for name, e in zip(varnames, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


class MultiPoly:
    """Immutable sparse polynomial over an ordered variable list: content
    times the primitive integer terms, keyed under grevlex."""

    __slots__ = ("vars", "content", "_ints")

    def __init__(self, varnames: Sequence[str], terms: Mapping[Exponents, Scalar]):
        n = len(varnames)
        clean: dict[Exponents, Fraction] = {}
        for exp, coeff in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != n:
                raise ValueError(f"exponent vector {exp} does not match {n} variables")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            _check_degree(sum(exp), exp)
            c = Fraction(coeff)
            if c:
                clean[exp] = clean.get(exp, Fraction(0)) + c
        den = lcm(*(c.denominator for c in clean.values()))
        ints = ((_pack(e), int(c * den)) for e, c in clean.items() if c)
        self._fill(varnames, Fraction(1, den), _rekey(ints, GREVLEX.key(varnames)))

    def _fill(self, varnames: Sequence[str], scale: Fraction, terms: _Terms) -> None:
        """Set self to scale * terms: grevlex terms, descending, without zeros."""
        prim = _strip_content(terms)
        content = scale * (terms[0][2] // prim[0][2]) if terms else Fraction(0)
        object.__setattr__(self, "vars", tuple(varnames))
        object.__setattr__(self, "content", content)
        object.__setattr__(self, "_ints", tuple(prim))

    @classmethod
    def _from_terms(cls, varnames: Sequence[str], scale: Fraction, terms: _Terms) -> "MultiPoly":
        p = object.__new__(cls)
        p._fill(varnames, scale, terms)
        return p

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("MultiPoly is immutable")

    # -- constructors

    @classmethod
    def const(cls, varnames: Sequence[str], value: Scalar) -> "MultiPoly":
        c = Fraction(value)  # the constant monomial has key 0 and packs to 0
        return cls._from_terms(varnames, c, [(0, 0, 1)] if c else [])

    @classmethod
    def variable(cls, varnames: Sequence[str], name: str) -> "MultiPoly":
        unit = 1 << (_FIELD * list(varnames).index(name))
        return cls._from_terms(varnames, Fraction(1), [(GREVLEX.key(varnames)(unit), unit, 1)])

    # -- basic queries

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @property
    def terms(self) -> tuple[tuple[Exponents, Fraction], ...]:
        """(exponents, coefficient) pairs, grevlex-descending."""
        n = len(self.vars)
        return tuple((_unpack(e, n), self.content * c) for _, e, c in self._ints)

    def total_degree(self) -> int:
        # grevlex sorts by total degree first
        return self._ints[0][1] % _DEGREE_MOD if self._ints else -1

    def coefficient(self, exp: Exponents) -> Fraction:
        for _, e, c in self._ints:
            if _unpack(e, len(self.vars)) == exp:
                return self.content * c
        return Fraction(0)

    def as_dict(self) -> dict[Exponents, Fraction]:
        return dict(self.terms)

    # -- ring operations

    def _check(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise VariableMismatchError(f"variable lists differ: {self.vars} vs {other.vars}")

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        a, b = self.content, other.content
        den = lcm(a.denominator, b.denominator)
        sa, sb = int(a * den), int(b * den)
        return MultiPoly._from_terms(self.vars, Fraction(1, den), _sum_terms(chain(
            ((k, e, sa * c) for k, e, c in self._ints),
            ((k, e, sb * c) for k, e, c in other._ints),
        )))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._from_terms(self.vars, -self.content, self._ints)

    def __sub__(self, other) -> "MultiPoly":
        return self + (-other) if isinstance(other, (MultiPoly, int, Fraction)) else NotImplemented

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other if isinstance(other, (int, Fraction)) else NotImplemented

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = self.content * other
            return MultiPoly._from_terms(self.vars, c, self._ints if c else ())
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        if self._ints:
            _check_power(self._ints[0][1], other, 1)
        terms = (
            (k1 + k2, e1 + e2, c1 * c2) for k1, e1, c1 in self._ints for k2, e2, c2 in other._ints
        )
        return MultiPoly._from_terms(self.vars, self.content * other.content, _sum_terms(terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        out = MultiPoly.const(self.vars, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.vars, self.content, self._ints) == (other.vars, other.content, other._ints)

    def __hash__(self) -> int:
        return hash((self.vars, self.content, self._ints))

    def __repr__(self) -> str:
        return f"MultiPoly({self.text()!r})"

    # -- substitution

    def subs(self, var: str, rep: Union["MultiPoly", Scalar]) -> "MultiPoly":
        """Substitute a polynomial or a constant for one variable, exactly.

        With rep = (a/b) * P, P primitive, and d the top power of var, every
        term c * m * var^k becomes c * a^k * b^(d-k) * m * P^k, and the sum
        is scaled by content / b^d. The powers of P are computed once per
        call. A polynomial without var is returned as it is.
        """
        i = self.vars.index(var)
        if isinstance(rep, MultiPoly):
            self._check(rep)
        else:
            rep = MultiPoly.const(self.vars, rep)
        shift = _FIELD * i
        top = max(((e >> shift) & _EXP_MASK for _, e, _ in self._ints), default=0)
        if not top:
            return self
        a, b = rep.content.numerator, rep.content.denominator
        weight = GREVLEX.key(self.vars)(1 << shift)
        powers = [MultiPoly.const(self.vars, 1), rep.primitive()]  # powers[k] is P^k
        acc = []
        for k, e, c in self._ints:
            d = (e >> shift) & _EXP_MASK
            k, e, c = k - d * weight, e - (d << shift), c * a**d * b ** (top - d)
            _check_power(e, rep, d)
            while len(powers) <= d:
                powers.append(powers[-1] * powers[1])
            acc += [(k + kp, e + ep, c * cp) for kp, ep, cp in powers[d]._ints]
        return MultiPoly._from_terms(self.vars, self.content / b**top, _sum_terms(acc))

    def restrict(self, varnames: Sequence[str]) -> "MultiPoly":
        """Re-express over another variable list, which must hold every
        variable this polynomial uses; variables new to it get exponent 0."""
        varnames = tuple(varnames)
        if not set(_used_vars(self)) <= set(varnames):
            raise VariableMismatchError("polynomial uses variables outside the restriction")
        # the field of each variable in both lists moves to its new place
        moves = [(_FIELD * self.vars.index(v), _FIELD * j) for j, v in enumerate(varnames)
                 if v in self.vars]
        terms = ((sum(((e >> a) & _EXP_MASK) << b for a, b in moves), c) for _, e, c in self._ints)
        return MultiPoly._from_terms(varnames, self.content, _rekey(terms, GREVLEX.key(varnames)))

    # -- normal forms

    def primitive(self) -> "MultiPoly":
        """The primitive integer part: coprime coefficients, positive lead."""
        return MultiPoly._from_terms(self.vars, Fraction(1), self._ints)

    def text(self) -> str:
        """Canonical display form: primitive integer coefficients, positive lead,
        terms grevlex-descending with explicit signs."""
        if not self._ints:
            return "0"
        pieces = []
        for i, (_, e, c) in enumerate(self._ints):
            mono = _monomial_text(self.vars, _unpack(e, len(self.vars)))
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if i == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(pieces)


def _check_power(e: int, q: MultiPoly, d: int) -> None:
    """Guard x^e * q^d, e packed: its total degree is exact, and the error
    names its lead monomial."""
    degree = e % _DEGREE_MOD + d * q.total_degree()
    if degree >= DEGREE_LIMIT:
        n = len(q.vars)
        lead = zip(_unpack(e, n), _unpack(q._ints[0][1], n))
        _check_degree(degree, tuple(x + d * y for x, y in lead))


def _used_vars(p: MultiPoly) -> list[str]:
    """The variables p uses: the fields of the OR of its packed exponents."""
    used = reduce(or_, (e for _, e, _ in p._ints), 0)
    return [v for i, v in enumerate(p.vars) if used >> (_FIELD * i) & _EXP_MASK]


# ---------------------------------------------------------------------------
# division


def divide(
    p: MultiPoly, divisors: Sequence[MultiPoly], order: BlockElim = GREVLEX
) -> tuple[list[MultiPoly], MultiPoly]:
    """Multivariate division: returns (quotients, remainder) with
    p == sum(q_i * g_i) + r and no remainder term divisible by any divisor lead.

    Divisors are tried in list order, so the result is deterministic. The work
    runs in the fraction-free engine on the primitive integer terms; the
    contents of p and the divisors give the contents of the results.
    """
    for g in divisors:
        p._check(g)
        if g.is_zero:
            raise ZeroDivisionError("zero divisor in division")
    n = len(p.vars)
    grevlex, key = order == GREVLEX, order.key(p.vars)
    pt, *ints = (q._ints if grevlex else _rekey(q._ints, key) for q in (p, *divisors))
    degs = [g.total_degree() for g in divisors]
    quots: list[dict[int, int]] = [dict() for _ in divisors]
    rem, scale = _normal_form_int(pt, ints, degs, n, quots)
    # scale * prim(p) == sum(q_i * prim(g_i)) + rem, where p = content * prim(p)
    # and g_i = c_i * prim(g_i)
    factor, gkey = p.content / scale, GREVLEX.key(p.vars)
    return (
        [
            MultiPoly._from_terms(p.vars, factor / g.content, _rekey(q.items(), gkey))
            for q, g in zip(quots, divisors)
        ],
        MultiPoly._from_terms(p.vars, factor, rem if grevlex else _rekey(rem, gkey)),
    )


# ---------------------------------------------------------------------------
# fraction-free engine used by divide and buchberger


@lru_cache(maxsize=64)
def _guards(n: int) -> int:
    """The guard bits of n packed fields."""
    return _pack((1 << _DIGIT_BITS,) * n)


def _max_degree(terms: _Terms) -> int:
    return max(e % _DEGREE_MOD for _, e, _ in terms)


def _check_shift(shift: int, degree: int, n: int) -> None:
    """Guard one packed shift: x^shift times a polynomial of total degree at
    most degree must keep every exponent field and packed key exact."""
    total = shift % _DEGREE_MOD + degree
    if total >= DEGREE_LIMIT:
        _check_degree(total, f"x^{_unpack(shift, n)} times a degree-{degree} polynomial")


def _normal_form_int(
    p: _Terms,
    basis: Sequence[_Terms],
    degs: Sequence[int],
    n: int,
    quots: Optional[list[dict[int, int]]] = None,
) -> tuple[_Terms, int]:
    """Full normal form of p against basis, fraction-free.

    Returns (terms, s): terms is the exact integer normal form of s*p, s a
    positive integer. Basis elements are tried in list order; degs[i] is the
    maximal total degree of basis[i]; n is the number of variables. When
    quots holds one dict per basis element, the integer quotients are added
    to them, keyed by packed exponents, so that
    s*p == sum(quots[i] * basis[i]) + terms.

    The terms still to reduce sit in a dict from key to coefficient, with a
    heap of negated keys and a dict from key to packed exponents beside it.
    Each step pops the greatest key and cancels it with the first basis lead
    that divides it, touching only the reducer's tail and, when the
    multiplier a is not 1, the stored coefficients.
    """
    guards = _guards(n)
    leads = [g[0][1] for g in basis]
    coeffs = {k: c for k, _, c in p}
    exps = {k: e for k, e, _ in p}
    heap = [-k for k, _, _ in p]  # p is descending, so this is a heap
    rem: _Terms = []
    scale = 1
    while heap:
        kw = -heappop(heap)
        cw = coeffs.pop(kw)
        if not cw:
            continue
        ew = exps[kw]
        top = ew | guards
        for i, eg in enumerate(leads):
            if (top - eg) & guards == guards:
                break
        else:
            rem.append((kw, ew, cw))
            continue
        kg, _, cg = basis[i][0]
        m = gcd(cw, cg)
        a = cg // m
        b = -(cw // m)
        if a < 0:
            a, b = -a, -b
        shift = ew - eg
        _check_shift(shift, degs[i], n)
        # a * (old work) == -b * x^shift * reducer + (new work)
        if a != 1:
            scale *= a
            for k in coeffs:
                coeffs[k] *= a
            if rem:
                rem = [(k, e, c * a) for k, e, c in rem]
            if quots is not None:
                for q in quots:
                    for e in q:
                        q[e] *= a
        if quots is not None:
            quots[i][shift] = -b
        # add b * x^shift * tail, pushing each new key
        kshift = kw - kg
        for kt, et, ct in islice(basis[i], 1, None):
            k = kt + kshift
            c = coeffs.get(k)
            if c is None:
                coeffs[k] = b * ct
                exps[k] = et + shift
                heappush(heap, -k)
            else:
                coeffs[k] = c + b * ct
    return rem, scale


def _lcm(a: int, b: int, guards: int) -> int:
    """The lcm of packed exponents a and b: each field from a where a's is
    at least b's, that is where the field keeps its guard bit in
    (a | guards) - b, and from b elsewhere. A kept guard bit less the lowest
    bit of its field masks the field."""
    ge = ((a | guards) - b) & guards
    pick = ge - (ge >> _DIGIT_BITS)
    return (a & pick) | (b & ~pick)


def buchberger(
    gens: Sequence[MultiPoly],
    order: BlockElim = GREVLEX,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> list[MultiPoly]:
    """Reduced Groebner basis of the ideal generated by gens.

    Uses the coprime-lead criterion and the chain criterion to discard
    unnecessary pairs, selects pairs by minimal lcm degree, and strips integer
    content after every S-polynomial reduction. Raises PairBudgetExceededError
    when a pair beyond the first pair_budget ones would be processed, and
    ValueError for a negative pair_budget.
    """
    return _buchberger(gens, order, _PairCounter(pair_budget), "computing a Groebner basis")


def _spoly_int(gi: _Terms, gj: _Terms, klcm: int, plcm: int) -> _Terms:
    """The fraction-free S-polynomial of gi and gj, whose leads have the lcm
    with key klcm and packed exponents plcm."""
    (ki, pi, ci), (kj, pj, cj) = gi[0], gj[0]
    m = gcd(ci, cj)
    return _sum_terms(chain(
        ((k + klcm - ki, e + plcm - pi, c * (cj // m)) for k, e, c in islice(gi, 1, None)),
        ((k + klcm - kj, e + plcm - pj, -c * (ci // m)) for k, e, c in islice(gj, 1, None)),
    ))


def _buchberger(
    gens: Sequence[MultiPoly],
    order: BlockElim,
    counter: _PairCounter,
    stage: str,
) -> list[MultiPoly]:
    counter.stage = stage
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    varnames = gens[0].vars
    for g in gens:
        g._check(gens[0])
    n = len(varnames)
    key = order.key(varnames)
    guards = _guards(n)

    grevlex = order == GREVLEX
    basis = [g._ints if grevlex else _rekey(g._ints, key) for g in gens]
    degs = [g.total_degree() for g in gens]
    leads = [g[0][1] for g in basis]

    heap: list[tuple] = []
    pending: set[tuple[int, int]] = set()

    def push_pairs(j: int) -> None:
        lj = leads[j]
        for i in range(j):
            l = _lcm(leads[i], lj, guards)
            heappush(heap, (l % _DEGREE_MOD, key(l), i, j, l))
            pending.add((i, j))

    for j in range(len(basis)):
        push_pairs(j)

    while heap:
        counter.spend()
        _, klcm, i, j, plcm = heappop(heap)
        pending.discard((i, j))
        # coprime leads: their lcm is their product, the sum of the packed leads
        if plcm == leads[i] + leads[j]:
            continue
        # chain criterion: some k with lead dividing the lcm and both pairs done
        top = plcm | guards
        skip = False
        for k, lk in enumerate(leads):
            if k in (i, j):
                continue
            if (top - lk) & guards == guards:
                a1, b1 = min(i, k), max(i, k)
                a2, b2 = min(j, k), max(j, k)
                if (a1, b1) not in pending and (a2, b2) not in pending:
                    skip = True
                    break
        if skip:
            continue
        _check_shift(plcm - leads[i], degs[i], n)
        _check_shift(plcm - leads[j], degs[j], n)
        s = _spoly_int(basis[i], basis[j], klcm, plcm)
        s = _strip_content(_normal_form_int(_strip_content(s), basis, degs, n)[0])
        if s:
            basis.append(s)
            degs.append(_max_degree(s))
            leads.append(s[0][1])
            push_pairs(len(basis) - 1)

    return _reduce_basis(varnames, basis, grevlex)


def _reduce_basis(varnames, basis: list[_Terms], grevlex: bool) -> list[MultiPoly]:
    """Minimalize and tail-reduce an integer basis; return it sorted by lead,
    each element primitive with a positive lead under the basis's order, which
    grevlex tells apart from any other."""
    n = len(varnames)
    guards = _guards(n)
    # minimal: drop any element whose lead is divisible by another's
    keep: list[_Terms] = []
    leads = [g[0][1] for g in basis]
    for i, g in enumerate(basis):
        top = leads[i] | guards
        redundant = False
        for j, lj in enumerate(leads):
            if i == j:
                continue
            if (top - lj) & guards == guards and (leads[i] != lj or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(g)
    # tail-reduce each against the others
    degs = [_max_degree(g) for g in keep]
    reduced: list[_Terms] = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        nf = _strip_content(_normal_form_int(g, others, degs[:i] + degs[i + 1 :], n)[0])
        if nf:
            reduced.append(nf)
    reduced.sort(key=lambda t: t[0][0])
    if not grevlex:
        key = GREVLEX.key(varnames)
        reduced = [_rekey(t, key) for t in reduced]
    return [MultiPoly._from_terms(varnames, Fraction(1), t) for t in reduced]


# ---------------------------------------------------------------------------
# elimination


def _substitute_linear(gens: list[MultiPoly], eliminable: set[str]) -> list[MultiPoly]:
    """Solve the first degree-1 generator holding an eliminable variable for
    the first such variable in ring order, substitute it into the others, and
    start over until none is left. This preserves the elimination ideal over
    the kept variables and typically removes the affine joint-placement
    relations before Buchberger runs. gens must not be empty.
    """
    varnames = gens[0].vars
    # packed exponents of each eliminable variable, in ring order; one already
    # substituted away appears in no generator
    units = {1 << (_FIELD * i): v for i, v in enumerate(varnames) if v in eliminable}
    work = list(gens)
    while True:
        for g in work:
            if g.total_degree() == 1:
                coeffs = {e: c for _, e, c in g._ints}
                unit = next((u for u in units if u in coeffs), None)
                if unit is not None:
                    break
        else:
            return [h for h in work if not h.is_zero]
        v = units[unit]
        rep = MultiPoly.variable(varnames, v) - g.primitive() * Fraction(1, coeffs[unit])
        work = [h.subs(v, rep) for h in work if h is not g]


def eliminate(
    gens: Sequence[MultiPoly],
    keep: Iterable[str],
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> list[MultiPoly]:
    """Generators of the elimination ideal: the ideal of gens intersected with
    the subring on the kept variables. Returned polynomials live on exactly the
    kept variables, in their original ring order.

    Variables are dropped in stages, at most two per Groebner run. Each stage
    substitutes degree-1 generators away, narrows the ring to the kept
    variables and those the generators use (an unused variable changes no
    packed-key comparison), and drops the two cheapest variables left, where
    a variable costs the total number of terms in the current generators
    that contain it (a minimum-degree choice, as in sparse elimination); on
    a tie the later ring variable goes first. Elimination ideals compose and
    the reduced basis is unique, so the staged result equals a single run
    under a full block order whatever the schedule, while each intermediate
    basis stays small. The final grevlex run is over the kept variables
    alone. One pair budget is shared across all stages;
    PairBudgetExceededError names the stage it stopped in.
    """
    counter = _PairCounter(pair_budget)
    work = [g for g in gens if not g.is_zero]
    keep = set(keep)
    if not work:
        return []
    for g in work:
        g._check(work[0])
    missing = keep - set(work[0].vars)
    if missing:
        raise VariableMismatchError(f"kept variables {sorted(missing)} not in ring")

    while True:
        work = _substitute_linear(work, set(work[0].vars) - keep)
        if not work:
            return []
        ring = work[0].vars
        # a variable costs the terms of the generators that contain it
        cost = dict.fromkeys(ring, 0)
        for g in work:
            for v in _used_vars(g):
                cost[v] += len(g._ints)
        live = [v for v in ring if v in keep or cost[v]]
        work = [g.restrict(live) for g in work]
        front_used = [v for v in live if v not in keep]
        if not front_used:
            break
        # the two cheapest, the later one first on a tie, dropped in ring order
        cheapest = sorted(reversed(front_used), key=cost.__getitem__)[:2]
        drop = tuple(v for v in front_used if v in cheapest)
        basis = _buchberger(work, BlockElim(drop), counter, f"dropping {', '.join(drop)}")
        dropset = set(drop)
        work = [g for g in basis if dropset.isdisjoint(_used_vars(g))]
        if not work:
            return []

    return _buchberger(work, GREVLEX, counter, "running the final grevlex basis")

