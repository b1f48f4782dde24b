"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are sparse term maps from exponent vectors to ``fractions.Fraction``
coefficients, kept in a canonical form: no zero coefficients, terms sorted
strictly descending under graded reverse lexicographic order. The one
monomial order is a two-block elimination order, BlockElim; grevlex is the
block order with an empty front (GREVLEX). Alongside it come multivariate
division with quotient tracking, Buchberger's algorithm with
the coprime-lead and chain criteria, and elimination ideals via the block
order. Everything here is exact; no floating point enters any coefficient.

One division engine serves division, reduction and the Buchberger loop: the
standard algorithm (Cox, Little and O'Shea, *Ideals, Varieties, and
Algorithms*, ch. 2 section 3) run fraction-free on integer-coefficient
primitive polynomials (denominators cleared, content stripped after every
Buchberger reduction) to keep bignum growth under control. ``divide`` rescales
its integer quotients and remainder back to rationals. Each element of a
reduced basis is primitive with a positive lead, which makes the basis
unique. Buchberger and eliminate count critical pairs against a budget,
DEFAULT_PAIR_BUDGET (200 000) unless told otherwise; the budget bounds
pairs, not time.

Every monomial order here is a weight order (Cox, Little and O'Shea, ch. 2
section 2), so each packs exactly into one Python int: ``key(e) = sum(e_i *
w_i)`` with weights built from 32-bit digits. Grevlex weighs variable i by
``2^(32n) - 2^(32i)``, and the block order puts the front block's grevlex
weights above the back block's. Comparing packed keys orders monomials
exactly like the textbook comparisons, and equal keys mean equal exponents,
while every total degree stays below ``DEGREE_LIMIT`` = 2^32. ``MultiPoly``
rejects a term at or above it with ``ValueError``, and so does the engine,
once per reduction step, before a shift could create one. Because the key
is linear, shifting a term by x^s just adds ``key(s)`` to its key.

The engine also packs the exponents themselves into one int (Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", 2007): ``e_i`` sits in bits ``[33i, 33i + 32)`` and bit
``33i + 32`` is a guard bit, with G the mask of all guard bits. A shift is
one addition, ``a`` is divisible by ``b`` exactly when ``((a | G) - b) & G
== G`` (a field with ``a_i < b_i`` borrows its own guard bit and no other),
and the total degree is ``a % (2^33 - 1)``, since ``2^33 == 1`` modulo it
and every total degree is below 2^32.
The reducer search, the chain criterion and the minimal-basis test use
these; exponent tuples remain only for the pair lcm and the coprime test,
and are unpacked when a ``MultiPoly`` is built or an error names a shift.
The normal form keeps the terms still to reduce in a dict from key to
coefficient beside a max-heap of keys (Yan's geobuckets, JSC 1998, serve
the same end). Each step pops the greatest term, cancels it with the first
basis lead that divides it, and adds the shifted reducer tail, so a step
touches only the reducer's terms, plus every stored coefficient when the
step's multiplier is not 1.

``MultiPoly.subs`` replaces one variable: it accumulates every term's
product into one term map and computes the replacement's powers once per
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import islice
from math import gcd
from operator import add, mul
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
# monomial orders

_DIGIT_BITS = 32
DEGREE_LIMIT = 1 << _DIGIT_BITS  # total degrees must stay below this

Key = Callable[[Exponents], int]


@lru_cache(maxsize=64)
def _grevlex_weights(n: int) -> tuple[int, ...]:
    top = 1 << (_DIGIT_BITS * n)
    return tuple(top - (1 << (_DIGIT_BITS * i)) for i in range(n))


def _packed_key(weights: tuple[int, ...]) -> Key:
    def key(exp: Exponents) -> int:
        return sum(map(mul, exp, weights))

    return key


def _check_degree(degree: int, what: object) -> None:
    if degree >= DEGREE_LIMIT:
        raise ValueError(
            f"total degree {degree} of {what} reaches the limit 2^{_DIGIT_BITS} "
            "of the packed monomial keys"
        )


@dataclass(frozen=True)
class BlockElim:
    """Elimination order: the front block dominates, grevlex within each block.

    Any monomial containing a front variable sorts above every monomial free of
    them, so a Groebner basis under this order intersected with the back-block
    ring generates the elimination ideal.
    """

    front: tuple[str, ...]

    def key(self, varnames: Sequence[str]) -> Key:
        front = [i for i, v in enumerate(varnames) if v in self.front]
        back = [i for i, v in enumerate(varnames) if v not in self.front]
        unknown = set(self.front) - set(varnames)
        if unknown:
            raise VariableMismatchError(f"front variables {sorted(unknown)} not in ring")
        # the back block's grevlex keys stay below 2^(W*(len(back)+1))
        lift = 1 << (_DIGIT_BITS * (len(back) + 1))
        weights = [0] * len(varnames)
        for i, w in zip(front, _grevlex_weights(len(front))):
            weights[i] = w * lift
        for i, w in zip(back, _grevlex_weights(len(back))):
            weights[i] = w
        return _packed_key(tuple(weights))


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
    """Immutable sparse polynomial over an ordered variable list."""

    __slots__ = ("vars", "terms")

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
        key = _packed_key(_grevlex_weights(n))
        object.__setattr__(self, "vars", tuple(varnames))
        object.__setattr__(
            self,
            "terms",
            tuple(
                sorted(
                    ((e, c) for e, c in clean.items() if c),
                    key=lambda t: key(t[0]),
                    reverse=True,
                )
            ),
        )

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("MultiPoly is immutable")

    # -- constructors

    @classmethod
    def const(cls, varnames: Sequence[str], value: Scalar) -> "MultiPoly":
        return cls(varnames, {tuple(0 for _ in varnames): Fraction(value)})

    @classmethod
    def variable(cls, varnames: Sequence[str], name: str) -> "MultiPoly":
        idx = list(varnames).index(name)
        exp = tuple(1 if i == idx else 0 for i in range(len(varnames)))
        return cls(varnames, {exp: Fraction(1)})

    # -- basic queries

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def coefficient(self, exp: Exponents) -> Fraction:
        for e, c in self.terms:
            if e == exp:
                return c
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
        self._check(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, Fraction(0)) + c
        return MultiPoly(self.vars, acc)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms})

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return MultiPoly(self.vars, {e: k * c for e, k in self.terms})
        self._check(other)
        return MultiPoly(self.vars, _mul_terms(self.terms, other.terms))

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
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, self.terms))

    def __repr__(self) -> str:
        return f"MultiPoly({self.text()!r})"

    # -- substitution

    def subs(self, var: str, rep: Union["MultiPoly", Scalar]) -> "MultiPoly":
        """Substitute a polynomial or a constant for one variable, exactly.

        Every term's product accumulates into one term map; the powers of rep
        are computed once per call and cached.
        """
        i = self.vars.index(var)
        zero = (0,) * len(self.vars)
        if isinstance(rep, MultiPoly):
            self._check(rep)
            base = list(rep.terms)
        else:
            c = Fraction(rep)
            base = [(zero, c)] if c else []
        # powers[k] holds rep to the k-th power, as (exp, coeff) pairs
        powers: list[Sequence[tuple[Exponents, Fraction]]] = [[(zero, Fraction(1))], base]
        acc: dict[Exponents, Fraction] = {}
        for exp, coeff in self.terms:
            e = exp[i]
            term = [(exp[:i] + (0,) + exp[i + 1 :], coeff)]
            if e:
                while len(powers) <= e:
                    powers.append(_mul_terms(powers[-1], base).items())
                term = _mul_terms(term, powers[e]).items()
            for m, c in term:
                acc[m] = acc.get(m, 0) + c
        return MultiPoly(self.vars, acc)

    def restrict(self, varnames: Sequence[str]) -> "MultiPoly":
        """Re-express over another variable list, which must hold every
        variable this polynomial uses; variables new to it get exponent 0."""
        varnames = tuple(varnames)
        index = {v: i for i, v in enumerate(self.vars)}
        pos = [index.get(v) for v in varnames]
        kept = set(pos)
        acc: dict[Exponents, Fraction] = {}
        for exp, coeff in self.terms:
            if any(e and i not in kept for i, e in enumerate(exp)):
                raise VariableMismatchError("polynomial uses variables outside the restriction")
            acc[tuple(0 if i is None else exp[i] for i in pos)] = coeff
        return MultiPoly(varnames, acc)

    # -- normal forms

    def content_and_primitive(self) -> tuple[Fraction, "MultiPoly"]:
        """Split into content * primitive integer part, primitive lead positive."""
        if not self.terms:
            return Fraction(0), self
        den = 1
        for _, c in self.terms:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [(e, int(c * den)) for e, c in self.terms]
        g = 0
        for _, c in ints:
            g = gcd(g, c)
        lead_c = ints[0][1]  # terms are grevlex-descending
        if lead_c < 0:
            g = -g
        prim = MultiPoly(self.vars, {e: Fraction(c // g) for e, c in ints})
        return Fraction(g, den), prim

    def primitive(self) -> "MultiPoly":
        return self.content_and_primitive()[1]

    def text(self) -> str:
        """Canonical display form: primitive integer coefficients, positive lead,
        terms grevlex-descending with explicit signs."""
        if not self.terms:
            return "0"
        prim = self.primitive()
        pieces = []
        for i, (exp, coeff) in enumerate(prim.terms):
            c = int(coeff)
            mono = _monomial_text(prim.vars, exp)
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


def _mul_terms(
    p: Iterable[tuple[Exponents, Fraction]], q: Sequence[tuple[Exponents, Fraction]]
) -> dict[Exponents, Fraction]:
    """Product of two term lists as an unsorted term map (zeros possible)."""
    acc: dict[Exponents, Fraction] = {}
    for e1, c1 in p:
        for e2, c2 in q:
            e = tuple(map(add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return acc


# ---------------------------------------------------------------------------
# division


def divide(
    p: MultiPoly, divisors: Sequence[MultiPoly], order: BlockElim = GREVLEX
) -> tuple[list[MultiPoly], MultiPoly]:
    """Multivariate division: returns (quotients, remainder) with
    p == sum(q_i * g_i) + r and no remainder term divisible by any divisor lead.

    Divisors are tried in list order, so the result is deterministic. The work
    runs in the fraction-free engine on primitive integer forms; quotients and
    remainder are rescaled to p and the divisors afterwards.
    """
    for g in divisors:
        p._check(g)
        if g.is_zero:
            raise ZeroDivisionError("zero divisor in division")
    n = len(p.vars)
    key = order.key(p.vars)
    content, pt = _to_int_terms(p, key)
    ints = [_to_int_terms(g, key) for g in divisors]
    degs = [g.total_degree() for g in divisors]
    quots: list[dict[int, int]] = [dict() for _ in divisors]
    rem, scale = _normal_form_int(pt, [t for _, t in ints], degs, n, quots)
    # scale * prim(p) == sum(q_i * prim(g_i)) + rem, where p = content * prim(p)
    # and g_i = c_i * prim(g_i)
    factor = content / scale
    return (
        [
            MultiPoly(p.vars, {_unpack(e, n): factor / c * v for e, v in q.items()})
            for q, (c, _) in zip(quots, ints)
        ],
        MultiPoly(p.vars, {_unpack(e, n): factor * c for _, e, c in rem}),
    )


# ---------------------------------------------------------------------------
# fraction-free engine used by divide and buchberger

# internal term list: [(key, packed exponents, int_coeff)] sorted descending
# by key
_Terms = list

_FIELD = 33  # bits per packed exponent: 32 for the exponent, 1 guard bit
_EXP_MASK = (1 << _DIGIT_BITS) - 1
_DEGREE_MOD = (1 << _FIELD) - 1  # 2^(33i) == 1 modulo this


def _pack(exp: Exponents) -> int:
    p = 0
    for e in reversed(exp):
        p = (p << _FIELD) | e
    return p


def _unpack(p: int, n: int) -> Exponents:
    return tuple((p >> (_FIELD * i)) & _EXP_MASK for i in range(n))


@lru_cache(maxsize=64)
def _guards(n: int) -> int:
    """The guard bits of n packed fields."""
    return _pack((1 << _DIGIT_BITS,) * n)


def _to_int_terms(p: MultiPoly, key: Key) -> tuple[Fraction, _Terms]:
    """p as content * (primitive integer terms)."""
    content, prim = p.content_and_primitive()
    out = [(key(e), _pack(e), int(c)) for e, c in prim.terms]
    out.sort(key=lambda t: t[0], reverse=True)
    return content, out


def _max_degree(terms: _Terms) -> int:
    return max(e % _DEGREE_MOD for _, e, _ in terms)


def _check_shift(shift: int, degree: int, n: int) -> None:
    """Guard one packed shift: x^shift times a polynomial of total degree at
    most degree must keep every exponent field and packed key exact."""
    total = shift % _DEGREE_MOD + degree
    if total >= DEGREE_LIMIT:
        _check_degree(total, f"x^{_unpack(shift, n)} times a degree-{degree} polynomial")


def _strip_content(terms: _Terms) -> _Terms:
    if not terms:
        return terms
    g = 0
    for _, _, c in terms:
        g = gcd(g, c)
        if g == 1:
            return terms
    if terms[0][2] < 0:
        g = -g
    return [(k, e, c // g) for k, e, c in terms]


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
        _add_tail(coeffs, exps, heap, b, basis[i], kw - kg, shift)
    return rem, scale


def _add_tail(
    coeffs: dict[int, int], exps: dict[int, int], heap: list[int],
    b: int, g: _Terms, kshift: int, shift: int,
) -> None:
    """Add b * x^shift * g[1:] to the terms in coeffs and exps, pushing each
    new key, negated, on heap; kshift is the key of x^shift."""
    for kt, et, ct in islice(g, 1, None):
        k = kt + kshift
        c = coeffs.get(k)
        if c is None:
            coeffs[k] = b * ct
            exps[k] = et + shift
            heappush(heap, -k)
        else:
            coeffs[k] = c + b * ct


def _lcm_exp(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def _coprime(a: Exponents, b: Exponents) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


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
    with key klcm and packed exponents plcm, built with the reduction step."""
    (ki, pi, ci), (kj, pj, cj) = gi[0], gj[0]
    m = gcd(ci, cj)
    coeffs: dict[int, int] = {}
    exps: dict[int, int] = {}
    heap: list[int] = []
    _add_tail(coeffs, exps, heap, cj // m, gi, klcm - ki, plcm - pi)
    _add_tail(coeffs, exps, heap, -(ci // m), gj, klcm - kj, plcm - pj)
    return [(k, exps[k], coeffs[k]) for k in sorted(coeffs, reverse=True) if coeffs[k]]


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

    basis = [_to_int_terms(g, key)[1] for g in gens]
    degs = [g.total_degree() for g in gens]
    # lead exponent tuples, for the pair lcm and the coprime test
    leads = [_unpack(g[0][1], n) for g in basis]

    heap: list[tuple] = []
    pending: set[tuple[int, int]] = set()

    def push_pairs(j: int) -> None:
        lj = leads[j]
        for i in range(j):
            l = _lcm_exp(leads[i], lj)
            heappush(heap, (sum(l), key(l), i, j))
            pending.add((i, j))

    for j in range(len(basis)):
        push_pairs(j)

    while heap:
        counter.spend()
        _, klcm, i, j = heappop(heap)
        pending.discard((i, j))
        li, lj = leads[i], leads[j]
        if _coprime(li, lj):
            continue
        plcm = _pack(_lcm_exp(li, lj))
        # chain criterion: some k with lead dividing the lcm and both pairs done
        top = plcm | guards
        skip = False
        for k, g in enumerate(basis):
            if k in (i, j):
                continue
            if (top - g[0][1]) & guards == guards:
                a1, b1 = min(i, k), max(i, k)
                a2, b2 = min(j, k), max(j, k)
                if (a1, b1) not in pending and (a2, b2) not in pending:
                    skip = True
                    break
        if skip:
            continue
        _check_shift(plcm - basis[i][0][1], degs[i], n)
        _check_shift(plcm - basis[j][0][1], degs[j], n)
        s = _spoly_int(basis[i], basis[j], klcm, plcm)
        s = _strip_content(_normal_form_int(_strip_content(s), basis, degs, n)[0])
        if s:
            basis.append(s)
            degs.append(_max_degree(s))
            leads.append(_unpack(s[0][1], n))
            push_pairs(len(basis) - 1)

    return _reduce_basis(varnames, basis)


def _reduce_basis(varnames, basis: list[_Terms]) -> list[MultiPoly]:
    """Minimalize and tail-reduce an integer basis; return it sorted by lead,
    each element primitive with a positive lead under the basis's order."""
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
            # _strip_content leaves the sign of a content-1 element as it is
            reduced.append(nf if nf[0][2] > 0 else [(k, e, -c) for k, e, c in nf])
    reduced.sort(key=lambda t: t[0][0])
    return [MultiPoly(varnames, {_unpack(e, n): Fraction(c) for _, e, c in t}) for t in reduced]


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
            replacement = rest * Fraction(-1, 1) * (1 / c)
            work = [h.subs(v, replacement) for h in work if h is not g]
            changed = True
            break
    return [h for h in work if not h.is_zero]


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
            for v, m in zip(ring, _used_mask(g)):
                cost[v] += m * len(g.terms)
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
        work = [
            g
            for g in basis
            if not (dropset & {v for v, m in zip(g.vars, _used_mask(g)) if m})
        ]
        if not work:
            return []

    return _buchberger(work, GREVLEX, counter, "running the final grevlex basis")


def _used_mask(p: MultiPoly) -> list[bool]:
    n = len(p.vars)
    mask = [False] * n
    for e, _ in p.terms:
        for i in range(n):
            if e[i]:
                mask[i] = True
    return mask
