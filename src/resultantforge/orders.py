"""Term orders and order-dependent operations: leading terms and
multivariate polynomial division (normal forms).

Every order is a matrix order (Robbiano, EUROCAL 1985): it ranks a tuple
of variables and compares monomials by the rows of a nonnegative integer
matrix, first row first. So the order is a total multiplicative order with
1 minimal, and a key is linear in the exponents. key() packs the row
values of one monomial into one int; nothing is memoized on the order.

Division runs on a packed representation (_Reducer): exponent vectors are
poly.Packing ints, order keys are Python ints, coefficients are integers,
and the next term comes from a heap (Monagan & Pearce, JSC 2011).
Polynomials enter through _packed and are decoded only for results.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .poly import (
    Monomial,
    Packing,
    Polynomial,
    RingMismatchError,
    Variable,
    ZeroPolynomialError,
)


def _key_columns(rows: tuple, emax: int) -> list:
    """Per variable, its column of the matrix as one int: each row gets a
    bit field that holds the row's value for any exponents up to emax, the
    first row in the most significant field. A key is then the sum of
    exponent times column, and comparing keys compares row by row."""
    columns, shift = [0] * (len(rows[0]) if rows else 0), 0
    for row in reversed(rows):
        for idx, w in enumerate(row):
            columns[idx] += w << shift
        shift += (emax * sum(row)).bit_length()
    return columns


_KEY_EMAX = (1 << 64) - 1


class TermOrder:
    """A matrix order. Subclasses call _set_matrix once: `variables` are the
    ranked variables and `rows[r][idx]` the weight of variables[idx] in
    row r. A monomial in an unranked variable has no key."""

    __slots__ = ("variables", "rows", "_columns")

    def _set_matrix(self, variables: Sequence[Variable], rows: Iterable[Sequence[int]]) -> None:
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("ranking lists a variable twice")
        self.rows = tuple(tuple(row) for row in rows)
        self._columns = dict(zip(self.variables, _key_columns(self.rows, _KEY_EMAX)))

    def key(self, m: Monomial) -> int:
        """The row values of m, each in its own bit field, first row most
        significant: comparing keys compares monomials. Exponents must stay
        below 2**64."""
        columns, key = self._columns, 0
        for v, e in m.exps:
            col = columns.get(v)
            if col is None:
                raise RingMismatchError(f"variable {v.name} not ranked by this order")
            if e > _KEY_EMAX:
                raise ValueError(f"exponent {e} of {v.name} is too large to order")
            key += e * col
        return key

    def _restricted(self, keep) -> tuple:
        """(variables, rows) of this matrix on the ranked variables in keep."""
        cols = [idx for idx, v in enumerate(self.variables) if v in keep]
        return [self.variables[idx] for idx in cols], [[row[idx] for idx in cols] for row in self.rows]


class LexOrder(TermOrder):
    """Lexicographic order for the given ranking (first variable largest)."""

    __slots__ = ()

    def __init__(self, ranking: Sequence[Variable]):
        size = len(ranking)
        self._set_matrix(ranking, ([int(r == c) for c in range(size)] for r in range(size)))


class DegRevLexOrder(TermOrder):
    """Degree reverse lexicographic order for the given ranking.

    Row r sums the first size - r variables: the degree, then, among equal
    degrees, less of the last variable wins, then less of the one before.
    """

    __slots__ = ()

    def __init__(self, ranking: Sequence[Variable]):
        size = len(ranking)
        self._set_matrix(ranking, ([int(c < size - r) for c in range(size)] for r in range(size)))


class WeightedOrder(TermOrder):
    """Total weight first, then an arbitrary tiebreak order."""

    __slots__ = ("weights",)

    def __init__(self, weights: dict, tiebreak: TermOrder):
        for v, w in weights.items():
            if not isinstance(w, int) or w <= 0:
                raise ValueError(f"weight of {v.name} must be a positive integer, got {w}")
        self.weights = dict(weights)
        variables, rows = tiebreak._restricted(self.weights)
        self._set_matrix(variables, [[self.weights[v] for v in variables], *rows])

    def weight(self, m: Monomial) -> int:
        total = 0
        for v, e in m.exps:
            w = self.weights.get(v)
            if w is None:
                raise RingMismatchError(f"variable {v.name} carries no weight")
            total += w * e
        return total


class BlockOrder(TermOrder):
    """Compare the sub-monomial on the first block, then the rest.

    With the eliminand alone in the first block this is the usual
    elimination order.
    """

    __slots__ = ()

    def __init__(self, first_vars: Iterable[Variable], first: TermOrder, second: TermOrder):
        first_vars = frozenset(first_vars)
        head, head_rows = first._restricted(first_vars)
        tail, tail_rows = second._restricted(set(second.variables) - first_vars)
        pad_head, pad_tail = [0] * len(tail), [0] * len(head)
        rows = [row + pad_head for row in head_rows] + [pad_tail + row for row in tail_rows]
        self._set_matrix(head + tail, rows)


def leading_term(p: Polynomial, order: TermOrder):
    """The order-maximal (monomial, coefficient) pair of a nonzero polynomial."""
    if p.is_zero:
        raise ZeroPolynomialError("zero polynomial has no leading term")
    m = max(p.terms, key=order.key)
    return m, p.terms[m]


def _primitive(terms: list) -> list:
    """Integer terms divided by their content, leading coefficient positive."""
    g = gcd(*(c for _, _, c in terms))
    if terms[0][2] < 0:
        g = -g
    return [(key, exps, c // g) for key, exps, c in terms]


# Exponents up to 15 fit before the first repack; no verify run up to
# (4,4) and no eliminate_x up to (2,4) needs one.
_FIRST_BITS = 4


def _integral(source: Packing, p: Polynomial) -> tuple:
    """p's terms keyed by source and scaled to integers by the lcm of its
    denominators: ({key: int}, that lcm)."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    return {source.key(m): c.numerator * (den // c.denominator) for m, c in p.terms.items()}, den


def _packed(polys: Sequence[Polynomial]) -> list:
    """The one way a Polynomial enters the packed kernel: polys as (source,
    terms) pairs over one source Packing, the terms made integral."""
    source = Packing.over(m for p in polys for m in p.terms)
    return [(source, _integral(source, p)[0]) for p in polys]


class _Reducer:
    """Packed divisor list for repeated normal-form computations.

    Monomials are poly.Packing ints over the order's variables, each with a
    one-int order key from the key columns at the packing's width. Each
    divisor is a primitive integer polynomial with a positive leading
    coefficient: a list of (key, exps, coef) terms in descending key order,
    its leading term first. The list grows through add(). Work that raises
    OverflowError runs through retrying(), which repacks every divisor at
    twice the field width and runs it again. Every polynomial enters as
    integer terms packed by a source Packing (load, unpack).
    """

    def __init__(self, order: TermOrder, basis: Sequence[Polynomial] = ()):
        self.order = order
        self._reset(Packing(order.variables, _FIRST_BITS))
        self.extend(_packed(basis))

    def _reset(self, packing: Packing) -> None:
        self.packing = packing
        variables, rows, emax = self.order.variables, self.order.rows, packing.emax
        self.columns = dict(zip(variables, _key_columns(rows, emax)))
        # columns with the degree in a field above the order key's key_bits
        # bits, for groebner._Run's pair selection
        self.select = dict(zip(variables, _key_columns(((1,) * len(variables), *rows), emax)))
        self.key_bits = sum((emax * sum(row)).bit_length() for row in rows)
        self.imports = {}  # source Packing -> its fragments as (exps, key) parts at this width
        self.polys, self.lead_keys, self.leads, self.lcs, self.tails = [], [], [], [], []

    def widen(self) -> None:
        old = self.divisors()
        self._reset(Packing(self.packing.variables, 2 * self.packing.width))
        self.extend(old)

    def retrying(self, work):
        """work(), run again after a repack for as long as it overflows."""
        while True:
            try:
                return work()
            except OverflowError:
                self.widen()

    def load(self, source: Packing, terms: Mapping[int, int]) -> dict:
        """Integer terms packed by source (for example a minor from
        minors.packed_minors) as work for divide(), {key: [exps, coef]},
        with no Monomial built: each distinct field value of a source group
        becomes its exponent bits and order-key part here once per width.
        OverflowError when an exponent does not fit."""
        parts = self.imports.get(source)
        if parts is None:
            shifts, columns, emax = self.packing.shifts, self.columns, self.packing.emax

            def move(pairs: tuple) -> tuple:
                exps = key = 0
                for v, e in pairs:
                    if e > emax:
                        raise OverflowError(f"exponent {e} of {v.name} exceeds {emax}")
                    if v not in columns:
                        raise RingMismatchError(f"variable {v.name} not ranked by this order")
                    exps += e << shifts[v]
                    key += e * columns[v]
                return exps, key

            parts = self.imports[source] = source.fragments(move)
        work = {}
        for skey, c in terms.items():
            exps = key = 0
            for e, k in parts(skey):
                exps += e
                key += k
            work[key] = [exps, c]
        return work

    def unpack(self, source: Packing, terms: Mapping[int, int]) -> list:
        """load(source, terms) as a primitive packed divisor."""
        if not terms:
            raise ZeroPolynomialError("division by a basis containing zero")
        work = self.load(source, terms)
        return _primitive(sorted(((key, e, c) for key, (e, c) in work.items()), reverse=True))

    def extend(self, basis: Iterable) -> None:
        """add() each (source, terms) of basis as a packed divisor."""
        for source, terms in basis:
            self.retrying(lambda: self.add(self.unpack(source, terms)))

    def divisors(self) -> list:
        """The divisors as (packing, terms) pairs, in list order."""
        return [(self.packing, {exps: c for _, exps, c in f}) for f in self.polys]

    def add(self, poly: list) -> None:
        self.polys.append(poly)
        key, exps, c = poly[0]
        self.lead_keys.append(key)
        self.leads.append(exps)
        self.lcs.append(c)
        self.tails.append(poly[1:])

    def replace(self, idx: int, poly: list) -> None:
        """Swap divisor idx for poly, which has the same leading monomial."""
        self.polys[idx] = poly
        self.lcs[idx] = poly[0][2]
        self.tails[idx] = poly[1:]

    def divide(self, work: dict, stop: bool = False, heap: list = None):
        """Reduce work, {key: [exps, coef]}, fraction-free, consuming it.

        The largest remaining term comes off a heap with lazy deletion (the
        caller may pass one over work's keys) and is rewritten by the first
        divisor whose lead divides it. Before subtracting c/lc times a
        divisor, the whole work is multiplied by lc/gcd(c, lc), so it stays
        integral: the work is always `scale` times the work of exact
        division. Returns the remainder as (key, exps, coef, scale at the
        time) terms in descending key order, and the final scale. With
        stop, returns None at the first term that does not reduce: no later
        term can cancel it, so the remainder is nonzero.
        """
        guard, leads, lcs = self.packing.guard, self.leads, self.lcs
        if heap is None:
            heap = [-key for key in work]
            heapify(heap)
        rem, scale = [], 1
        while heap:
            key = -heappop(heap)
            entry = work.pop(key, None)
            if entry is None:
                continue  # cancelled after it was pushed
            exps, c = entry
            probe = exps | guard
            for idx, lead in enumerate(leads):
                if (probe - lead) & guard == guard:
                    break
            else:
                if stop:
                    return None
                rem.append((key, exps, c, scale))
                continue
            lc = lcs[idx]
            if lc != 1:
                g = gcd(c, lc)
                if g != lc:
                    up = lc // g
                    scale *= up
                    for other in work.values():
                        other[1] *= up
                c //= g
            self.subtract(work, heap, idx, exps - lead, key - self.lead_keys[idx], c)
        return rem, scale

    def subtract(self, work: dict, heap: list, idx: int, qexps: int, qkey: int, f: int) -> None:
        """work -= f * q * tail of divisor idx, for the monomial q with
        exponents qexps and key qkey; new terms go on the heap."""
        guard = self.packing.guard
        for bkey, bexps, bc in self.tails[idx]:
            nexps = bexps + qexps
            if nexps & guard:
                raise OverflowError
            nkey = bkey + qkey
            other = work.get(nkey)
            if other is None:
                work[nkey] = [nexps, -f * bc]
                heappush(heap, -nkey)
            else:
                s = other[1] - f * bc
                if s:
                    other[1] = s
                else:
                    del work[nkey]

    def reduces_to_zero(self, polys: Iterable) -> bool:
        """True when every (source, terms) of polys reduces to zero."""
        return all(self.retrying(lambda: self.divide(self.load(*p), stop=True) is not None) for p in polys)

    def normal_form(self, p: Polynomial) -> Polynomial:
        """The exact remainder of p, with Fraction coefficients."""
        source = Packing.over(p.terms)
        terms, den = _integral(source, p)
        rem, _ = self.retrying(lambda: self.divide(self.load(source, terms)))
        return self.packing.polynomial(p.ring, {exps: Fraction(c, den * s) for _, exps, c, s in rem})


def normal_form(p: Polynomial, basis: Sequence[Polynomial], order: TermOrder) -> Polynomial:
    """Remainder of p on division by basis: no remainder term is divisible
    by any basis leading monomial, and p minus the remainder lies in the
    ideal generated by the basis."""
    for b in basis:
        if b.ring != p.ring:
            raise RingMismatchError("division across different rings")
    return _Reducer(order, basis).normal_form(p)
