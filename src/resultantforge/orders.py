"""Term orders and order-dependent operations: comparison, leading terms,
and multivariate polynomial division (normal forms).

Every order is defined through a sortable integer-tuple key, so comparison
is automatically a total multiplicative order with 1 minimal, and leading
terms are plain max() calls. Keys are memoized per order instance.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .poly import (
    Monomial,
    Polynomial,
    RingMismatchError,
    Variable,
    ZeroPolynomialError,
)

LESS, EQUAL, GREATER = -1, 0, 1


class TermOrder:
    """Base class; subclasses implement _key(monomial) -> tuple of ints."""

    __slots__ = ("_cache",)

    def __init__(self):
        self._cache = {}

    def key(self, m: Monomial) -> tuple:
        got = self._cache.get(m)
        if got is None:
            got = self._key(m)
            self._cache[m] = got
        return got

    def _key(self, m: Monomial) -> tuple:
        raise NotImplementedError

    def compare(self, u: Monomial, v: Monomial) -> int:
        ku, kv = self.key(u), self.key(v)
        if ku < kv:
            return LESS
        if ku > kv:
            return GREATER
        return EQUAL


def _rank_map(ranking: Sequence[Variable]) -> dict:
    ranks = {v: idx for idx, v in enumerate(ranking)}
    if len(ranks) != len(ranking):
        raise ValueError("ranking lists a variable twice")
    return ranks


class LexOrder(TermOrder):
    """Lexicographic order for the given ranking (first variable largest)."""

    __slots__ = ("ranking", "_ranks")

    def __init__(self, ranking: Sequence[Variable]):
        super().__init__()
        self.ranking = tuple(ranking)
        self._ranks = _rank_map(self.ranking)

    def _key(self, m: Monomial) -> tuple:
        vec = [0] * len(self.ranking)
        for v, e in m.exps:
            idx = self._ranks.get(v)
            if idx is None:
                raise RingMismatchError(f"variable {v.name} not ranked by this order")
            vec[idx] = e
        return tuple(vec)


class DegRevLexOrder(TermOrder):
    """Degree reverse lexicographic order for the given ranking."""

    __slots__ = ("ranking", "_ranks")

    def __init__(self, ranking: Sequence[Variable]):
        super().__init__()
        self.ranking = tuple(ranking)
        self._ranks = _rank_map(self.ranking)

    def _key(self, m: Monomial) -> tuple:
        vec = [0] * len(self.ranking)
        deg = 0
        for v, e in m.exps:
            idx = self._ranks.get(v)
            if idx is None:
                raise RingMismatchError(f"variable {v.name} not ranked by this order")
            vec[idx] = e
            deg += e
        # ties break on which monomial involves less of the lowest variables
        return (deg,) + tuple(-e for e in reversed(vec))


class WeightedOrder(TermOrder):
    """Total weight first, then an arbitrary tiebreak order."""

    __slots__ = ("weights", "tiebreak")

    def __init__(self, weights: dict, tiebreak: TermOrder):
        super().__init__()
        for v, w in weights.items():
            if w <= 0:
                raise ValueError(f"weight of {v.name} must be positive, got {w}")
        self.weights = dict(weights)
        self.tiebreak = tiebreak

    def weight(self, m: Monomial) -> int:
        total = 0
        for v, e in m.exps:
            w = self.weights.get(v)
            if w is None:
                raise RingMismatchError(f"variable {v.name} carries no weight")
            total += w * e
        return total

    def _key(self, m: Monomial) -> tuple:
        return (self.weight(m), self.tiebreak.key(m))


class BlockOrder(TermOrder):
    """Compare the sub-monomial on the first block, then the rest.

    With the eliminand alone in the first block this is the usual
    elimination order.
    """

    __slots__ = ("first_vars", "first", "second")

    def __init__(self, first_vars: Iterable[Variable], first: TermOrder, second: TermOrder):
        super().__init__()
        self.first_vars = frozenset(first_vars)
        self.first = first
        self.second = second

    def _key(self, m: Monomial) -> tuple:
        head = [p for p in m.exps if p[0] in self.first_vars]
        tail = [p for p in m.exps if p[0] not in self.first_vars]
        return (self.first.key(Monomial._make(tuple(head))),
                self.second.key(Monomial._make(tuple(tail))))


def leading_term(p: Polynomial, order: TermOrder):
    """The order-maximal (monomial, coefficient) pair of a nonzero polynomial."""
    if p.is_zero:
        raise ZeroPolynomialError("zero polynomial has no leading term")
    m = max(p.terms, key=order.key)
    return m, p.terms[m]


class _Reducer:
    """Divisor list for repeated normal-form computations.

    It starts empty or from a basis and grows through add(); each divisor's
    leading term is computed once, when it is added.
    """

    __slots__ = ("lms", "lcs", "tails", "order")

    def __init__(self, order: TermOrder, basis: Sequence[Polynomial] = ()):
        self.order = order
        self.lms, self.lcs, self.tails = [], [], []
        for b in basis:
            self.add(b)

    def add(self, b: Polynomial) -> None:
        if b.is_zero:
            raise ZeroPolynomialError("division by a basis containing zero")
        lm, lc = leading_term(b, self.order)
        self.lms.append(lm)
        self.lcs.append(lc)
        self.tails.append([(m, c) for m, c in b.terms.items() if m != lm])

    def reduce(self, p: Polynomial) -> Polynomial:
        """Full remainder of p against the divisor list.

        The order-largest reducible term is rewritten first, scanning
        divisors in list order, so the result is deterministic.
        """
        key = self.order.key
        lms = self.lms
        work = dict(p.terms)
        remainder = {}
        while work:
            m = max(work, key=key)
            c = work.pop(m)
            hit = -1
            for idx, lm in enumerate(lms):
                if lm.divides(m):
                    hit = idx
                    break
            if hit < 0:
                remainder[m] = c
                continue
            q = m.div(lms[hit])
            factor = c / self.lcs[hit]
            for bm, bc in self.tails[hit]:
                mm = bm.mul(q)
                prev = work.get(mm)
                nc = -factor * bc if prev is None else prev - factor * bc
                if nc:
                    work[mm] = nc
                elif prev is not None:
                    del work[mm]
        return Polynomial(p.ring, remainder, _trusted=True)


def normal_form(p: Polynomial, basis: Sequence[Polynomial], order: TermOrder) -> Polynomial:
    """Remainder of p on division by basis: no remainder term is divisible
    by any basis leading monomial, and p minus the remainder lies in the
    ideal generated by the basis."""
    for b in basis:
        if b.ring != p.ring:
            raise RingMismatchError("division across different rings")
    return _Reducer(order, basis).reduce(p)
