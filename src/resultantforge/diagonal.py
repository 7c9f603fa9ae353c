"""The diagonal-selecting weighted term order.

Weights on the coefficient variables are built from an increasing sequence
of positive increments

    x_n_1 < x_(n-1)_1 < ... < x_1_1 < x_n_2 < ... < x_1_d,

instantiated canonically as the consecutive integers 1..nd. Every a_k_d
gets weight 1 and w_k_l - w_k_(l+1) = x_k_(l+1) going down the columns.
Under any order compatible with these weights, the leading monomial of a
nonzero maximal minor of any cascade matrix is the product of its diagonal
entries, and the dominance is strict in weight: swapping any off-diagonal
pair of a permutation term against the corresponding straightened pair
raises the weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .minors import enumerate_generators
from .orders import DegRevLexOrder, TermOrder, WeightedOrder, leading_term
from .poly import Ring


@dataclass(frozen=True)
class DiagonalWeights:
    """Increments x[k,l] (l in 1..d) and derived weights w[k,l] (l in 0..d)."""

    d: int
    n: int
    increments: dict
    weights: dict


def build_diagonal_weights(d: int, n: int) -> DiagonalWeights:
    """Canonical instantiation x[k,l] = (l-1)n + (n-k+1), i.e. 1..nd."""
    if d < 1 or n < 2:
        raise ValueError(f"invalid parameters (d={d}, n={n})")
    increments = {}
    for l in range(1, d + 1):
        for k in range(1, n + 1):
            increments[(k, l)] = (l - 1) * n + (n - k + 1)
    weights = {}
    for k in range(1, n + 1):
        weights[(k, d)] = 1
        for l in range(d - 1, -1, -1):
            weights[(k, l)] = weights[(k, l + 1)] + increments[(k, l + 1)]
    return DiagonalWeights(d, n, increments, weights)


def diagonal_order(dw: DiagonalWeights) -> TermOrder:
    """Weighted order with degrevlex tiebreak over the row-major ranking of
    Ring(dw.d, dw.n)."""
    ring = Ring(dw.d, dw.n)
    weights = {ring.coeff(i, j): dw.weights[(i, j)] for i in range(1, dw.n + 1) for j in range(dw.d + 1)}
    return WeightedOrder(weights, DegRevLexOrder(ring.coeff_vars_row_major()))


@dataclass
class DiagonalReport:
    """Outcome of checking the diagonal-leading-term property at one size."""

    d: int
    n: int
    minors_checked: int = 0
    lead_violations: List[tuple] = field(default_factory=list)
    dominance_violations: List[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.lead_violations and not self.dominance_violations


def verify_diagonal_property(d: int, n: int) -> DiagonalReport:
    """Check, for every nonzero maximal minor of every M_k, that the
    leading monomial under the diagonal order is the diagonal product and
    that its weight strictly exceeds the weight of every other term."""
    from .walks import walk_leading_monomial

    ring = Ring(d, n)
    dw = build_diagonal_weights(d, n)
    order = diagonal_order(dw)
    report = DiagonalReport(d, n)
    for rec in enumerate_generators(d, n):
        report.minors_checked += 1
        expected = walk_leading_monomial(rec.walk, ring)
        lead, _ = leading_term(rec.poly, order)
        if lead != expected:
            report.lead_violations.append((rec.k, rec.selection.pairs, expected, lead))
            continue
        top = order.weight(expected)
        for mono in rec.poly.terms:
            if mono != expected and order.weight(mono) >= top:
                report.dominance_violations.append((rec.k, rec.selection.pairs, mono))
    return report
