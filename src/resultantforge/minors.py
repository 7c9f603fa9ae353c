"""Symbolic expansion of the determinantal generators.

The generators of the common-root ideal for a (d, n) system are the
(d+k) x (d+k) minors of the cascade matrices M_k, k = 1..d. Each nonzero
minor is recorded together with its row selection and its walk; the subset
indexed by reduced walks is the distinguished basis G.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .cascade import CascadeMatrix, RowSelection, build_cascade
from .poly import Monomial, Polynomial, Ring
from .walks import (
    MinorWalk,
    ZeroMinorError,
    enumerate_reduced,
    enumerate_walks,
    rows_to_walk,
    selection_for_walk,
)

_SIGNS = (Fraction(1), Fraction(-1))


@dataclass(frozen=True)
class GeneratorRecord:
    """One nonzero maximal minor: its depth, rows, walk, and expansion.

    The polynomial is homogeneous of total degree d+k and uses exactly one
    variable of each selected row per term; under the diagonal order its
    leading monomial is the walk's vertex product.
    """

    k: int
    selection: RowSelection
    walk: MinorWalk
    poly: Polynomial

    @property
    def degree(self) -> int:
        return self.k + self.selection.d


def minor_det(m: CascadeMatrix, sel: RowSelection) -> Polynomial:
    """Determinant of the selected rows (lexicographic order) against all
    columns in natural order, with the Leibniz sign convention.

    Expansion proceeds column by column with memoization on the pair
    (remaining rows, next column); subproblems are shared across the minors
    of the same matrix. A zero determinant is a valid output.
    """
    if (sel.d, sel.n, sel.k) != (m.d, m.n, m.k):
        raise ValueError(f"selection {sel!r} does not fit {m!r}")
    rows = sel.pairs
    if len(rows) != m.ncols:
        raise ValueError(f"need {m.ncols} rows for a maximal minor, got {len(rows)}")
    cache = m._minor_cache
    ring = m.ring
    d = m.d

    def expand(rows: tuple, col: int) -> Polynomial:
        if not rows:
            return Polynomial.constant(ring, 1)
        got = cache.get((rows, col))
        if got is not None:
            return got
        out = Polynomial.zero(ring)
        # row (i, j) is nonzero on columns i .. i+d only
        if rows[0][0] + d >= col:
            for idx, (i, j) in enumerate(rows):
                if i > col:
                    break  # later rows start further right; column entry is zero
                if col > i + d:
                    continue
                sub = expand(rows[:idx] + rows[idx + 1 :], col + 1)
                if sub.is_zero:
                    continue
                out = out + sub.mul_term(Monomial(((ring.coeff(j, col - i), 1),)), _SIGNS[idx % 2])
        cache[(rows, col)] = out
        return out

    return expand(rows, 1)


def _expand(d: int, n: int, walks: List[MinorWalk], ring: Optional[Ring]) -> List[GeneratorRecord]:
    """One record per walk, expanding its minor in a cascade matrix built
    once per depth, so the minors of one matrix share its memo."""
    ring = ring if ring is not None else Ring(d, n)
    matrices = {}
    out: List[GeneratorRecord] = []
    for walk in walks:
        k = len(walk) - d
        if k not in matrices:
            matrices[k] = build_cascade(d, n, k, ring)
        sel = selection_for_walk(walk, d, n)
        out.append(GeneratorRecord(k, sel, walk, minor_det(matrices[k], sel)))
    return out


def generator_walks(d: int, n: int) -> List[MinorWalk]:
    """The walks of every generator in output order, k = 1..d. Depths whose
    matrix is too flat to have maximal minors (n*k < d+k) contribute nothing."""
    return [w for k in range(1, d + 1) if n * k >= d + k for w in enumerate_walks(d, n, k)]


def enumerate_generators(d: int, n: int, ring: Optional[Ring] = None) -> List[GeneratorRecord]:
    """One record per nonzero maximal minor of M_k for every k = 1..d.

    Selections with an identically zero minor never appear: the walk
    enumeration only produces in-lattice selections.
    """
    return _expand(d, n, generator_walks(d, n), ring)


def generators_for_basis(d: int, n: int, ring: Optional[Ring] = None) -> List[GeneratorRecord]:
    """The records of reduced walks only: the distinguished basis G."""
    return _expand(d, n, enumerate_reduced(d, n), ring)


def top_minor_records(d: int, n: int, ring: Optional[Ring] = None) -> List[GeneratorRecord]:
    """The 2d x 2d minors of M_d alone; their common zero locus is already
    the common-root variety set-theoretically."""
    return _expand(d, n, enumerate_walks(d, n, d), ring)


def all_selections(d: int, n: int, k: int):
    """Every size-(d+k) row selection of M_k, zero minors included.

    Mostly useful for cross-checking the walk bijection; the production
    enumerators skip zero minors up front.
    """
    from itertools import combinations

    labels = [(i, j) for i in range(1, k + 1) for j in range(1, n + 1)]
    for pick in combinations(labels, d + k):
        yield RowSelection(d, n, k, pick)


def nonzero_selection(sel: RowSelection) -> bool:
    """True when the selection's minor is not identically zero."""
    try:
        rows_to_walk(sel)
    except ZeroMinorError:
        return False
    return True
