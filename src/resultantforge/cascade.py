"""Cascading coefficient matrices.

For a system of n univariate degree-d polynomials and a depth 1 <= k <= d,
the cascade matrix M_k is the nk x (d+k) matrix stacking k copies of the
n x (d+1) coefficient grid, each copy shifted one column to the right of
the one above. Vanishing of all maximal minors of M_k for every k
characterizes the coefficient tuples whose polynomials share a projective
root; selecting rows of M_k is the combinatorial core of everything else
in this package.
"""

from __future__ import annotations

from typing import Optional

from .poly import Ring, Variable


class CascadeMatrix:
    """The nk x (d+k) cascade matrix of depth k.

    Rows are indexed by pairs (i, j): copy i in 1..k, polynomial j in 1..n,
    flattened in lexicographic (i, j) order. Row (i, j) carries
    a_j_0 .. a_j_d in columns i .. i+d (1-based) and zeros elsewhere.
    """

    __slots__ = ("d", "n", "k", "ring")

    def __init__(self, d: int, n: int, k: int):
        if d < 1:
            raise ValueError(f"degree d must be >= 1, got {d}")
        if n < 2:
            raise ValueError(f"need at least 2 polynomials, got n={n}")
        if not (1 <= k <= d):
            raise ValueError(f"cascade depth k must satisfy 1 <= k <= {d}, got {k}")
        self.d = d
        self.n = n
        self.k = k
        self.ring = Ring(d, n)

    @property
    def nrows(self) -> int:
        return self.n * self.k

    @property
    def ncols(self) -> int:
        return self.d + self.k

    def _check_label(self, i: int, j: int) -> None:
        if not (1 <= i <= self.k):
            raise IndexError(f"copy index {i} outside 1..{self.k}")
        if not (1 <= j <= self.n):
            raise IndexError(f"polynomial index {j} outside 1..{self.n}")

    def entry_variable(self, i: int, j: int, col: int) -> Optional[Variable]:
        """The variable at row (i, j), column col (1-based), or None for zero."""
        self._check_label(i, j)
        if not (1 <= col <= self.ncols):
            raise IndexError(f"column {col} outside 1..{self.ncols}")
        shift = col - i
        if 0 <= shift <= self.d:
            return self.ring.coeff(j, shift)
        return None

    def row_entries(self, i: int, j: int) -> list:
        """The d+1 nonzero entries of row (i, j) as (column, variable) pairs."""
        self._check_label(i, j)
        return [(i + s, self.ring.coeff(j, s)) for s in range(self.d + 1)]

    def rows(self) -> list:
        """All row labels in lexicographic order, top to bottom."""
        return [(i, j) for i in range(1, self.k + 1) for j in range(1, self.n + 1)]

    def name_grid(self) -> list:
        """The grid as variable names with "0" for zero entries."""
        cells = [[self.entry_variable(i, j, c) for c in range(1, self.ncols + 1)] for i, j in self.rows()]
        return [["0" if v is None else v.name for v in row] for row in cells]

    def __repr__(self) -> str:
        return f"CascadeMatrix(d={self.d}, n={self.n}, k={self.k})"


class RowSelection:
    """A size-(d+k) choice of rows of M_k, kept in lexicographic order."""

    __slots__ = ("d", "n", "k", "pairs")

    def __init__(self, d: int, n: int, k: int, pairs):
        pairs = tuple((int(i), int(j)) for i, j in pairs)
        if len(pairs) != d + k:
            raise ValueError(f"need {d + k} rows, got {len(pairs)}")
        for i, j in pairs:
            if not (1 <= i <= k and 1 <= j <= n):
                raise ValueError(f"row label ({i},{j}) outside 1..{k} x 1..{n}")
        if any(pairs[s] >= pairs[s + 1] for s in range(len(pairs) - 1)):
            raise ValueError("row labels must be strictly increasing")
        self.d = d
        self.n = n
        self.k = k
        self.pairs = pairs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RowSelection)
            and (self.d, self.n, self.k, self.pairs) == (other.d, other.n, other.k, other.pairs)
        )

    def __hash__(self) -> int:
        return hash((self.d, self.n, self.k, self.pairs))

    def __repr__(self) -> str:
        return f"RowSelection(d={self.d}, n={self.n}, k={self.k}, {list(self.pairs)})"
