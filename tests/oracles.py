"""Independent reference constructions used as test oracles.

Everything here deliberately avoids the library's expansion and
enumeration code paths: determinants come from the raw permutation sum and
covers from exhaustive subset enumeration, so agreement is meaningful.
The all-pairs Groebner check shares the library's reducer and
s-polynomial but none of its pair selection.
"""

from fractions import Fraction
from itertools import combinations, permutations

from resultantforge.groebner import s_polynomial
from resultantforge.orders import _Reducer
from resultantforge.poly import Monomial, Polynomial, Ring


def permutation_det(ring: Ring, grid) -> Polynomial:
    """Leibniz determinant of a square grid of variables/None, summed over
    all permutations with explicit sign tracking."""
    size = len(grid)
    assert all(len(row) == size for row in grid)
    total = Polynomial.zero(ring)
    for perm in permutations(range(size)):
        entries = [grid[row][perm[row]] for row in range(size)]
        if any(v is None for v in entries):
            continue
        inversions = sum(
            1 for a in range(size) for b in range(a + 1, size) if perm[a] > perm[b]
        )
        exps = {}
        for v in entries:
            exps[v] = exps.get(v, 0) + 1
        total = total + Polynomial.term(ring, Monomial(exps), Fraction(-1) ** inversions)
    return total


def sylvester_grid(ring: Ring, i: int, j: int):
    """The classical 2d x 2d Sylvester arrangement for polynomials i and j:
    d rows of i's coefficients shifting right, then d rows of j's."""
    d = ring.d
    grid = []
    for block_poly in (i, j):
        for shift in range(d):
            row = [None] * (2 * d)
            for col in range(d + 1):
                row[shift + col] = ring.coeff(block_poly, col)
            grid.append(row)
    return grid


def sylvester_resultant(ring: Ring, i: int = 1, j: int = 2) -> Polynomial:
    return permutation_det(ring, sylvester_grid(ring, i, j))


def brute_force_minimal_covers(supports):
    """All inclusion-minimal hitting sets by exhaustive subset search."""
    supports = [frozenset(s) for s in supports]
    universe = sorted(set().union(*supports)) if supports else []
    covers = []
    for size in range(len(universe) + 1):
        for pick in combinations(universe, size):
            chosen = frozenset(pick)
            if all(chosen & s for s in supports):
                if not any(prev < chosen for prev in covers):
                    covers.append(chosen)
    return sorted(covers, key=lambda s: (len(s), sorted(s)))


def leibniz_det(grid) -> Fraction:
    """Determinant of a square grid of rationals as the explicit signed sum
    over all permutations."""
    size = len(grid)
    total = Fraction(0)
    for perm in permutations(range(size)):
        inversions = sum(
            1 for a in range(size) for b in range(a + 1, size) if perm[a] > perm[b]
        )
        prod = Fraction(-1) ** inversions
        for row in range(size):
            prod *= grid[row][perm[row]]
        total += prod
    return total


def rank_by_minors(rows) -> int:
    """Rank as the size of the largest square submatrix with a nonzero
    Leibniz determinant, trying every row and column subset."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    for size in range(min(nrows, ncols), 0, -1):
        for pick_rows in combinations(range(nrows), size):
            for pick_cols in combinations(range(ncols), size):
                sub = [[Fraction(rows[r][c]) for c in pick_cols] for r in pick_rows]
                if leibniz_det(sub):
                    return size
    return 0


def all_pairs_groebner(basis, order) -> bool:
    """Full Buchberger criterion: every one of the m(m-1)/2 s-polynomials
    reduces to zero. Reference for the pair-pruned certificate."""
    basis = list(basis)
    reducer = _Reducer(order, basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if reducer.reduce(s_polynomial(basis[i], basis[j], order)):
                return False
    return True
