"""Independent reference constructions used as test oracles.

Everything here deliberately avoids the library's expansion and
enumeration code paths: determinants come from the raw permutation sum and
covers from exhaustive subset enumeration, so agreement is meaningful.
_Reducer is the reference division: Fraction coefficients, Monomial
arithmetic and a max() rescan of the work for every step, against the
library's packed, fraction-free, heap-driven reducer. The all-pairs
Groebner check reduces with it and shares only the library's
Polynomial-level s-polynomial, none of its pair selection. Ranks of
specialized cascade matrices come from Bareiss elimination, not from the
library's band recursion. polynomial_text and reference_export print by
walking each Monomial's sorted exponents in canonical_key order, against
the library's packed printer; the JSON reference is json.dumps of
Polynomial.to_json. chart_by_substitution dehomogenizes every minor with
Polynomial.substitute, against the library's reduction by a_1_0 - 1 over
one expansion.
"""

import functools
import json
from fractions import Fraction
from itertools import combinations, permutations
from typing import List, Sequence

from resultantforge.cascade import CascadeMatrix
from resultantforge.groebner import DEFAULT_LIMITS, IdealPresentation, Limits, ideal_equal, s_polynomial
from resultantforge.minors import enumerate_generators, top_minor_records
from resultantforge.orders import DegRevLexOrder, TermOrder, leading_term
from resultantforge.poly import Monomial, Polynomial, Ring, ZeroPolynomialError, format_rational
from resultantforge.roots import CoefficientTuple, _integer_rows


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


def divides(a: Monomial, b: Monomial) -> bool:
    """a divides b: no exponent of a exceeds b's."""
    exps = dict(b.exps)
    return all(exps.get(v, 0) >= e for v, e in a.exps)


class _Reducer:
    """Divisor list for repeated normal-form computations.

    It starts empty or from a basis and grows through add(); each divisor's
    leading term is computed once, when it is added.
    """

    __slots__ = ("lms", "lcs", "tails", "order", "key")

    def __init__(self, order: TermOrder, basis: Sequence[Polynomial] = ()):
        self.order = order
        self.key = functools.cache(order.key)  # order keys are not memoized
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
        key = self.key
        lms = self.lms
        work = dict(p.terms)
        remainder = {}
        while work:
            m = max(work, key=key)
            c = work.pop(m)
            hit = -1
            for idx, lm in enumerate(lms):
                if divides(lm, m):
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


def reduces_to_zero(polys: Sequence[Polynomial], basis: Sequence[Polynomial], order: TermOrder) -> bool:
    """True when every polynomial reduces to zero against the basis under
    the reference _Reducer."""
    reducer = _Reducer(order, basis)
    return all(reducer.reduce(p).is_zero for p in polys)


def all_pairs_groebner(basis, order) -> bool:
    """Full Buchberger criterion: every one of the m(m-1)/2 s-polynomials
    reduces to zero under the reference _Reducer. Reference for the
    pair-pruned certificate."""
    basis = list(basis)
    reducer = _Reducer(order, basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if reducer.reduce(s_polynomial(basis[i], basis[j], order)):
                return False
    return True


def chart_by_substitution(d: int, n: int, limits: Limits = DEFAULT_LIMITS, skip=frozenset()) -> bool:
    """Reference for groebner.chart_equal: expand the depth-d minors and the
    whole family separately, substitute a_1_0 = 1 into every term, and
    compare the dehomogenized ideals by mutual membership. The depth-d
    minors of the walks in skip are left out of the depth-d family."""
    ring = Ring(d, n)
    sub = {ring.coeff(1, 0): 1}
    top = [rec.poly.substitute(sub) for rec in top_minor_records(d, n, ring) if rec.walk not in skip]
    full = [rec.poly.substitute(sub) for rec in enumerate_generators(d, n, ring)]
    order = DegRevLexOrder(ring.coeff_vars_column_major())
    pres_top = IdealPresentation(ring, top, order)
    pres_full = IdealPresentation(ring, full, order)
    return ideal_equal(pres_top, pres_full, limits)


def specialized_rows(matrix: CascadeMatrix, c: CoefficientTuple) -> List[List[Fraction]]:
    """The cascade matrix with the tuple's values filled in."""
    if (matrix.d, matrix.n) != (c.d, c.n):
        raise ValueError(f"tuple for (d={c.d}, n={c.n}) does not fit {matrix!r}")
    grid = []
    for (i, j) in matrix.rows():
        row = [Fraction(0)] * matrix.ncols
        for col, var in matrix.row_entries(i, j):
            row[col - 1] = c.values[var.i - 1][var.j]
        grid.append(row)
    return grid


def exact_rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals of a grid of ints or Fractions.

    Each row is scaled to integers by the lcm of its denominators, which
    leaves the rank unchanged. Bareiss's fraction-free elimination then
    keeps every entry, up to sign, a minor of the scaled grid, so each
    division by the previous pivot is exact.
    """
    grid = _integer_rows(rows)
    if not grid:
        return 0
    nrows, ncols = len(grid), len(grid[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if grid[r][col]), None)
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        head = grid[rank]
        p = head[col]
        for r in range(rank + 1, nrows):
            row = grid[r]
            f = row[col]
            for cc in range(col + 1, ncols):
                row[cc] = (p * row[cc] - f * head[cc]) // prev
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def _term_text(mono: Monomial, coeff, namer) -> str:
    body = "*".join(namer(v) if e == 1 else f"{namer(v)}^{e}" for v, e in mono.exps)
    c = format_rational(coeff)
    if not body:
        return c
    if c == "1":
        return body
    if c == "-1":
        return f"-{body}"
    return f"{c}*{body}"


def polynomial_text(p: Polynomial, namer=str) -> str:
    """Terms in descending canonical_key order, each rendered variable by
    variable from the Monomial."""
    if p.is_zero:
        return "0"
    monos = sorted(p.terms, key=p.ring.canonical_key, reverse=True)
    text = _term_text(monos[0], p.terms[monos[0]], namer)
    for m in monos[1:]:
        c = p.terms[m]
        piece = _term_text(m, abs(c), namer)
        text += f" - {piece}" if c < 0 else f" + {piece}"
    return text


def reference_export(ring: Ring, polys: Sequence[Polynomial], fmt: str, alias=None) -> str:
    """The ideal document in fmt, each format assembled whole."""
    if fmt == "json":
        doc = {"d": ring.d, "n": ring.n, "generators": [p.to_json() for p in polys]}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "text":
        return "\n".join(polynomial_text(p) for p in polys) + "\n"
    columns = ring.coeff_vars_column_major()
    if fmt == "singular":
        namer = lambda v: f"a({v.i})({v.j})"
        decl = ",".join(namer(v) for v in columns)
        body = ",\n  ".join(polynomial_text(p, namer) for p in polys)
        return f"ring r = 0, ({decl}), dp;\nideal I = {body};\n"
    assert fmt == "m2"
    letters = "abcdefghijklmnopqrstuvwxyz"
    if alias is None:
        alias = ring.d + 1 <= len(letters)
    if alias:
        namer = lambda v: f"{letters[v.j]}_{v.i}"
        decl = ",".join(f"{letters[j]}_1..{letters[j]}_{ring.n}" for j in range(ring.d + 1))
    else:
        namer = lambda v: f"a_({v.i},{v.j})"
        decl = ",".join(namer(v) for v in columns)
    body = ",\n".join(f"  {polynomial_text(p, namer)}" for p in polys)
    return f"R = QQ[{decl}];\nI = ideal(\n{body}\n);\n"
