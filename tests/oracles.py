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
Polynomial.to_json. substitute is the ring homomorphism var -> image,
multiplied out term by term; chart_by_substitution dehomogenizes every
minor with it, against the library's reduction by a_1_0 - 1 over one
expansion, and planted_vanishing substitutes the planted-root
parametrization into every expanded minor. all_selections lists every row
choice of M_k, zero minors included, for the walk bijection;
is_minor_walk and is_reduced test walks step by step and by deleting each
vertex in turn, against the library's direct enumeration. ChowClass
multiplies out the class of the common-root locus in the truncated Chow
ring, against the closed form of geometry.chow_degree.
"""

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Dict, List, Mapping, Sequence, Tuple

from resultantforge.cascade import CascadeMatrix, RowSelection
from resultantforge.groebner import DEFAULT_LIMITS, IdealPresentation, Limits, ideal_equal, s_polynomial
from resultantforge.minors import enumerate_generators, top_minor_records
from resultantforge.orders import DegRevLexOrder, TermOrder, leading_term
from resultantforge.poly import (
    Monomial,
    Polynomial,
    Ring,
    RingMismatchError,
    Variable,
    ZeroPolynomialError,
    format_rational,
)
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


def substitute(p: Polynomial, assignment: Mapping[Variable, object], into: Ring = None) -> Polynomial:
    """Ring-homomorphic image of p under var -> polynomial (or constant).

    Variables without an image map to themselves; they must then exist
    in the target ring, otherwise a RingMismatchError is raised.
    """
    target = p.ring if into is None else into
    images = {}
    for v, val in assignment.items():
        if isinstance(val, Polynomial):
            if val.ring != target:
                raise RingMismatchError(f"image of {v.name} lives in {val.ring!r}, not {target!r}")
            images[v] = val
        else:
            images[v] = Polynomial.constant(target, val)
    pow_cache = {}

    def power(v: Variable, e: int) -> Polynomial:
        got = pow_cache.get((v, e))
        if got is None:
            base = images[v]
            got = base
            for _ in range(e - 1):
                got = got * base
            pow_cache[(v, e)] = got
        return got

    out = Polynomial.zero(target)
    for mono, c in p.terms.items():
        acc = Polynomial.constant(target, c)
        for v, e in mono.exps:
            if v in images:
                acc = acc * power(v, e)
            elif v in target:
                acc = acc.mul_term(Monomial(((v, e),)), 1)
            else:
                raise RingMismatchError(
                    f"variable {v.name} has no image and is absent from {target!r}"
                )
        out = out + acc
    return out


def chart_by_substitution(d: int, n: int, limits: Limits = DEFAULT_LIMITS, skip=frozenset()) -> bool:
    """Reference for groebner.chart_equal: expand the depth-d minors and the
    whole family separately, substitute a_1_0 = 1 into every term, and
    compare the dehomogenized ideals by mutual membership. The depth-d
    minors of the walks in skip are left out of the depth-d family."""
    ring = Ring(d, n)
    sub = {ring.coeff(1, 0): 1}
    top = [substitute(rec.poly, sub) for rec in top_minor_records(d, n) if rec.walk not in skip]
    full = [substitute(rec.poly, sub) for rec in enumerate_generators(d, n)]
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


def planted_assignment(ring: Ring) -> Dict[Variable, Polynomial]:
    """a_i_j as the x^(d-j) coefficient of (x - r) * (b_i_0 x^(d-1) + ... +
    b_i_(d-1)): a_i_0 = b_i_0, a_i_j = b_i_j - r b_i_(j-1), a_i_d =
    -r b_i_(d-1)."""
    if not ring.with_aux:
        raise ValueError("need a ring with auxiliary symbols")
    d, n = ring.d, ring.n
    r = Polynomial.variable(ring, ring.root)
    out = {}
    for i in range(1, n + 1):
        b = [Polynomial.variable(ring, ring.aux(i, j)) for j in range(d)]
        out[ring.coeff(i, 0)] = b[0]
        for j in range(1, d):
            out[ring.coeff(i, j)] = b[j] - r * b[j - 1]
        out[ring.coeff(i, d)] = -(r * b[d - 1])
    return out


@dataclass
class PlantedReport:
    d: int
    n: int
    generators_checked: int
    nonzero_images: List[tuple]

    @property
    def ok(self) -> bool:
        return not self.nonzero_images


def planted_vanishing(d: int, n: int) -> PlantedReport:
    """Substitute the planted-root parametrization into every generator and
    record any image that fails to be the zero polynomial. A common root
    forces every cascade matrix to drop rank, so all images must vanish
    identically in r and the b variables."""
    aux_ring = Ring(d, n, with_aux=True)
    sub = planted_assignment(aux_ring)
    report = PlantedReport(d, n, 0, [])
    for rec in enumerate_generators(d, n):
        report.generators_checked += 1
        image = substitute(Polynomial(aux_ring, rec.poly.terms, _trusted=True), sub)
        if not image.is_zero:
            report.nonzero_images.append((rec.k, rec.selection.pairs))
    return report


def all_selections(d: int, n: int, k: int):
    """Every size-(d+k) row selection of M_k, zero minors included."""
    labels = [(i, j) for i in range(1, k + 1) for j in range(1, n + 1)]
    for pick in combinations(labels, d + k):
        yield RowSelection(d, n, k, pick)


def nonzero_selection(sel: RowSelection) -> bool:
    """True when the selection's minor is not identically zero: its s-th
    row (i_s, j_s) meets the diagonal column s, i_s <= s <= i_s + d."""
    return all(0 <= s - i <= sel.d for s, (i, _) in enumerate(sel.pairs, start=1))


def _legal_step(u1: int, v1: int, u2: int, v2: int) -> bool:
    return v2 <= v1 or (v2 == v1 + 1 and u2 > u1)


def is_minor_walk(steps: Sequence[Tuple[int, int]], d: int, n: int) -> bool:
    """True when the steps stay in the n x (d+1) lattice, run from v = 0 to
    v = d, and each step keeps or lowers v or raises v by one while
    raising u."""
    steps = list(steps)
    if not steps:
        return False
    if any(not (1 <= u <= n and 0 <= v <= d) for u, v in steps):
        return False
    if steps[0][1] != 0 or steps[-1][1] != d:
        return False
    return all(
        _legal_step(steps[s][0], steps[s][1], steps[s + 1][0], steps[s + 1][1])
        for s in range(len(steps) - 1)
    )


def is_reduced(steps: Sequence[Tuple[int, int]], d: int, n: int) -> bool:
    """True when the steps form a walk from which no vertex can be deleted."""
    steps = list(steps)
    if not is_minor_walk(steps, d, n):
        return False
    for s in range(len(steps)):
        if is_minor_walk(steps[:s] + steps[s + 1 :], d, n):
            return False
    return True


@dataclass(frozen=True)
class ChowClass:
    """An element of Z[H1,H2] / (H1^2, H2^(n+D)), stored sparsely."""

    h2_bound: int  # exponents of H2 live in 0 .. h2_bound-1
    coeffs: Tuple[Tuple[Tuple[int, int], int], ...]

    @classmethod
    def make(cls, h2_bound: int, coeffs: Dict[Tuple[int, int], int]) -> "ChowClass":
        kept = {
            (e1, e2): c
            for (e1, e2), c in coeffs.items()
            if c and e1 < 2 and e2 < h2_bound
        }
        return cls(h2_bound, tuple(sorted(kept.items())))

    def mul(self, other: "ChowClass") -> "ChowClass":
        if self.h2_bound != other.h2_bound:
            raise ValueError("classes live in different Chow rings")
        acc: Dict[Tuple[int, int], int] = {}
        for (e1, e2), c in self.coeffs:
            for (f1, f2), k in other.coeffs:
                g = (e1 + f1, e2 + f2)
                if g[0] < 2 and g[1] < self.h2_bound:
                    acc[g] = acc.get(g, 0) + c * k
        return ChowClass.make(self.h2_bound, acc)

    def coefficient(self, e1: int, e2: int) -> int:
        return dict(self.coeffs).get((e1, e2), 0)


def chow_product_degree(degrees: Sequence[int]) -> int:
    """The degree of the common-root locus multiplied out in the truncated
    ring: the product of the divisor classes d_i*H1 + H2, capped with H2^D,
    read at H1*H2^(n-1+D)."""
    n, D = len(degrees), sum(degrees)
    bound = n + D
    acc = ChowClass.make(bound, {(0, 0): 1})
    for d in degrees:
        acc = acc.mul(ChowClass.make(bound, {(1, 0): d, (0, 1): 1}))
    acc = acc.mul(ChowClass.make(bound, {(0, D): 1}))
    return acc.coefficient(1, n - 1 + D)
