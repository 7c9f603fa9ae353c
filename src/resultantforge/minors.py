"""Symbolic expansion of the determinantal generators.

The generators of the common-root ideal for a (d, n) system are the
(d+k) x (d+k) minors of the cascade matrices M_k, k = 1..d. A generator
is named by its depth k and its rows ((i_1, j_1), ..., (i_{d+k}, j_{d+k})),
as generator_rows lists them; a GeneratorRecord adds its row selection,
walk and expansion. The subset indexed by reduced walks is the
distinguished basis G.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional

from .cascade import RowSelection
from .poly import Packing, Polynomial, Ring
from .walks import enumerate_walks  # stays bound here for perfbench/tracing.py
from .walks import MinorWalk, enumerate_reduced, enumerate_rows, rows_to_walk, walk_rows

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


def band_det(rows: tuple, d: int, one, zero, times, memo: dict):
    """Determinant of the cascade rows (i, j) in lexicographic order against
    all columns in natural order, with the Leibniz sign convention.

    Row (i, j) carries the coefficients of polynomial j in columns i .. i+d,
    so the expansion runs column by column along that band. The caller
    picks the ring: times(acc, sub, j, s, odd) is the fused multiply-
    accumulate acc + sub * a_j_s, or acc - sub * a_j_s when odd, with acc
    None for the first nonzero child of a frame. A frame's acc is only ever
    what times returned to that frame, never a memo entry, one or zero, so
    times may update it in place. memo maps remaining rows to their minor
    and may be shared only by minors of the same M_k; it keeps the
    sub-minors, not the result. A zero determinant is a valid output.
    """

    def expand(rows: tuple, col: int):
        if not rows:
            return one
        got = memo.get(rows)
        if got is not None:
            return got
        out = None
        # row (i, j) is nonzero on columns i .. i+d only
        if rows[0][0] + d >= col:
            for idx, (i, j) in enumerate(rows):
                if i > col:
                    break  # later rows start further right; column entry is zero
                if col > i + d:
                    continue
                sub = expand(rows[:idx] + rows[idx + 1 :], col + 1)
                if sub:
                    out = times(out, sub, j, col - i, idx % 2)
        if out is None:
            out = zero
        memo[rows] = out
        return out

    out = expand(rows, 1)
    memo.pop(rows, None)  # later minors of this M_k only read smaller row sets
    return out


def _symbolic(ring: Ring, steps: Optional[Mapping] = None) -> tuple:
    """one, zero, the band_det multiply-accumulate and the Packing of the
    keys for symbolic minors as {packed exponent int: int coefficient}
    dicts (Monagan & Pearce, CASC 2007).

    Variable a_j_s owns a field of (d+1).bit_length() bits in the one
    layout of poly.Packing, a_1_0 the most significant; its exponent in a
    minor of M_k is at most k <= d, so fields never carry, multiplying by
    a_j_s adds its unit step to every key, and keys sort in canonical
    order. The first product of a frame is a new dict and every later one
    is merged into it in place. Packing.polynomial decodes a finished minor.
    steps, if given, maps each coefficient variable to the int that
    multiplying by it adds instead, such as the kernel ints of
    orders._Reducer.steps; the Packing is then None.
    """
    packing = None
    if steps is None:
        packing = Packing(ring.coeff_vars_row_major(), (ring.d + 1).bit_length())
        steps = {v: 1 << shift for v, shift in packing.shifts.items()}
    steps = [[steps[ring.coeff(j, s)] for s in range(ring.d + 1)] for j in range(1, ring.n + 1)]

    def times(acc: Optional[dict], sub: dict, j: int, s: int, odd: int) -> dict:
        step = steps[j - 1][s]
        if acc is None:
            if odd:
                return {key + step: -c for key, c in sub.items()}
            return {key + step: c for key, c in sub.items()}
        get = acc.get
        for key, c in sub.items():
            key += step
            c = get(key, 0) - c if odd else get(key, 0) + c
            if c:
                acc[key] = c
            else:
                del acc[key]
        return acc

    return {0: 1}, {}, times, packing


def walk_minors(d: int, gens: Iterable[tuple], one, zero, times):
    """The minor of each generator (k, rows), in order, by band_det with
    the caller's multiply-accumulate. A run of minors of one depth shares a
    memo, dropped when the depth changes: every caller lists its generators
    depth by depth."""
    depth, memo = None, None
    for k, rows in gens:
        if k != depth:
            depth, memo = k, {}
        yield band_det(rows, d, one, zero, times, memo)


def packed_minors(ring: Ring, gens: Iterable[tuple]) -> tuple:
    """The Packing of ring's coefficient variables and an iterator over the
    minor of each generator (k, rows) as {packed key: int coefficient}.
    Each minor is expanded as the iterator reaches it and is never
    decoded."""
    one, zero, times, packing = _symbolic(ring)
    return packing, walk_minors(ring.d, gens, one, zero, times)


def expand_walks(d: int, n: int, gens: Iterable[tuple]) -> List[GeneratorRecord]:
    """One record per generator (k, rows) with its minor expanded
    symbolically."""
    ring = Ring(d, n)
    gens = list(gens)
    packing, minors = packed_minors(ring, gens)
    out = []
    for (k, rows), minor in zip(gens, minors):
        sel = RowSelection(d, n, k, rows)
        out.append(GeneratorRecord(k, sel, rows_to_walk(sel), packing.polynomial(ring, minor)))
    return out


def generator_rows(d: int, n: int) -> List[tuple]:
    """(k, rows) of every generator in output order, k = 1..d, rows in
    enumerate_rows order. Depths whose matrix is too flat to have maximal
    minors (n*k < d+k) contribute nothing."""
    return [(k, rows) for k in range(1, d + 1) if n * k >= d + k for rows in enumerate_rows(d, n, k)]


def reduced_rows(d: int, n: int) -> List[tuple]:
    """(k, rows) of every reduced walk: the generators of the basis G."""
    return [walk_rows(walk, d) for walk in enumerate_reduced(d, n)]


def enumerate_generators(d: int, n: int) -> List[GeneratorRecord]:
    """One record per nonzero maximal minor of M_k for every k = 1..d.

    Selections with an identically zero minor never appear: the walk
    enumeration only produces in-lattice selections.
    """
    return expand_walks(d, n, generator_rows(d, n))


def generators_for_basis(d: int, n: int) -> List[GeneratorRecord]:
    """The records of reduced walks only: the distinguished basis G."""
    return expand_walks(d, n, reduced_rows(d, n))


def top_minor_records(d: int, n: int) -> List[GeneratorRecord]:
    """The 2d x 2d minors of M_d alone; their common zero locus is already
    the common-root variety set-theoretically."""
    return expand_walks(d, n, ((d, rows) for rows in enumerate_rows(d, n, d)))
