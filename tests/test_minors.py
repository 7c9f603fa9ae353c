"""Determinant expansion and the generator families."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resultantforge.cascade import CascadeMatrix, RowSelection
from resultantforge.minors import (
    _symbolic,
    band_det,
    enumerate_generators,
    generator_rows,
    packed_minors,
)
from resultantforge.poly import Monomial, Polynomial, Ring
from resultantforge.roots import CoefficientTuple, _integer_rows, _integer_times
from resultantforge.walks import enumerate_walks, selection_for_walk, walk_leading_monomial

from conftest import GRID
from oracles import (
    all_selections,
    exact_rank,
    leibniz_det,
    nonzero_selection,
    permutation_det,
    specialized_rows,
    sylvester_resultant,
)


def equal_up_to_sign(p, q):
    return p == q or p == -q


def expand_minors(ring, gens):
    """The minor of each (k, rows), zero selections included, as a Polynomial."""
    packing, minors = packed_minors(ring, gens)
    return [packing.polynomial(ring, minor) for minor in minors]


def selection_minors(d, n, k):
    """Every row selection of M_k with its expanded minor."""
    sels = list(all_selections(d, n, k))
    return zip(sels, expand_minors(Ring(d, n), [(k, sel.pairs) for sel in sels]))


class TestMinorDet:
    def test_two_by_two(self):
        ring = Ring(1, 2)
        (det,) = expand_minors(ring, [(1, ((1, 1), (1, 2)))])
        want = Polynomial(
            ring,
            {
                Monomial({ring.coeff(1, 0): 1, ring.coeff(2, 1): 1}): Fraction(1),
                Monomial({ring.coeff(1, 1): 1, ring.coeff(2, 0): 1}): Fraction(-1),
            },
        )
        assert det == want

    def test_three_by_three_has_six_terms(self):
        ring = Ring(2, 3)
        (det,) = expand_minors(ring, [(1, ((1, 1), (1, 2), (1, 3)))])
        assert len(det.terms) == 6
        assert all(abs(c) == 1 for c in det.terms.values())

    def test_agrees_with_permutation_oracle(self):
        # at (4, 2, 4) an exponent reaches k = d = 4, the bound the packed fields rely on
        for (d, n, k) in [(1, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2), (3, 2, 3), (4, 2, 4)]:
            m = CascadeMatrix(d, n, k)
            for sel, det in selection_minors(d, n, k):
                grid = [
                    [m.entry_variable(i, j, col) for col in range(1, m.ncols + 1)]
                    for (i, j) in sel.pairs
                ]
                assert det == permutation_det(m.ring, grid)

    def test_coefficients_are_fractions(self, all_records):
        for d, n in GRID:
            for _, det in selection_minors(d, n, d):
                assert all(type(c) is Fraction for c in det.terms.values())
            for rec in all_records[(d, n)]:
                assert all(type(c) is Fraction for c in rec.poly.terms.values())

    def test_zero_selection_expands_to_zero(self):
        sel = RowSelection(3, 3, 3, [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
        assert not nonzero_selection(sel)
        (det,) = expand_minors(Ring(3, 3), [(3, sel.pairs)])
        assert det.is_zero

    def test_zero_iff_out_of_lattice(self):
        for (d, n, k) in [(2, 3, 2), (3, 3, 2), (3, 3, 3), (2, 4, 2)]:
            for sel, det in selection_minors(d, n, k):
                assert nonzero_selection(sel) == (not det.is_zero)


class TestGeneratorRows:
    @pytest.mark.parametrize("dn", GRID + [(3, 4), (4, 3), (2, 5)])
    def test_matches_walks_and_their_selections(self, dn):
        d, n = dn
        want = []
        for k in range(1, d + 1):
            if n * k >= d + k:
                want += [(k, selection_for_walk(w, d, n).pairs) for w in enumerate_walks(d, n, k)]
        assert generator_rows(d, n) == want

    @pytest.mark.parametrize("dn", GRID + [(3, 4), (4, 3), (2, 5)])
    def test_lists_the_nonzero_selections_in_walk_order(self, dn):
        # independent of the recursion: filter every selection, then sort by
        # the walk's (v_s, u_s) sequence, the order the depth-first walk visits
        d, n = dn
        want = []
        for k in range(1, d + 1):
            if n * k >= d + k:
                picks = [sel.pairs for sel in all_selections(d, n, k) if nonzero_selection(sel)]
                picks.sort(key=lambda rows: [(s - i, j) for s, (i, j) in enumerate(rows, start=1)])
                want += [(k, rows) for rows in picks]
        assert generator_rows(d, n) == want

    def test_empty_for_one_polynomial(self):
        assert all(generator_rows(d, 1) == [] for d in range(1, 6))


@st.composite
def integer_tuples(draw):
    """A small (d, n, k) and an integer coefficient tuple for it, zeros
    allowed, so some selected minors vanish at the tuple."""
    shapes = [(1, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2), (3, 2, 3), (3, 3, 2), (2, 4, 2)]
    d, n, k = draw(st.sampled_from(shapes))
    row = st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1)
    return k, CoefficientTuple(d, n, draw(st.lists(row, min_size=n, max_size=n)))


class TestBandDet:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(integer_tuples())
    def test_integer_recursion_matches_leibniz(self, case):
        # every selection, zero minors included, through one shared memo
        k, tup = case
        d, n = tup.d, tup.n
        grid = specialized_rows(CascadeMatrix(d, n, k), tup)
        times, memo = _integer_times(_integer_rows(tup.values)), {}
        for sel in all_selections(d, n, k):
            rows = [grid[(i - 1) * n + j - 1] for i, j in sel.pairs]
            assert band_det(sel.pairs, d, 1, 0, times, memo) == leibniz_det(rows)
            assert sel.pairs not in memo  # the memo keeps sub-minors only


class TestSharedMemo:
    """The packed multiply-accumulate updates only the dict its own frame
    made, so sub-minors shared through a memo keep their values."""

    @pytest.mark.parametrize("dn", [(3, 3), (2, 4)])
    def test_accumulation_never_mutates_shared_sub_minors(self, dn):
        d, n = dn
        ring = Ring(d, n)
        one, zero, times, _ = _symbolic(ring)
        for k in range(1, d + 1):
            if n * k < d + k:
                continue  # M_k is too flat to have maximal minors
            memo = {}
            for sel in all_selections(d, n, k):
                band_det(sel.pairs, d, one, zero, times, memo)
            assert memo
            for rows, got in memo.items():
                # rows are left for columns d+k-len(rows)+1 .. d+k; shifting
                # them left by the columns already used restarts at column 1
                shift = d + k - len(rows)
                fresh = band_det(tuple((i - shift, j) for i, j in rows), d, one, zero, times, {})
                assert got == fresh, rows
        assert one == {0: 1} and zero == {}

    def test_packed_minors_match_permutation_oracle(self, all_records, rings):
        # all_records expands each (d, n) through one memo per depth
        for dn in GRID:
            for rec in all_records[dn]:
                m = CascadeMatrix(*dn, rec.k)
                grid = [[m.entry_variable(i, j, col) for col in range(1, m.ncols + 1)] for i, j in rec.selection.pairs]
                assert rec.poly == permutation_det(rings[dn], grid)


class TestEnumerateGenerators:
    def test_counts(self, all_records):
        assert len(all_records[(2, 3)]) == 16
        assert len(all_records[(2, 2)]) == 1
        assert len(enumerate_generators(1, 3)) == 3

    def test_small_depths_may_be_empty(self):
        # a 2 x (d+1) single-copy matrix has no maximal minors
        ks = {rec.k for rec in enumerate_generators(2, 2)}
        assert ks == {2}
        ks = {rec.k for rec in enumerate_generators(3, 2)}
        assert ks == {3}

    def test_single_polynomial_has_no_generators(self):
        # every M_k of one polynomial is too flat; the walk enumerator itself
        # rejects n = 1, so the flatness guard must skip it
        assert enumerate_generators(2, 1) == []

    def test_homogeneous_and_per_row_degrees(self, all_records):
        for (d, n) in GRID:
            for rec in all_records[(d, n)]:
                degree = d + rec.k
                row_count = {}
                for (i, j) in rec.selection.pairs:
                    row_count[j] = row_count.get(j, 0) + 1
                for mono in rec.poly.terms:
                    assert mono.degree == degree
                    per_poly = {}
                    for v, e in mono.exps:
                        per_poly[v.i] = per_poly.get(v.i, 0) + e
                    assert per_poly == row_count

    def test_walk_matches_selection(self, all_records):
        from resultantforge.walks import rows_to_walk

        for (d, n) in GRID:
            for rec in all_records[(d, n)]:
                assert rows_to_walk(rec.selection) == rec.walk


class TestBasisRecords:
    def test_counts(self, basis_records):
        assert len(basis_records[(2, 2)]) == 1
        assert len(basis_records[(1, 2)]) == 1
        assert len(basis_records[(2, 3)]) == 7

    def test_square_free_leads(self, basis_records, rings):
        for (d, n) in GRID:
            ring = rings[(d, n)]
            for rec in basis_records[(d, n)]:
                assert walk_leading_monomial(rec.walk, ring).is_squarefree


class TestSylvesterEquivalence:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_unique_top_minor_is_the_resultant(self, d):
        ring = Ring(d, 2)
        recs = [rec for rec in enumerate_generators(d, 2) if rec.k == d]
        assert len(recs) == 1
        assert equal_up_to_sign(recs[0].poly, sylvester_resultant(ring))

    def test_pairwise_resultants_inside_depth_d(self):
        # picking only the rows of polynomials i and j inside M_d recovers
        # their two-polynomial resultant
        d, n = 2, 3
        ring = Ring(d, n)
        for (i, j) in [(1, 2), (1, 3), (2, 3)]:
            pairs = [(copy, poly) for copy in range(1, d + 1) for poly in (i, j)]
            (det,) = expand_minors(ring, [(d, tuple(sorted(pairs)))])
            assert equal_up_to_sign(det, sylvester_resultant(ring, i, j))


class TestRankCascade:
    def test_vanishing_cascades_downward(self):
        # whenever all maximal minors of M_k vanish, so do those of M_(k-1)
        from resultantforge.roots import sample_planted, sample_random

        rng = random.Random(31)
        for (d, n) in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            matrices = {k: CascadeMatrix(d, n, k) for k in range(1, d + 1)}
            for case in range(30):
                if case % 3 == 0:
                    tup = sample_planted(d, n, 1000 + case)
                elif case % 3 == 1:
                    tup = sample_random(d, n, 2000 + case)
                else:
                    values = [
                        [0] + [Fraction(rng.randint(-9, 9)) for _ in range(d)]
                        for _ in range(n)
                    ]
                    tup = CoefficientTuple(d, n, values)
                deficient = {
                    k: exact_rank(specialized_rows(matrices[k], tup)) < d + k
                    for k in range(1, d + 1)
                }
                for k in range(2, d + 1):
                    if deficient[k]:
                        assert deficient[k - 1]
