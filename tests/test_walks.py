"""Walk combinatorics: the minor bijection, reducedness, and hitting sets."""

import pytest

from resultantforge.cascade import RowSelection
from resultantforge.poly import Monomial, Ring
from resultantforge.walks import (
    MinorWalk,
    ZeroMinorError,
    components,
    enumerate_reduced,
    enumerate_walks,
    rows_to_walk,
    selection_for_walk,
    walk_leading_monomial,
)

from conftest import GRID
from oracles import all_selections, divides, is_minor_walk, is_reduced, nonzero_selection

# frozen by the exhaustive enumerator; see test_reduced_counts_frozen
REDUCED_COUNTS = {(1, 2): 1, (2, 2): 1, (2, 3): 7, (3, 2): 1, (3, 3): 16, (2, 4): 24}


class TestRowsToWalk:
    def test_depth_one_diagonal(self):
        sel = RowSelection(2, 3, 1, [(1, 1), (1, 2), (1, 3)])
        assert rows_to_walk(sel) == MinorWalk([(1, 0), (2, 1), (3, 2)])

    def test_two_by_two(self):
        sel = RowSelection(1, 2, 1, [(1, 1), (1, 2)])
        assert rows_to_walk(sel) == MinorWalk([(1, 0), (2, 1)])

    def test_sylvester_selection(self):
        sel = RowSelection(2, 2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
        assert rows_to_walk(sel) == MinorWalk([(1, 0), (2, 1), (1, 1), (2, 2)])

    def test_zero_minor_signalled(self):
        # no rows from the first copy: the first step sits below the lattice
        bad = RowSelection(3, 3, 3, [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
        with pytest.raises(ZeroMinorError):
            rows_to_walk(bad)
        # no rows from the last copy: the final step overshoots the lattice
        bad = RowSelection(3, 3, 3, [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
        with pytest.raises(ZeroMinorError):
            rows_to_walk(bad)

    def test_round_trip_with_selection(self):
        for (d, n) in GRID:
            for k in range(1, d + 1):
                for walk in enumerate_walks(d, n, k):
                    sel = selection_for_walk(walk, d, n)
                    assert rows_to_walk(sel) == walk


class TestWalkPredicates:
    def test_examples(self):
        assert is_minor_walk([(1, 0), (2, 1), (3, 2)], 2, 3)
        assert is_reduced([(1, 0), (2, 1), (3, 2)], 2, 3)
        assert is_reduced([(1, 0), (2, 1), (1, 1), (2, 2)], 2, 2)

    def test_backward_step_not_reduced(self):
        # dips in v always allow deleting the peak
        steps = [(1, 0), (2, 1), (1, 0), (2, 1), (1, 1), (2, 2)]
        assert not is_reduced(steps, 2, 2)

    def test_printed_conditions_counterexample(self):
        # passes the naive local test (u_{s+2} <= u_s at the plateau) but its
        # second vertex is deletable, so it is not inclusion-minimal
        steps = [(1, 0), (3, 1), (2, 1), (3, 2)]
        assert is_minor_walk(steps, 2, 3)
        assert not is_reduced(steps, 2, 3)
        shorter = [(1, 0), (2, 1), (3, 2)]
        assert set(shorter) < set(steps)
        assert is_minor_walk(shorter, 2, 3)

    def test_out_of_lattice_is_not_a_walk(self):
        assert not is_minor_walk([(1, 0), (2, 3)], 2, 3)
        assert not is_minor_walk([(4, 0), (2, 1), (3, 2)], 2, 3)


class TestEnumeration:
    def test_single_walk_for_two_linear_forms(self):
        assert enumerate_walks(1, 2, 1) == [MinorWalk([(1, 0), (2, 1)])]

    def test_bijection_with_nonzero_selections(self):
        for (d, n) in GRID:
            for k in range(1, d + 1):
                if n * k < d + k:
                    assert enumerate_walks(d, n, k) == []
                    continue
                walks = enumerate_walks(d, n, k)
                assert len(set(walks)) == len(walks)
                from_selections = set()
                for sel in all_selections(d, n, k):
                    if nonzero_selection(sel):
                        from_selections.add(rows_to_walk(sel))
                assert set(walks) == from_selections

    def test_reduced_counts_frozen(self):
        for dn, count in REDUCED_COUNTS.items():
            assert len(enumerate_reduced(*dn)) == count

    def test_reduced_cross_validation(self):
        # the local-condition enumerator against the deletion-test filter
        for (d, n) in GRID:
            brute = {
                w
                for k in range(1, d + 1)
                for w in enumerate_walks(d, n, k)
                if is_reduced(w.steps, d, n)
            }
            assert set(enumerate_reduced(d, n)) == brute

    def test_reduced_lengths_and_vertices(self):
        for (d, n) in GRID:
            lengths = set()
            for w in enumerate_reduced(d, n):
                lengths.add(len(w))
                assert d + 1 <= len(w) <= 2 * d
                assert len(set(w.steps)) == len(w.steps)  # no revisits
            assert 2 * d in lengths  # the longest length is achieved


class TestLeadingMonomials:
    def test_products(self):
        ring = Ring(2, 3)
        m = walk_leading_monomial(MinorWalk([(1, 0), (2, 1), (3, 2)]), ring)
        assert m == Monomial({ring.coeff(1, 0): 1, ring.coeff(2, 1): 1, ring.coeff(3, 2): 1})
        ring2 = Ring(1, 2)
        assert walk_leading_monomial(MinorWalk([(1, 0), (2, 1)]), ring2) == Monomial(
            {ring2.coeff(1, 0): 1, ring2.coeff(2, 1): 1}
        )
        ring3 = Ring(2, 2)
        syl = walk_leading_monomial(MinorWalk([(1, 0), (2, 1), (1, 1), (2, 2)]), ring3)
        assert syl == Monomial(
            {
                ring3.coeff(1, 0): 1,
                ring3.coeff(2, 1): 1,
                ring3.coeff(1, 1): 1,
                ring3.coeff(2, 2): 1,
            }
        )

    def test_multiplicity_counted(self):
        ring = Ring(2, 3)
        m = walk_leading_monomial(MinorWalk([(1, 0), (1, 0), (2, 1), (3, 2)]), ring)
        assert m[ring.coeff(1, 0)] == 2

    def test_minimal_divisor_property(self):
        # every walk's product is divisible by a reduced walk's product, and
        # reduced products never divide one another
        for (d, n) in GRID:
            ring = Ring(d, n)
            reduced = [walk_leading_monomial(w, ring) for w in enumerate_reduced(d, n)]
            for k in range(1, d + 1):
                for w in enumerate_walks(d, n, k):
                    lead = walk_leading_monomial(w, ring)
                    assert any(divides(r, lead) for r in reduced)
            for a in reduced:
                for b in reduced:
                    if a != b:
                        assert not divides(a, b)

    def test_square_free_exactly_for_reduced(self):
        ring = Ring(2, 3)
        for w in enumerate_reduced(2, 3):
            assert walk_leading_monomial(w, ring).is_squarefree


class TestComponents:
    def test_count_and_examples(self):
        ring = Ring(2, 3)
        comps = components(2, 3)
        assert len(comps) == 6
        by_st = {(c.s, c.t): c.variables for c in comps}
        assert by_st[(1, 1)] == frozenset({ring.coeff(2, 1), ring.coeff(3, 1)})
        assert by_st[(3, 2)] == frozenset({ring.coeff(1, 1), ring.coeff(2, 1)})

    def test_sizes(self):
        for (d, n) in GRID:
            comps = components(d, n)
            assert len(comps) == n * d
            assert all(len(c.variables) == n - 1 for c in comps)

    def test_hitting_property(self):
        # every subspace meets every walk; no proper subset does
        for (d, n) in [(1, 2), (2, 2), (2, 3), (3, 2)]:
            ring = Ring(d, n)
            walks = [w for k in range(1, d + 1) for w in enumerate_walks(d, n, k)]
            vertex_sets = [
                frozenset(ring.coeff(u, v) for u, v in w.steps) for w in walks
            ]
            for comp in components(d, n):
                assert all(comp.variables & vs for vs in vertex_sets)
                for drop in comp.variables:
                    smaller = comp.variables - {drop}
                    assert any(not (smaller & vs) for vs in vertex_sets)
