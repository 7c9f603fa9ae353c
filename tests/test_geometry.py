"""Minimal primes, dimension/degree, and the Chow-ring degree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resultantforge.geometry import (
    ChowClass,
    SquareFreeMonomialIdeal,
    chow_degree,
    dim_and_degree,
    minimal_hitting_sets,
    minimal_primes,
)
from resultantforge.poly import Monomial, Ring
from resultantforge.walks import components, enumerate_reduced, walk_leading_monomial

from conftest import GRID
from oracles import brute_force_minimal_covers


@st.composite
def families(draw):
    """Support families over a universe of at most 8 ints: the empty
    family, empty supports, and duplicates and supersets of drawn ones."""
    size = draw(st.integers(0, 8))
    support = st.frozensets(st.integers(0, size - 1), max_size=size) if size else st.just(frozenset())
    family = draw(st.lists(support, max_size=7))
    if family:
        family += [s | draw(support) for s in draw(st.lists(st.sampled_from(family), max_size=3))]
    return draw(st.permutations(family))


def lead_ideal(d, n, ring=None):
    ring = ring or Ring(d, n)
    return SquareFreeMonomialIdeal(
        walk_leading_monomial(w, ring) for w in enumerate_reduced(d, n)
    ), ring


class TestMinimalPrimes:
    def test_single_quadric_splits(self):
        ring = Ring(1, 2)
        u, v = ring.coeff(1, 0), ring.coeff(2, 1)
        ideal = SquareFreeMonomialIdeal([Monomial({u: 1, v: 1})])
        assert minimal_primes(ideal) == [frozenset({u}), frozenset({v})]

    def test_degree_one_pair(self):
        ideal, ring = lead_ideal(1, 2)
        primes = minimal_primes(ideal)
        assert primes == sorted(
            [frozenset({ring.coeff(1, 0)}), frozenset({ring.coeff(2, 1)})],
            key=lambda s: (len(s), sorted(s)),
        )
        assert {frozenset(c.variables) for c in components(1, 2, ring)} == set(primes)

    @pytest.mark.parametrize("dn", GRID)
    def test_components_match_subspaces(self, dn):
        ideal, ring = lead_ideal(*dn)
        primes = set(minimal_primes(ideal))
        assert primes == {c.variables for c in components(*dn, ring)}
        assert len(primes) == dn[0] * dn[1]
        assert all(len(p) == dn[1] - 1 for p in primes)

    def test_primes_are_covers_and_incomparable(self):
        ideal, _ = lead_ideal(2, 3)
        primes = minimal_primes(ideal)
        supports = ideal.supports()
        for p in primes:
            assert all(p & s for s in supports)
        for a in primes:
            for b in primes:
                if a != b:
                    assert not (a <= b)

    def test_against_exhaustive_oracle_random(self):
        rng = random.Random(808)
        for _ in range(25):
            nvars = rng.randint(3, 6)
            universe = list(range(nvars))
            supports = []
            for _ in range(rng.randint(1, 5)):
                size = rng.randint(1, 3)
                supports.append(frozenset(rng.sample(universe, size)))
            assert minimal_hitting_sets(supports) == brute_force_minimal_covers(supports)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(families())
    def test_against_exhaustive_oracle(self, supports):
        assert minimal_hitting_sets(supports) == brute_force_minimal_covers(supports)

    @pytest.mark.parametrize(
        "supports, covers",
        [
            ([], [set()]),
            ([set()], []),
            ([{1}, set()], []),
            ([{1, 2}, {2, 1}], [{1}, {2}]),
            ([{1, 2, 3}, {2}, {1, 2}], [{2}]),
            ([{0, 1}, {2, 3}], [{0, 2}, {0, 3}, {1, 2}, {1, 3}]),
        ],
        ids=["empty-family", "empty-support", "with-empty-support", "duplicate", "nested", "disjoint"],
    )
    def test_edge_families(self, supports, covers):
        assert minimal_hitting_sets([frozenset(s) for s in supports]) == [frozenset(c) for c in covers]

    @pytest.mark.parametrize("dn", GRID)
    def test_transversals_of_components_are_walk_supports(self, dn):
        """The dual direction: the minimal transversals of the n*d subspaces
        S_(s,t) are exactly the supports of the reduced-walk products."""
        ring = Ring(*dn)
        covers = minimal_hitting_sets([c.variables for c in components(*dn, ring)])
        supports = [walk_leading_monomial(w, ring).support for w in enumerate_reduced(*dn)]
        assert len(covers) == len(supports)
        assert set(covers) == set(supports)

    def test_rejects_non_square_free(self):
        ring = Ring(1, 2)
        with pytest.raises(ValueError):
            SquareFreeMonomialIdeal([Monomial({ring.coeff(1, 0): 2})])
        with pytest.raises(ValueError):
            SquareFreeMonomialIdeal([Monomial({})])


class TestDimAndDegree:
    def test_lead_ideal_two_three(self):
        ideal, _ = lead_ideal(2, 3)
        got = dim_and_degree(ideal, 9)
        assert (got.dim, got.degree) == (6, 6)
        assert got.equidimensional

    def test_lead_ideal_one_two(self):
        ideal, _ = lead_ideal(1, 2)
        got = dim_and_degree(ideal, 4)
        assert (got.dim, got.degree) == (2, 2)

    def test_two_points_in_the_line(self):
        ring = Ring(1, 2)
        ideal = SquareFreeMonomialIdeal(
            [Monomial({ring.coeff(1, 0): 1, ring.coeff(2, 1): 1})]
        )
        got = dim_and_degree(ideal, 2)
        assert (got.dim, got.degree) == (0, 2)

    def test_non_equidimensional_flagged(self):
        ring = Ring(1, 2)
        a, b, c = ring.coeff(1, 0), ring.coeff(1, 1), ring.coeff(2, 0)
        ideal = SquareFreeMonomialIdeal(
            [Monomial({a: 1, b: 1}), Monomial({a: 1, c: 1})]
        )
        got = dim_and_degree(ideal, 4)
        # components {a} and {b, c}: top dimension from the singleton
        assert (got.dim, got.degree) == (2, 1)
        assert not got.equidimensional

    @pytest.mark.parametrize("dn", GRID)
    def test_grid_matches_dimension_formula(self, dn):
        d, n = dn
        ideal, _ = lead_ideal(d, n)
        got = dim_and_degree(ideal, n * (d + 1))
        assert (got.dim, got.degree) == (n * d, n * d)
        assert got.equidimensional


class TestChowDegree:
    def test_examples(self):
        assert chow_degree([2, 2, 2]) == 6
        assert chow_degree([1, 1]) == 2
        assert chow_degree([2, 3, 5]) == 10

    def test_matches_sum_on_random_tuples(self):
        rng = random.Random(4096)
        for _ in range(100):
            n = rng.randint(2, 6)
            degrees = [rng.randint(1, 9) for _ in range(n)]
            assert chow_degree(degrees) == sum(degrees)

    def test_truncation_bounds(self):
        cls = ChowClass.make(4, {(0, 0): 1, (1, 3): 2, (2, 0): 5, (0, 4): 7})
        assert cls.coefficient(2, 0) == 0
        assert cls.coefficient(0, 4) == 0
        assert cls.coefficient(1, 3) == 2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            chow_degree([3])
        with pytest.raises(ValueError):
            chow_degree([2, 0])
