"""Root certificates: gcd oracle, planted substitution, sampling, scans."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resultantforge.cascade import CascadeMatrix
from resultantforge.minors import band_det, enumerate_generators, generator_rows
from resultantforge.poly import Ring
from resultantforge.roots import (
    CoefficientTuple,
    Lcg64,
    _integer_rows,
    _integer_times,
    common_root_oracle,
    membership_scan,
    sample_planted,
    sample_random,
    univariate_gcd,
)

from conftest import GRID
from oracles import exact_rank, planted_assignment, planted_vanishing, rank_by_minors, specialized_rows


class TestLcg:
    def test_deterministic(self):
        a, b = Lcg64(42), Lcg64(42)
        assert [a.next_u32() for _ in range(10)] == [b.next_u32() for _ in range(10)]

    def test_rational_distribution_bounds(self):
        rng = Lcg64(7)
        for _ in range(500):
            q = rng.rational()
            assert q != 0
            assert 1 <= abs(q.numerator) <= 20 * 20
            assert 1 <= q.denominator <= 20

    def test_seeds_give_distinct_tuples(self):
        seen = {sample_planted(2, 3, seed).values for seed in range(100)}
        assert len(seen) == 100
        seen = {sample_random(2, 3, seed).values for seed in range(100)}
        assert len(seen) == 100


class TestCoefficientTuple:
    def test_validation_and_json(self):
        tup = CoefficientTuple(1, 2, [[1, Fraction(-1, 2)], [3, 4]])
        blob = tup.to_json()
        assert blob["values"] == [["1", "-1/2"], ["3", "4"]]
        assert CoefficientTuple.from_json(blob) == tup
        with pytest.raises(ValueError):
            CoefficientTuple(1, 2, [[1, 2]])
        with pytest.raises(ValueError):
            CoefficientTuple(1, 2, [[1], [2]])


class TestCommonRootOracle:
    def test_shared_linear_factor(self):
        # x^2 - 3x + 2 and x^2 - x share the root 1
        tup = CoefficientTuple(2, 2, [[1, -3, 2], [1, -1, 0]])
        rep = common_root_oracle(tup)
        assert rep.has_affine_common_root and rep.gcd_degree == 1
        g = univariate_gcd([[1, -3, 2], [1, -1, 0]])
        assert g == [Fraction(1), Fraction(-1)]  # monic x - 1

    def test_disjoint_roots(self):
        tup = CoefficientTuple(2, 2, [[1, 0, 1], [1, 0, -1]])
        rep = common_root_oracle(tup)
        assert not rep.has_affine_common_root and rep.gcd_degree == 0

    def test_all_leading_zero_flag(self):
        tup = CoefficientTuple(2, 3, [[0, 1, -1], [0, 2, -2], [0, 1, 1]])
        rep = common_root_oracle(tup)
        assert rep.all_leading_zero
        # x - 1, 2x - 2, x + 1 share no affine root; only the root at
        # infinity of the degree-2 binary forms remains
        assert rep.gcd_degree == 0
        assert not rep.has_affine_common_root

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError):
            common_root_oracle(CoefficientTuple(1, 2, [[0, 0], [0, 0]]))

    def test_zero_rows_are_skipped(self):
        tup = CoefficientTuple(2, 2, [[0, 0, 0], [1, -1, 0]])
        rep = common_root_oracle(tup)
        assert rep.gcd_degree == 2  # the gcd is the surviving quadratic


class TestPlantedVanishing:
    """The oracle planted-root check on the library's expanded minors."""

    @pytest.mark.parametrize("dn", [(1, 2), (2, 2), (2, 3), (3, 2)])
    def test_all_images_zero(self, dn):
        report = planted_vanishing(*dn)
        assert report.ok
        assert report.generators_checked == len(enumerate_generators(*dn))

    def test_substitution_shape(self):
        ring = Ring(2, 2, with_aux=True)
        sub = planted_assignment(ring)
        # a_1_0 -> b_1_0 and a_1_2 -> -r b_1_1
        assert sub[ring.coeff(1, 0)].to_json() == [{"c": "1", "m": {"b_1_0": 1}}]
        assert sub[ring.coeff(1, 2)].to_json() == [{"c": "-1", "m": {"b_1_1": 1, "r": 1}}]
        assert sub[ring.coeff(1, 1)].to_json() == [
            {"c": "-1", "m": {"b_1_0": 1, "r": 1}},
            {"c": "1", "m": {"b_1_1": 1}},
        ]


class TestSampling:
    def test_planted_samples_have_roots(self):
        for seed in range(20):
            rep = common_root_oracle(sample_planted(2, 3, seed))
            assert rep.has_affine_common_root

    def test_planted_linear_forms_share_value(self):
        tup = sample_planted(1, 2, 5)
        g = univariate_gcd([tup.row_polynomial(1), tup.row_polynomial(2)])
        assert len(g) == 2  # both linear forms vanish at the sampled root


_ENTRY = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
)


@st.composite
def rational_grids(draw):
    """Small int/Fraction grids with planted dependent rows and zero columns."""
    ncols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_ENTRY, min_size=ncols, max_size=ncols), min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        a = draw(st.integers(-3, 3))
        b = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
        u = draw(st.sampled_from(rows))
        v = draw(st.sampled_from(rows))
        rows.append([a * x + b * y for x, y in zip(u, v)])
    for col in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[col] = 0
    return draw(st.permutations(rows))


class TestExactRank:
    def test_integer_rows_stay_exact(self):
        # row 3 = row 1 - row 2; float division used to report full rank
        assert exact_rank([[3, 4, -8], [-1, 7, 6], [4, -3, -14]]) == 2

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(rational_grids())
    def test_matches_largest_nonzero_minor(self, rows):
        assert exact_rank(rows) == rank_by_minors(rows)


def decided_one_by_one(tup):
    """Each generator's vanishing by its own band_det, with no rank shortcut."""
    times = _integer_times(_integer_rows(tup.values))
    return [band_det(rows, tup.d, 1, 0, times, {}) == 0 for _, rows in generator_rows(tup.d, tup.n)]


@st.composite
def scan_tuples(draw):
    """A small (d, n) and a tuple of one kind: planted, random, every
    leading coefficient zero, a zero row, or the last row a combination of
    the first two."""
    d, n = draw(st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 2), (2, 4), (1, 3)]))
    kind = draw(st.sampled_from(["planted", "random", "leading zero", "zero row", "combination"]))
    seed = draw(st.integers(0, 10_000))
    rng = Lcg64(seed)
    if kind == "planted":
        return sample_planted(d, n, seed)
    rows = [list(row) for row in sample_random(d, n, seed).values]
    if kind == "leading zero":
        for row in rows:
            row[0] = 0
    elif kind == "zero row":
        rows[draw(st.integers(0, n - 1))] = [0] * (d + 1)
    elif kind == "combination" and n >= 3:
        a, b = rng.rational(), rng.rational()
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return CoefficientTuple(d, n, rows)


class TestRankPerDepth:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(scan_tuples())
    def test_matches_per_generator_determinants_and_minor_ranks(self, tup):
        rep = membership_scan(tup)
        assert rep.generators == generator_rows(tup.d, tup.n)
        assert rep.vanishing == decided_one_by_one(tup)
        want = [rank_by_minors(specialized_rows(CascadeMatrix(tup.d, tup.n, k), tup)) for k in range(1, tup.d + 1)]
        assert rep.ranks == want

    @pytest.mark.parametrize("d", [2, 3])
    def test_a_repeated_polynomial_does_not_over_claim(self, d):
        # f_1 = f_2 and f_3 coprime to them: M_d has full rank 2d, so the
        # rank cannot decide depth d, yet every generator that holds both
        # copies (i, 1) and (i, 2) of a row must still vanish
        rows = [list(row) for row in sample_random(d, 3, 5).values]
        rows[1] = list(rows[0])
        tup = CoefficientTuple(d, 3, rows)
        assert univariate_gcd([rows[0], rows[2]]) == [1]
        rep = membership_scan(tup)
        assert rep.ranks[d - 1] == 2 * d
        assert rep.vanishing == decided_one_by_one(tup)
        top = [(rows, v) for (k, rows), v in zip(rep.generators, rep.vanishing) if k == d]
        for rows, vanishes in top:
            if any((i, 1) in rows and (i, 2) in rows for i in range(1, d + 1)):
                assert vanishes, rows
        assert not all(v for _, v in top)
        assert not rep.root.has_affine_common_root and rep.biconditional_ok


class TestMembershipScan:
    def test_rank_scan_matches_symbolic_evaluation(self, all_records, rings):
        # the expanded minors evaluated at the tuple are the reference
        rng = Lcg64(77)
        for (d, n) in GRID:
            records = all_records[(d, n)]
            tuples = [sample_planted(d, n, seed) for seed in range(3)]
            tuples += [sample_random(d, n, 50 + seed) for seed in range(3)]
            for _ in range(2):
                values = [[0] + [rng.rational() for _ in range(d)] for _ in range(n)]
                tuples.append(CoefficientTuple(d, n, values))
            # last row a rational combination of the first two: some
            # generators vanish and others do not
            rows = [list(row) for row in sample_random(d, n, 90).values]
            a, b = rng.rational(), rng.rational()
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
            tuples.append(CoefficientTuple(d, n, rows))
            for tup in tuples:
                rep = membership_scan(tup)
                assert rep.generators == [(rec.k, rec.selection.pairs) for rec in records]
                point = tup.assignment(rings[(d, n)])
                assert rep.vanishing == [rec.poly.evaluate(point) == 0 for rec in records]

    def test_scan_matches_exact_rank_at_3_4(self):
        # (3,4) lies outside GRID: the Bareiss rank of each generator's rows
        # is the reference there
        d, n = 3, 4
        rng = Lcg64(34)
        tuples = [sample_planted(d, n, seed) for seed in range(2)]
        tuples += [sample_random(d, n, 40 + seed) for seed in range(2)]
        rows = [list(row) for row in sample_random(d, n, 90).values]
        a, b = rng.rational(), rng.rational()
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        tuples.append(CoefficientTuple(d, n, rows))
        matrices = {k: CascadeMatrix(d, n, k) for k in range(1, d + 1)}
        for tup in tuples:
            grids = {k: specialized_rows(m, tup) for k, m in matrices.items()}
            rep = membership_scan(tup)
            want = [
                exact_rank([grids[k][(i - 1) * n + j - 1] for i, j in rows]) < d + k
                for k, rows in rep.generators
            ]
            assert rep.vanishing == want
        assert len(set(want)) == 2  # the combination tuple splits the generators

    def test_shared_root_kills_the_resultant(self):
        tup = CoefficientTuple(2, 2, [[1, -3, 2], [1, -1, 0]])
        rep = membership_scan(tup)
        assert all(rep.vanishing)
        assert rep.top_minors_all_vanish and rep.biconditional_ok

    def test_planted_root_three_halves(self):
        # f_i = (x - 3/2) q_i with small random cofactors
        rng = Lcg64(99)
        r = Fraction(3, 2)
        rows = []
        for _ in range(3):
            q = [rng.rational(), rng.rational()]
            rows.append([q[0], q[1] - r * q[0], -r * q[1]])
        rep = membership_scan(CoefficientTuple(2, 3, rows))
        assert all(rep.vanishing)
        assert rep.biconditional_ok

    def test_rootless_tuple_leaves_a_witness(self):
        tup = CoefficientTuple(2, 3, [[1, 0, 0], [1, 0, 1], [1, 1, 0]])
        rep = membership_scan(tup)
        assert not rep.root.has_affine_common_root
        assert not rep.top_minors_all_vanish
        assert rep.biconditional_ok

    def test_all_leading_zero_tuples_lie_on_every_generator(self):
        # the binary forms share the root at infinity whenever every leading
        # coefficient vanishes, so every generator must evaluate to zero
        rng = Lcg64(123)
        for (d, n) in [(2, 3), (3, 2)]:
            for _ in range(10):
                values = [[0] + [rng.rational() for _ in range(d)] for _ in range(n)]
                rep = membership_scan(CoefficientTuple(d, n, values))
                assert all(rep.vanishing)
                assert rep.biconditional_ok

    def test_leading_zero_with_shared_truncated_root(self):
        # same conclusion when the degree-(d-1) truncations furthermore share
        # an affine root: plant (x - r) inside the truncated polynomials
        rng = Lcg64(321)
        d, n = 3, 3
        for _ in range(10):
            r = rng.rational()
            rows = []
            for _ in range(n):
                q = [rng.rational() for _ in range(d - 1)]
                trunc = [q[0]]
                for j in range(1, d - 1):
                    trunc.append(q[j] - r * q[j - 1])
                trunc.append(-r * q[d - 2])
                rows.append([0] + trunc)
            tup = CoefficientTuple(d, n, rows)
            rep = membership_scan(tup)
            assert rep.root.all_leading_zero
            assert rep.root.has_affine_common_root
            assert all(rep.vanishing)
            assert rep.biconditional_ok

    def test_depth_one_alone_is_not_sufficient(self):
        # frozen fixture found by seeded randomized search (third row a
        # rational combination of the first two, so the single depth-1
        # minor vanishes, while the gcd certifies there is no common root)
        values = [
            ["17/7", "-19/14", "20/11"],
            ["-11/16", "7/3", "-15/7"],
            ["62525/14112", "-8557/2646", "1825/462"],
        ]
        tup = CoefficientTuple(2, 3, [[Fraction(v) for v in row] for row in values])
        rep = membership_scan(tup)
        depth_one = [v for (k, _), v in zip(rep.generators, rep.vanishing) if k == 1]
        assert depth_one == [True]
        assert rep.root.gcd_degree == 0 and not rep.root.all_leading_zero
        assert not rep.top_minors_all_vanish
        assert rep.biconditional_ok
