"""Cascade matrix construction and its two defining interpretations."""

import random
from fractions import Fraction

import pytest

from resultantforge.cascade import CascadeMatrix, RowSelection
from resultantforge.roots import sample_planted

from oracles import specialized_rows


class TestBuildCascade:
    def test_six_by_four_shape(self):
        m = CascadeMatrix(2, 3, 2)
        assert (m.nrows, m.ncols) == (6, 4)
        grid = m.name_grid()
        assert grid[0] == ["a_1_0", "a_1_1", "a_1_2", "0"]
        assert grid[2] == ["a_3_0", "a_3_1", "a_3_2", "0"]
        assert grid[3] == ["0", "a_1_0", "a_1_1", "a_1_2"]
        assert grid[5] == ["0", "a_3_0", "a_3_1", "a_3_2"]

    def test_depth_one_square(self):
        m = CascadeMatrix(2, 3, 1)
        assert (m.nrows, m.ncols) == (3, 3)
        assert m.name_grid() == [
            ["a_1_0", "a_1_1", "a_1_2"],
            ["a_2_0", "a_2_1", "a_2_2"],
            ["a_3_0", "a_3_1", "a_3_2"],
        ]

    def test_sylvester_shape(self):
        m = CascadeMatrix(2, 2, 2)
        assert (m.nrows, m.ncols) == (4, 4)
        assert m.name_grid() == [
            ["a_1_0", "a_1_1", "a_1_2", "0"],
            ["a_2_0", "a_2_1", "a_2_2", "0"],
            ["0", "a_1_0", "a_1_1", "a_1_2"],
            ["0", "a_2_0", "a_2_1", "a_2_2"],
        ]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CascadeMatrix(0, 2, 1)
        with pytest.raises(ValueError):
            CascadeMatrix(2, 1, 1)
        with pytest.raises(ValueError):
            CascadeMatrix(2, 2, 3)
        with pytest.raises(ValueError):
            CascadeMatrix(2, 2, 0)


class TestRowEntries:
    def test_examples(self):
        m = CascadeMatrix(2, 3, 2)
        ring = m.ring
        assert m.row_entries(2, 1) == [(2, ring.coeff(1, 0)), (3, ring.coeff(1, 1)), (4, ring.coeff(1, 2))]
        m = CascadeMatrix(1, 2, 1)
        assert m.row_entries(1, 2) == [(1, m.ring.coeff(2, 0)), (2, m.ring.coeff(2, 1))]
        m = CascadeMatrix(3, 2, 3)
        assert m.row_entries(3, 2) == [
            (3, m.ring.coeff(2, 0)),
            (4, m.ring.coeff(2, 1)),
            (5, m.ring.coeff(2, 2)),
            (6, m.ring.coeff(2, 3)),
        ]

    def test_every_row_has_d_plus_one_entries(self):
        for (d, n, k) in [(2, 3, 2), (3, 2, 3), (2, 4, 1)]:
            m = CascadeMatrix(d, n, k)
            for (i, j) in m.rows():
                entries = m.row_entries(i, j)
                assert len(entries) == d + 1
                for col, var in entries:
                    assert m.entry_variable(i, j, col) == var
                    assert var == m.ring.coeff(j, col - i)

    def test_index_errors(self):
        m = CascadeMatrix(2, 3, 2)
        with pytest.raises(IndexError):
            m.row_entries(3, 1)
        with pytest.raises(IndexError):
            m.entry_variable(1, 4, 1)
        with pytest.raises(IndexError):
            m.entry_variable(1, 1, 5)


def _poly_product_coeffs(rows, hs, d, k):
    """Dense coefficients of sum_i f_i h_i, leading coefficient first."""
    out = [Fraction(0)] * (d + k)
    for f, h in zip(rows, hs):
        for a, ca in enumerate(f):  # ca multiplies x^(d-a)
            for b, cb in enumerate(h):  # cb multiplies x^(k-1-b)
                out[a + b] += ca * cb
    return out


class TestTransposedInterpretation:
    def test_random_specializations(self):
        # stacking the h_i coefficient vectors and applying the transposed
        # matrix must give the coefficients of sum_i f_i h_i
        rng = random.Random(2024)
        for (d, n, k) in [(1, 2, 1), (2, 3, 2), (3, 2, 2), (2, 4, 2)]:
            m = CascadeMatrix(d, n, k)
            for _ in range(10):
                values = [
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d + 1)]
                    for _ in range(n)
                ]
                hs = [
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k)]
                    for _ in range(n)
                ]
                direct = _poly_product_coeffs(values, hs, d, k)
                # transpose action: column c of M_k against the stacked vector
                from resultantforge.roots import CoefficientTuple

                grid = specialized_rows(m, CoefficientTuple(d, n, values))
                stacked = []
                for i in range(1, k + 1):
                    for j in range(1, n + 1):
                        stacked.append(hs[j - 1][i - 1])
                for col in range(d + k):
                    got = sum(grid[row][col] * stacked[row] for row in range(n * k))
                    assert got == direct[col]


class TestKernelProperty:
    def test_planted_root_vector_in_kernel(self):
        for (d, n) in [(1, 2), (2, 3), (3, 2)]:
            for seed in range(5):
                tup = sample_planted(d, n, seed)
                # recover the planted root as a root of the gcd of the rows
                from resultantforge.roots import univariate_gcd

                g = univariate_gcd([tup.row_polynomial(i) for i in range(1, n + 1)])
                assert len(g) == 2  # monic linear gcd: x - root
                root = -g[1]
                for k in range(1, d + 1):
                    m = CascadeMatrix(d, n, k)
                    grid = specialized_rows(m, tup)
                    vec = [root ** (d + k - 1 - idx) for idx in range(d + k)]
                    for row in grid:
                        assert sum(c * v for c, v in zip(row, vec)) == 0


class TestRowSelection:
    def test_validation(self):
        with pytest.raises(ValueError):
            RowSelection(2, 3, 1, [(1, 1), (1, 2)])  # wrong length
        with pytest.raises(ValueError):
            RowSelection(2, 3, 1, [(1, 2), (1, 1), (1, 3)])  # not increasing
        with pytest.raises(ValueError):
            RowSelection(2, 3, 1, [(1, 1), (1, 2), (2, 3)])  # copy index out of range
