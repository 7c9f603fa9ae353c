"""The diagonal-selecting weighted order and its certificate."""

import pytest

from resultantforge.diagonal import (
    build_diagonal_weights,
    diagonal_order,
    verify_diagonal_property,
)
from resultantforge.cascade import CascadeMatrix
from resultantforge.minors import packed_minors
from resultantforge.poly import Monomial, Ring

from conftest import GRID


class TestBuildWeights:
    def test_two_three(self):
        dw = build_diagonal_weights(2, 3)
        assert dw.increments == {
            (3, 1): 1, (2, 1): 2, (1, 1): 3, (3, 2): 4, (2, 2): 5, (1, 2): 6,
        }
        assert dw.weights == {
            (1, 2): 1, (2, 2): 1, (3, 2): 1,
            (1, 1): 7, (2, 1): 6, (3, 1): 5,
            (1, 0): 10, (2, 0): 8, (3, 0): 6,
        }

    def test_one_two(self):
        dw = build_diagonal_weights(1, 2)
        assert dw.weights == {(1, 1): 1, (2, 1): 1, (1, 0): 3, (2, 0): 2}

    def test_monotone_along_rows(self):
        for (d, n) in GRID:
            dw = build_diagonal_weights(d, n)
            for k in range(1, n + 1):
                assert dw.weights[(k, d)] == 1
                for l in range(d):
                    assert dw.weights[(k, l)] > dw.weights[(k, l + 1)]

    def test_increment_sequence_strictly_increasing(self):
        for (d, n) in GRID:
            dw = build_diagonal_weights(d, n)
            ordered = [
                dw.increments[(k, l)]
                for l in range(1, d + 1)
                for k in range(n, 0, -1)
            ]
            assert ordered == sorted(ordered)
            assert ordered == list(range(1, n * d + 1))


class TestDiagonalOrder:
    def test_diagonal_beats_every_other_term(self):
        ring = Ring(2, 3)
        dw = build_diagonal_weights(2, 3)
        order = diagonal_order(dw, ring)
        packing, minors = packed_minors(ring, [(1, ((1, 1), (1, 2), (1, 3)))])
        det = packing.polynomial(ring, next(minors))
        diag = Monomial({ring.coeff(1, 0): 1, ring.coeff(2, 1): 1, ring.coeff(3, 2): 1})
        assert order.weight(diag) == 17
        for mono in det.terms:
            if mono != diag:
                assert order.key(diag) > order.key(mono)
                assert order.weight(mono) < 17

    def test_degree_one_determinant(self):
        ring = Ring(1, 2)
        dw = build_diagonal_weights(1, 2)
        order = diagonal_order(dw, ring)
        u = Monomial({ring.coeff(1, 0): 1, ring.coeff(2, 1): 1})
        v = Monomial({ring.coeff(1, 1): 1, ring.coeff(2, 0): 1})
        assert order.weight(u) == 4 and order.weight(v) == 3
        assert order.key(u) > order.key(v)
        assert order.key(u) == order.key(Monomial({ring.coeff(2, 1): 1, ring.coeff(1, 0): 1}))

    def test_extended_ring_ranks_extras_on_top(self):
        # on a ring with the eliminand or planted-root symbols, those sit in
        # a block above every coefficient monomial
        for ring in (Ring(2, 2, with_x=True), Ring(2, 2, with_aux=True)):
            order = diagonal_order(build_diagonal_weights(2, 2), ring)
            heavy_a = Monomial({ring.coeff(1, 0): 5, ring.coeff(2, 0): 5})
            extra = ring.x if ring.with_x else ring.root
            assert order.key(Monomial({extra: 1})) > order.key(heavy_a)


class TestSwapInequality:
    def test_exhaustive_small_sizes(self):
        # straightening any crossing pair inside any submatrix strictly
        # raises the weight
        for (d, n) in [(2, 2), (2, 3), (3, 2)]:
            dw = build_diagonal_weights(d, n)
            for k in range(1, d + 1):
                m = CascadeMatrix(d, n, k)
                labels = m.rows()
                for ra in range(len(labels)):
                    for rb in range(ra + 1, len(labels)):
                        (i1, j1), (i2, j2) = labels[ra], labels[rb]
                        for c2 in range(1, m.ncols + 1):
                            for c1 in range(c2 + 1, m.ncols + 1):
                                hi = m.entry_variable(i1, j1, c1)
                                lo = m.entry_variable(i2, j2, c2)
                                sw1 = m.entry_variable(i1, j1, c2)
                                sw2 = m.entry_variable(i2, j2, c1)
                                if None in (hi, lo, sw1, sw2):
                                    continue
                                gain = (
                                    dw.weights[(sw1.i, sw1.j)]
                                    + dw.weights[(sw2.i, sw2.j)]
                                    - dw.weights[(hi.i, hi.j)]
                                    - dw.weights[(lo.i, lo.j)]
                                )
                                assert gain > 0


class TestVerifyDiagonalProperty:
    @pytest.mark.parametrize("dn", GRID)
    def test_grid(self, dn):
        report = verify_diagonal_property(*dn)
        assert report.ok, (report.lead_violations, report.dominance_violations)
        assert report.minors_checked > 0

    def test_counts(self):
        assert verify_diagonal_property(2, 3).minors_checked == 16
        assert verify_diagonal_property(2, 2).minors_checked == 1
        assert verify_diagonal_property(3, 2).minors_checked == 1
