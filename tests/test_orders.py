"""Term order comparison, leading terms, and polynomial division."""

import random
from fractions import Fraction

import pytest

from resultantforge.diagonal import build_diagonal_weights, diagonal_order
from resultantforge.orders import (
    EQUAL,
    GREATER,
    LESS,
    BlockOrder,
    DegRevLexOrder,
    LexOrder,
    WeightedOrder,
    leading_term,
    normal_form,
)
from resultantforge.cascade import CascadeMatrix, RowSelection
from resultantforge.minors import minor_det
from resultantforge.poly import (
    MONOMIAL_ONE,
    Monomial,
    Polynomial,
    Ring,
    RingMismatchError,
    ZeroPolynomialError,
)


def mono(*pairs):
    return Monomial(pairs)


def rand_monomial(rng, pool, maxexp=3):
    return Monomial((v, rng.randint(0, maxexp)) for v in pool)


class TestCompare:
    def test_degrevlex_equal_degree(self):
        ring = Ring(2, 3)
        order = DegRevLexOrder(ring.coeff_vars_row_major())
        u = mono((ring.coeff(1, 0), 2))
        v = mono((ring.coeff(1, 0), 1), (ring.coeff(1, 1), 1))
        assert order.compare(u, v) == GREATER

    def test_equal_iff_same_monomial(self):
        ring = Ring(2, 3)
        for order in (LexOrder(ring.coeff_vars_row_major()), DegRevLexOrder(ring.coeff_vars_row_major())):
            m = mono((ring.coeff(2, 1), 1))
            assert order.compare(m, m) == EQUAL
            assert order.compare(m, mono((ring.coeff(2, 1), 2))) != EQUAL

    def test_weighted_diagonal_weights(self):
        ring = Ring(2, 3)
        order = diagonal_order(build_diagonal_weights(2, 3), ring)
        u = mono((ring.coeff(1, 0), 1), (ring.coeff(2, 1), 1), (ring.coeff(3, 2), 1))
        v = mono((ring.coeff(3, 0), 1), (ring.coeff(2, 1), 1), (ring.coeff(1, 2), 1))
        assert isinstance(order, WeightedOrder)
        assert order.weight(u) == 17
        assert order.weight(v) == 13
        assert order.compare(u, v) == GREATER

    def test_unknown_variable_rejected(self):
        ring = Ring(2, 3)
        order = DegRevLexOrder(ring.coeff_vars_row_major())
        with pytest.raises(RingMismatchError):
            order.key(mono((Ring(2, 3, with_x=True).x, 1)))


class TestOrderAxioms:
    def orders(self, ring, ring_x):
        dw = build_diagonal_weights(ring.d, ring.n)
        return [
            (LexOrder(ring.coeff_vars_row_major()), ring.coeff_vars_row_major()),
            (DegRevLexOrder(ring.coeff_vars_column_major()), ring.coeff_vars_column_major()),
            (diagonal_order(dw, ring), ring.coeff_vars_row_major()),
            (
                BlockOrder(
                    (ring_x.x,),
                    LexOrder((ring_x.x,)),
                    DegRevLexOrder(ring_x.coeff_vars_column_major()),
                ),
                ring_x.variables,
            ),
        ]

    def test_one_is_minimal_and_multiplicative(self):
        rng = random.Random(321)
        ring = Ring(2, 3)
        ring_x = Ring(2, 3, with_x=True)
        for order, pool in self.orders(ring, ring_x):
            pool = list(pool)[:6]
            for _ in range(120):
                u, v, w = (rand_monomial(rng, pool) for _ in range(3))
                if not u.is_one:
                    assert order.compare(MONOMIAL_ONE, u) == LESS
                cuv = order.compare(u, v)
                assert cuv == -order.compare(v, u)
                assert (cuv == EQUAL) == (u == v)
                if cuv == LESS:
                    assert order.compare(u.mul(w), v.mul(w)) == LESS


class TestLeadingTerm:
    def test_lex_univariate(self):
        ring = Ring(1, 2, with_x=True)
        x = Polynomial.variable(ring, ring.x)
        p = x * x - x.scale(3) + Polynomial.constant(ring, 2)
        order = BlockOrder((ring.x,), LexOrder((ring.x,)), LexOrder(ring.coeff_vars_row_major()))
        lm, lc = leading_term(p, order)
        assert lm == mono((ring.x, 2)) and lc == 1

    def test_three_by_three_minor_rev_and_diag(self):
        ring = Ring(2, 3)
        det = minor_det(CascadeMatrix(2, 3, 1, ring), RowSelection(2, 3, 1, [(1, 1), (1, 2), (1, 3)]))
        # column-letter reading: lead a_3*b_2*c_1 under the column-major degrevlex
        rev = DegRevLexOrder(ring.coeff_vars_column_major())
        assert leading_term(det, rev)[0] == mono(
            (ring.coeff(3, 0), 1), (ring.coeff(2, 1), 1), (ring.coeff(1, 2), 1)
        )
        diag = diagonal_order(build_diagonal_weights(2, 3), ring)
        assert leading_term(det, diag)[0] == mono(
            (ring.coeff(1, 0), 1), (ring.coeff(2, 1), 1), (ring.coeff(3, 2), 1)
        )

    def test_zero_polynomial_rejected(self):
        ring = Ring(1, 2)
        with pytest.raises(ZeroPolynomialError):
            leading_term(Polynomial.zero(ring), LexOrder(ring.coeff_vars_row_major()))


class TestNormalForm:
    def test_self_reduction_and_textbook_case(self):
        ring = Ring(1, 2, with_x=True)
        x = Polynomial.variable(ring, ring.x)
        order = BlockOrder((ring.x,), LexOrder((ring.x,)), LexOrder(ring.coeff_vars_row_major()))
        p = x * x + Polynomial.constant(ring, 1)
        assert normal_form(p, [p], order).is_zero
        assert normal_form(p, [x], order) == Polynomial.constant(ring, 1)

    def test_determinant_self_reduction(self):
        ring = Ring(1, 2)
        det = minor_det(CascadeMatrix(1, 2, 1, ring), RowSelection(1, 2, 1, [(1, 1), (1, 2)]))
        order = DegRevLexOrder(ring.coeff_vars_row_major())
        assert normal_form(det, [det], order).is_zero

    def test_remainder_properties_random(self):
        rng = random.Random(99)
        ring = Ring(2, 2)
        pool = list(ring.coeff_vars_row_major())[:4]
        order = DegRevLexOrder(ring.coeff_vars_row_major())
        for _ in range(25):
            basis = []
            for _ in range(rng.randint(1, 3)):
                terms = {
                    rand_monomial(rng, pool, 2): Fraction(rng.randint(-5, 5))
                    for _ in range(3)
                }
                p = Polynomial(ring, terms)
                if not p.is_zero:
                    basis.append(p)
            if not basis:
                continue
            target = Polynomial(
                ring,
                {rand_monomial(rng, pool, 3): Fraction(rng.randint(-9, 9)) for _ in range(5)},
            )
            rem = normal_form(target, basis, order)
            lms = [leading_term(b, order)[0] for b in basis]
            for m in rem.terms:
                assert not any(lm.divides(m) for lm in lms)
            # the subtracted part must itself reduce to zero
            assert normal_form(target - rem, basis, order).is_zero
