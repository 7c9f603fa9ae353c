"""Term order comparison, leading terms, and polynomial division."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resultantforge.diagonal import build_diagonal_weights, diagonal_order
from resultantforge.groebner import elimination_order
from resultantforge.orders import (
    BlockOrder,
    DegRevLexOrder,
    LexOrder,
    WeightedOrder,
    _FIRST_BITS,
    _Reducer,
    leading_term,
    normal_form,
)
from resultantforge.minors import packed_minors
from resultantforge.poly import (
    MONOMIAL_ONE,
    Monomial,
    Polynomial,
    Ring,
    RingMismatchError,
    ZeroPolynomialError,
)

from oracles import _Reducer as ReferenceReducer
from oracles import divides


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
        assert order.key(u) > order.key(v)

    def test_equal_iff_same_monomial(self):
        ring = Ring(2, 3)
        for order in (LexOrder(ring.coeff_vars_row_major()), DegRevLexOrder(ring.coeff_vars_row_major())):
            m = mono((ring.coeff(2, 1), 1))
            assert order.key(m) == order.key(mono((ring.coeff(2, 1), 1)))
            assert order.key(m) != order.key(mono((ring.coeff(2, 1), 2)))

    def test_weighted_diagonal_weights(self):
        ring = Ring(2, 3)
        order = diagonal_order(build_diagonal_weights(2, 3), ring)
        u = mono((ring.coeff(1, 0), 1), (ring.coeff(2, 1), 1), (ring.coeff(3, 2), 1))
        v = mono((ring.coeff(3, 0), 1), (ring.coeff(2, 1), 1), (ring.coeff(1, 2), 1))
        assert isinstance(order, WeightedOrder)
        assert order.weight(u) == 17
        assert order.weight(v) == 13
        assert order.key(u) > order.key(v)

    def test_exponents_below_two_to_the_64_are_ordered(self):
        ring = Ring(2, 3)
        a, b = ring.coeff(1, 0), ring.coeff(1, 1)
        for order in (LexOrder(ring.coeff_vars_row_major()), DegRevLexOrder(ring.coeff_vars_row_major())):
            top = 2**64 - 1
            assert order.key(mono((a, top))) > order.key(mono((a, top - 1), (b, 1)))
            assert order.key(mono((a, 1), (b, top - 1))) > order.key(mono((b, top)))
            with pytest.raises(ValueError, match="too large"):
                order.key(mono((a, 2**64)))

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
                ku, kv = order.key(u), order.key(v)
                if not u.is_one:
                    assert order.key(MONOMIAL_ONE) < ku
                assert (ku < kv) == (kv > ku)
                assert (ku == kv) == (u == v)
                if ku < kv:
                    assert order.key(u.mul(w)) < order.key(v.mul(w))


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
        packing, minors = packed_minors(ring, [(1, ((1, 1), (1, 2), (1, 3)))])
        det = packing.polynomial(ring, next(minors))
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
        packing, minors = packed_minors(ring, [(1, ((1, 1), (1, 2)))])
        det = packing.polynomial(ring, next(minors))
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
                assert not any(divides(lm, m) for lm in lms)
            # the subtracted part must itself reduce to zero
            assert normal_form(target - rem, basis, order).is_zero


RING = Ring(2, 2)
RING_X = Ring(2, 2, with_x=True)
# each order with the ring it runs in and a pool of five variables
DIFFERENTIAL_ORDERS = {
    "lex": (LexOrder(RING.coeff_vars_row_major()), RING),
    "degrevlex": (DegRevLexOrder(RING.coeff_vars_column_major()), RING),
    "diagonal": (diagonal_order(build_diagonal_weights(2, 2), RING), RING),
    "elimination": (elimination_order(RING_X), RING_X),
}
COEFFS = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)


def polynomials(ring, max_terms):
    pool = [v for v in ring.variables if v.kind == "x"] + list(ring.coeff_vars_row_major())[:5 - ring.with_x]
    monos = st.lists(st.integers(0, 3), min_size=len(pool), max_size=len(pool)).map(
        lambda exps: Monomial(zip(pool, exps))
    )
    return st.dictionaries(monos, COEFFS, min_size=1, max_size=max_terms).map(lambda t: Polynomial(ring, t))


class TestPackedReducer:
    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_ORDERS))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_reference_reducer(self, name, data):
        # remainder and every coefficient, exactly; a non-unit leading
        # coefficient makes the fraction-free reducer scale its work
        order, ring = DIFFERENTIAL_ORDERS[name]
        basis = data.draw(st.lists(polynomials(ring, 4), min_size=1, max_size=3))
        assume(any(abs(leading_term(b, order)[1]) != 1 for b in basis))
        p = data.draw(polynomials(ring, 8))
        assert normal_form(p, basis, order) == ReferenceReducer(order, basis).reduce(p)

    @pytest.mark.parametrize("power", [10, 40])
    def test_exponents_outgrow_the_first_field_width(self, power):
        # lex x > y: x^3 rewrites to y^(3*power), beyond the first width
        # either while reducing (10) or already when y^40 is packed (40)
        order = LexOrder(RING.coeff_vars_row_major())
        x, y = (Polynomial.variable(RING, RING.coeff(1, j)) for j in (0, 1))
        divisor = x - Polynomial.term(RING, mono((RING.coeff(1, 1), power)), 1)
        target = x * x * x + y.scale(Fraction(2, 3))
        reducer = _Reducer(order, [divisor])
        got = reducer.normal_form(target)
        assert (1 << _FIRST_BITS) <= 3 * power <= reducer.packing.emax
        assert got == ReferenceReducer(order, [divisor]).reduce(target)
        assert got == Polynomial.term(RING, mono((RING.coeff(1, 1), 3 * power)), 1) + y.scale(Fraction(2, 3))
        assert normal_form(target, [divisor], order) == got
