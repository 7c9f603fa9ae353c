"""Buchberger engine, elimination, and ideal comparisons."""

from math import gcd

import pytest

from resultantforge.diagonal import build_diagonal_weights, diagonal_order
from resultantforge.groebner import (
    IdealPresentation,
    Limits,
    ResourceExhaustedError,
    buchberger,
    chart_equal,
    eliminate_x,
    elimination_order,
    ideal_equal,
    is_groebner_basis,
    reduces_to_zero,
    s_polynomial,
    system_polynomials,
)
from resultantforge.minors import enumerate_generators
from resultantforge.orders import BlockOrder, DegRevLexOrder, LexOrder, leading_term, normal_form
from resultantforge.poly import Polynomial, Ring, ZeroPolynomialError

from conftest import GRID
from oracles import all_pairs_groebner, sylvester_resultant


def xring():
    ring = Ring(1, 2, with_x=True)
    return ring, Polynomial.variable(ring, ring.x)


def xy_setup():
    # two generic symbols standing in for x > y under lex
    ring = Ring(1, 2)
    x = Polynomial.variable(ring, ring.coeff(1, 0))
    y = Polynomial.variable(ring, ring.coeff(1, 1))
    order = LexOrder(ring.coeff_vars_row_major())
    return ring, x, y, order


class TestSPolynomial:
    def test_self_pair_vanishes(self):
        ring, x, y, order = xy_setup()
        p = x * x - Polynomial.constant(ring, 1)
        assert s_polynomial(p, p, order).is_zero

    def test_monomials_cancel(self):
        ring, x, y, order = xy_setup()
        assert s_polynomial(x * x, x * y, order).is_zero

    def test_textbook_pair(self):
        ring, x, y, order = xy_setup()
        one = Polynomial.constant(ring, 1)
        s = s_polynomial(x * x - one, x * y - one, order)
        assert s == x - y

    def test_zero_input_rejected(self):
        ring, x, y, order = xy_setup()
        with pytest.raises(ZeroPolynomialError):
            s_polynomial(x, Polynomial.zero(ring), order)


class TestBuchberger:
    def test_single_generator(self):
        ring, x = xring()
        order = BlockOrder((ring.x,), LexOrder((ring.x,)), LexOrder(ring.coeff_vars_row_major()))
        p = x * x - Polynomial.constant(ring, 1)
        pres = buchberger([p], order)
        assert pres.certified_basis == [p]

    def test_example_reproduction(self):
        # the sixteen depth <= 2 minors for (2, 3) under column-major
        # degrevlex: initial ideal generated by seven square-free monomials
        ring = Ring(2, 3)
        order = DegRevLexOrder(ring.coeff_vars_column_major())
        pres = buchberger([rec.poly for rec in enumerate_generators(2, 3, ring)], order)
        lms = {leading_term(g, order)[0] for g in pres.certified_basis}
        a = ring.coeff
        expected = {
            ((a(3, 0), 1), (a(2, 1), 1), (a(1, 2), 1)),
            ((a(3, 0), 1), (a(2, 1), 1), (a(3, 1), 1), (a(2, 2), 1)),
            ((a(3, 0), 1), (a(1, 1), 1), (a(3, 1), 1), (a(2, 2), 1)),
            ((a(2, 0), 1), (a(1, 1), 1), (a(3, 1), 1), (a(2, 2), 1)),
            ((a(3, 0), 1), (a(1, 1), 1), (a(3, 1), 1), (a(1, 2), 1)),
            ((a(2, 0), 1), (a(1, 1), 1), (a(3, 1), 1), (a(1, 2), 1)),
            ((a(2, 0), 1), (a(1, 1), 1), (a(2, 1), 1), (a(1, 2), 1)),
        }
        from resultantforge.poly import Monomial

        assert lms == {Monomial(pairs) for pairs in expected}
        assert all(m.is_squarefree for m in lms)

    def test_reduced_basis_is_certified_and_deterministic(self):
        ring = Ring(2, 2)
        order = DegRevLexOrder(ring.coeff_vars_column_major())
        gens = [rec.poly for rec in enumerate_generators(2, 2, ring)]
        first = buchberger(gens, order)
        second = buchberger(gens, order)
        assert first.certified_basis == second.certified_basis
        assert all_pairs_groebner(first.certified_basis, order)

    def test_certified_basis_generates_the_input_ideal(self):
        ring = Ring(2, 3)
        order = DegRevLexOrder(ring.coeff_vars_column_major())
        gens = [rec.poly for rec in enumerate_generators(2, 3, ring)]
        pres = buchberger(gens, order)
        # every input generator reduces to zero against the certified basis
        assert reduces_to_zero(gens, pres.certified_basis, order)

    def test_reduced_walk_basis_generates_every_minor(self):
        # together with the s-polynomial certification this shows the
        # reduced-walk minors generate the same ideal as the full family
        from resultantforge.minors import generators_for_basis

        for (d, n) in [(1, 2), (2, 2), (2, 3), (3, 2)]:
            ring = Ring(d, n)
            order = diagonal_order(build_diagonal_weights(d, n), ring)
            G = [rec.poly for rec in generators_for_basis(d, n, ring)]
            minors = [rec.poly for rec in enumerate_generators(d, n, ring)]
            assert reduces_to_zero(minors, G, order)

    def test_basis_for_reduced_walk_minors_under_diagonal_order(self):
        from resultantforge.minors import generators_for_basis

        ring = Ring(2, 3)
        order = diagonal_order(build_diagonal_weights(2, 3), ring)
        G = [rec.poly for rec in generators_for_basis(2, 3, ring)]
        assert all_pairs_groebner(G, order)
        # Buchberger started from G keeps the same initial ideal
        pres = buchberger(G, order)
        lms_g = {leading_term(g, order)[0] for g in G}
        lms_b = {leading_term(g, order)[0] for g in pres.certified_basis}
        assert lms_g == lms_b

    def test_pair_limit_raises(self):
        ring = Ring(2, 3)
        order = DegRevLexOrder(ring.coeff_vars_column_major())
        gens = [rec.poly for rec in enumerate_generators(2, 3, ring)]
        with pytest.raises(ResourceExhaustedError):
            buchberger(gens, order, Limits(max_pairs=1))

    def test_basis_size_limit_raises(self):
        ring = Ring(2, 3)
        order = DegRevLexOrder(ring.coeff_vars_column_major())
        gens = [rec.poly for rec in enumerate_generators(2, 3, ring)]
        with pytest.raises(ResourceExhaustedError):
            buchberger(gens, order, Limits(max_basis=3))

    def test_timeout_raises(self):
        ring = Ring(2, 3, with_x=True)
        with pytest.raises(ResourceExhaustedError):
            buchberger(
                system_polynomials(ring),
                elimination_order(ring),
                Limits(timeout=0.0),
            )

    def test_limits_parse(self):
        lim = Limits.parse("max_pairs=10, max_basis=20; max_degree=5, timeout=1.5")
        assert lim == Limits(max_pairs=10, max_basis=20, max_degree=5, timeout=1.5)
        with pytest.raises(ValueError):
            Limits.parse("bogus=3")

    def test_negative_limits_rejected(self):
        assert Limits(timeout=0.0).timeout == 0.0
        for field in ("max_pairs", "max_basis", "max_degree", "timeout"):
            with pytest.raises(ValueError):
                Limits(**{field: -5})


# at (3,3) the 88 minors form a Groebner basis under these two orders, so
# the oracle reduces all 3,828 pairs: about 45 s each
ORACLE_SLOW = {((3, 3), "all", "diag"), ((3, 3), "all", "degrevlex")}


class TestCertificate:
    @pytest.mark.parametrize(
        "dn, family, order",
        [
            pytest.param(
                dn, family, order,
                id=f"{dn[0]},{dn[1]}-{family}-{order}",
                marks=[pytest.mark.slow] if (dn, family, order) in ORACLE_SLOW else [],
            )
            for dn in GRID
            for family in ("walks", "all")
            for order in ("diag", "degrevlex", "lex")
        ],
    )
    def test_matches_all_pairs_oracle(self, dn, family, order, basis_records, all_records, diag_orders):
        # the reduced-walk minors ("walks") or all minors, plus, when there
        # are at most 30 of them, every subset with one generator dropped:
        # those supply most of the non-bases
        records = basis_records if family == "walks" else all_records
        gens = [rec.poly for rec in records[dn]]
        ring = gens[0].ring
        term_order = {
            "diag": diag_orders[dn],
            "degrevlex": DegRevLexOrder(ring.coeff_vars_column_major()),
            "lex": LexOrder(ring.coeff_vars_column_major()),
        }[order]
        cases = [gens]
        if 1 < len(gens) <= 30:
            cases += [gens[:i] + gens[i + 1 :] for i in range(len(gens))]
        want = [all_pairs_groebner(c, term_order) for c in cases]
        assert [is_groebner_basis(c, term_order) for c in cases] == want


class TestEliminateX:
    def test_two_linear_forms(self):
        elim = eliminate_x(1, 2)
        assert len(elim.generators) == 1
        ring = Ring(1, 2)
        det = enumerate_generators(1, 2, ring)[0].poly
        g = elim.generators[0]
        assert g == det or g == -det

    def test_two_quadratics_give_the_resultant(self):
        elim = eliminate_x(2, 2)
        assert len(elim.generators) == 1
        res = sylvester_resultant(Ring(2, 2))
        g = elim.generators[0]
        assert g == res or g == -res

    def test_minors_always_contained(self):
        # the cheap containment direction, checked on its own
        for (d, n) in [(1, 2), (2, 2), (1, 3), (2, 3)]:
            elim = eliminate_x(d, n)
            minors = [rec.poly for rec in enumerate_generators(d, n)]
            assert reduces_to_zero(minors, elim.basis(), elim.order)


class TestIdealEqual:
    def test_same_presentation(self):
        ring = Ring(1, 2)
        order = DegRevLexOrder(ring.coeff_vars_row_major())
        gens = [rec.poly for rec in enumerate_generators(1, 2, ring)]
        a = IdealPresentation(ring, gens, order)
        assert ideal_equal(a, a)

    def test_strict_containment_detected(self):
        ring, x = xring()
        order = BlockOrder((ring.x,), LexOrder((ring.x,)), LexOrder(ring.coeff_vars_row_major()))
        a = IdealPresentation(ring, [x], order)
        b = IdealPresentation(ring, [x * x], order)
        assert not ideal_equal(a, b)

    def test_minors_equal_elimination(self):
        for (d, n) in [(1, 2), (2, 2), (2, 3)]:
            ring = Ring(d, n)
            order = DegRevLexOrder(ring.coeff_vars_column_major())
            minors = IdealPresentation(
                ring, [rec.poly for rec in enumerate_generators(d, n, ring)], order
            )
            assert ideal_equal(minors, eliminate_x(d, n))


class TestChartEqual:
    @pytest.mark.parametrize("dn", [(1, 2), (2, 2), (2, 3)])
    def test_chart(self, dn):
        assert chart_equal(*dn)


def assert_reduced(basis, order):
    """Each element is its own normal form against the others, the leads
    ascend strictly, and coefficients are coprime integers with a positive
    leading coefficient."""
    leads = [leading_term(g, order) for g in basis]
    keys = [order.key(lm) for lm, _ in leads]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    for idx, g in enumerate(basis):
        assert normal_form(g, basis[:idx] + basis[idx + 1 :], order) == g
        assert leads[idx][1] > 0
        assert all(c.denominator == 1 for c in g.terms.values())
        assert gcd(*(c.numerator for c in g.terms.values())) == 1


class TestReducedBasis:
    @pytest.mark.parametrize("dn", GRID)
    def test_buchberger_output_is_reduced(self, dn, basis_records, all_records, diag_orders):
        order = diag_orders[dn]
        for records in (basis_records, all_records):
            gens = [rec.poly for rec in records[dn]]
            assert_reduced(buchberger(gens, order, self_check=False).certified_basis, order)

    @pytest.mark.parametrize("dn", [(2, 2), (2, 3), (3, 2)])
    def test_eliminated_basis_is_reduced(self, dn):
        # the full run over the ring with x is where interreduction rewrites
        # a tail, at (2, 3); eliminate_x keeps only its x-free elements
        ring_x = Ring(*dn, with_x=True)
        order = elimination_order(ring_x)
        assert_reduced(buchberger(system_polynomials(ring_x), order).certified_basis, order)
        elim = eliminate_x(*dn)
        assert_reduced(elim.certified_basis, elim.order)
