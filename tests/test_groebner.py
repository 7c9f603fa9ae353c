"""Buchberger engine, elimination, and ideal comparisons."""

import itertools
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resultantforge import groebner
from resultantforge.diagonal import build_diagonal_weights, diagonal_order
from resultantforge.groebner import (
    IdealPresentation,
    Limits,
    ResourceExhaustedError,
    buchberger,
    chart_equal,
    eliminate_x,
    elimination_equal,
    elimination_order,
    ideal_equal,
    is_groebner_basis,
    is_packed_groebner_basis,
    s_polynomial,
    system_polynomials,
)
from resultantforge.minors import enumerate_generators, packed_minors, reduced_rows
from resultantforge.orders import (
    _FIRST_BITS,
    BlockOrder,
    DegRevLexOrder,
    LexOrder,
    _packed,
    _Reducer,
    leading_term,
    normal_form,
)
from resultantforge.poly import Monomial, Packing, Polynomial, Ring, ZeroPolynomialError

from conftest import GRID
from oracles import _Reducer as ReferenceReducer
from oracles import all_pairs_groebner, chart_by_substitution, reduces_to_zero, sylvester_resultant


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

    def test_zero_generators_rejected(self):
        ring, x = xring()
        order = BlockOrder((ring.x,), LexOrder((ring.x,)), LexOrder(ring.coeff_vars_row_major()))
        with pytest.raises(ZeroPolynomialError, match="^no nonzero generators$"):
            buchberger([Polynomial.zero(ring)], order)

    def test_example_reproduction(self):
        # the sixteen depth <= 2 minors for (2, 3) under column-major
        # degrevlex: initial ideal generated by seven square-free monomials
        ring = Ring(2, 3)
        order = DegRevLexOrder(ring.coeff_vars_column_major())
        pres = buchberger([rec.poly for rec in enumerate_generators(2, 3)], order)
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
        gens = [rec.poly for rec in enumerate_generators(2, 2)]
        first = buchberger(gens, order)
        second = buchberger(gens, order)
        assert first.certified_basis == second.certified_basis
        assert all_pairs_groebner(first.certified_basis, order)

    def test_certified_basis_generates_the_input_ideal(self):
        ring = Ring(2, 3)
        order = DegRevLexOrder(ring.coeff_vars_column_major())
        gens = [rec.poly for rec in enumerate_generators(2, 3)]
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
            G = [rec.poly for rec in generators_for_basis(d, n)]
            minors = [rec.poly for rec in enumerate_generators(d, n)]
            assert reduces_to_zero(minors, G, order)

    def test_basis_for_reduced_walk_minors_under_diagonal_order(self):
        from resultantforge.minors import generators_for_basis

        ring = Ring(2, 3)
        order = diagonal_order(build_diagonal_weights(2, 3), ring)
        G = [rec.poly for rec in generators_for_basis(2, 3)]
        assert all_pairs_groebner(G, order)
        # Buchberger started from G keeps the same initial ideal
        pres = buchberger(G, order)
        lms_g = {leading_term(g, order)[0] for g in G}
        lms_b = {leading_term(g, order)[0] for g in pres.certified_basis}
        assert lms_g == lms_b

    def test_pair_limit_raises(self):
        ring = Ring(2, 3)
        order = DegRevLexOrder(ring.coeff_vars_column_major())
        gens = [rec.poly for rec in enumerate_generators(2, 3)]
        with pytest.raises(ResourceExhaustedError, match=r"^pair limit 1 exceeded$"):
            buchberger(gens, order, Limits(max_pairs=1))

    def test_basis_size_limit_raises(self):
        ring = Ring(2, 3)
        order = DegRevLexOrder(ring.coeff_vars_column_major())
        gens = [rec.poly for rec in enumerate_generators(2, 3)]
        with pytest.raises(ResourceExhaustedError, match=r"^basis size limit 3 exceeded$"):
            buchberger(gens, order, Limits(max_basis=3))

    def test_degree_limit_raises(self):
        # the first basis element, a_1_0 x^2 + ..., has degree 3
        ring = Ring(2, 2, with_x=True)
        with pytest.raises(
            ResourceExhaustedError, match=r"^degree limit 2 exceeded by a basis element of degree 3$"
        ):
            buchberger(system_polynomials(ring), elimination_order(ring), Limits(max_degree=2))

    def test_repacks_mid_run_and_certifies(self, monkeypatch):
        # lex x > y: the pair of x^3 - y and x - y^10 reduces through
        # x y^20 to y^30 - y, past the first field width of 15
        ring, x, y, order = xy_setup()
        y10 = Polynomial.term(ring, Monomial({ring.coeff(1, 1): 10}), 1)
        y30 = Polynomial.term(ring, Monomial({ring.coeff(1, 1): 30}), 1)
        repacked_at = []
        widen = groebner._Run.widen

        def spy(run):
            repacked_at.append(len(run.polys))
            widen(run)

        monkeypatch.setattr(groebner._Run, "widen", spy)
        pres = buchberger([x * x * x - y, x - y10], order)
        # mid-run, with both generators in; then the self-check's fresh
        # certificate repacks before y^30 fits
        assert repacked_at == [2, 0]
        assert pres.certified_basis == [y30 - y, x - y10]
        assert is_groebner_basis(pres.certified_basis, order)
        assert all_pairs_groebner(pres.certified_basis, order)

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

    def test_nan_timeout_rejected(self):
        # every deadline comparison with NaN is false, so it would switch the bound off
        with pytest.raises(ValueError, match="timeout"):
            Limits(timeout=float("nan"))
        with pytest.raises(ValueError, match="timeout"):
            Limits.parse("timeout=nan")


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
        # those supply most of the non-bases; the reduced-walk cases also
        # go through the packed certificate
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
        if family == "walks":
            # the same cases as verify groebner feeds them in: packed minors
            packing, minors = packed_minors(ring, reduced_rows(*dn))
            packed = list(minors)
            assert [{packing.monomial(key): c for key, c in p.items()} for p in packed] == [g.terms for g in gens]
            packed_cases = [packed]
            if 1 < len(gens) <= 30:
                packed_cases += [packed[:i] + packed[i + 1 :] for i in range(len(gens))]
            assert [is_packed_groebner_basis(packing, iter(c), term_order) for c in packed_cases] == want


def fraction_polynomials(ring, emax, max_terms=3):
    variables = ring.variables
    monos = st.lists(st.integers(0, emax), min_size=len(variables), max_size=len(variables)).map(
        lambda exps: Monomial(zip(variables, exps))
    )
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)
    return st.dictionaries(monos, coeffs, min_size=1, max_size=max_terms).map(lambda t: Polynomial(ring, t))


def widen_spy(widths):
    """_Reducer.widen, recording each new width and refusing to repack without end."""
    widen = _Reducer.widen

    def spy(reducer):
        assert reducer.packing.width < 64, "repacks without end"
        widen(reducer)
        widths.append(reducer.packing.width)

    return spy


class TestPackedCertificate:
    def test_import_repacks_past_fifteen(self, monkeypatch):
        # the first element maps a_2_0 at the first width; the second needs
        # a_1_1^20, so its import repacks, and its a_2_0 must be mapped
        # again at the new width
        ring = Ring(1, 2)
        order = LexOrder(ring.coeff_vars_row_major())
        a = lambda j, s, e=1: Polynomial.term(ring, Monomial({ring.coeff(j, s): e}), 1)
        polys = [a(1, 0) * a(2, 0) - a(1, 1) * a(2, 1), a(1, 1, 20) * a(2, 0) - a(2, 1) * a(2, 1)]
        source = Packing(ring.variables, 5)
        packed = [source.pack(p.terms) for p in polys]
        widths = []
        monkeypatch.setattr(_Reducer, "widen", widen_spy(widths))
        reducer = _Reducer(order)
        for terms in packed:
            reducer.retrying(lambda: reducer.add(reducer.unpack(source, terms)))
        assert widths == [8]
        reference = _Reducer(order, polys)
        assert reference.packing.width == 8 and reducer.polys == reference.polys
        want = all_pairs_groebner(polys, order)
        assert is_groebner_basis(polys, order) is want
        widths.clear()
        assert is_packed_groebner_basis(source, packed, order) is want
        assert widths == [8]

    @pytest.mark.parametrize("kind", ["lex", "degrevlex"])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_divisors_do_not_depend_on_width(self, kind, data):
        # the small divisors enter at the first width; a big one needs an
        # exponent past 15, so its import repacks them, and every source
        # variable must be mapped again at the new width
        ring = Ring(1, 2)
        if kind == "lex":
            order = LexOrder(ring.coeff_vars_row_major())
        else:
            order = DegRevLexOrder(ring.coeff_vars_column_major())
        small = data.draw(st.lists(fraction_polynomials(ring, 3), min_size=1, max_size=2))
        big = data.draw(fraction_polynomials(ring, 3)).mul_term(
            Monomial({data.draw(st.sampled_from(ring.variables)): data.draw(st.integers(16, 20))}), 1
        )
        polys = small + [big]
        packed = _packed(polys)
        narrow = packed[0][0]
        final = 2 * _FIRST_BITS
        widths = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Reducer, "widen", widen_spy(widths))
            built = []
            for width in (narrow.width, narrow.width + 3, 40):
                source = Packing(ring.variables, width)
                rekeyed = [{source.key(narrow.monomial(k)): c for k, c in terms.items()} for _, terms in packed]
                widths.clear()
                reducer = _Reducer(order)
                reducer.extend((source, terms) for terms in rekeyed)
                assert widths == [final]
                built.append(reducer.polys)
            # the divisors do not depend on the width of the source packing
            assert built == [built[0]] * len(built)
            # through widen, they are the divisors of a reducer built at that width
            widths.clear()
            direct = _Reducer(order)
            direct._reset(Packing(order.variables, final))
            direct.extend(packed)
            assert widths == [] and direct.polys == built[0]
            assert _Reducer(order, polys).polys == built[0]
            target = data.draw(fraction_polynomials(ring, 20, max_terms=4))
            assert normal_form(target, polys, order) == ReferenceReducer(order, polys).reduce(target)
            want = all_pairs_groebner(polys, order)
            widths.clear()
            assert is_groebner_basis(polys, order) is want
            from_polys = list(widths)
            widths.clear()
            assert is_packed_groebner_basis(source, rekeyed, order) is want
        # each certificate's import of the big element repacks once, to the
        # final width, and both repack alike; under degrevlex no remainder
        # needs more
        assert widths == from_polys and widths[:1] == [final]
        assert kind == "lex" or widths == [final]

    def test_unranked_variable_and_zero_rejected(self):
        ring = Ring(1, 2)
        order = LexOrder([ring.coeff(1, 0), ring.coeff(1, 1)])
        source = Packing(ring.variables, 2)
        with pytest.raises(ValueError, match="a_2_0 not ranked"):
            is_packed_groebner_basis(source, [{source.key(Monomial({ring.coeff(2, 0): 1})): 1}], order)
        with pytest.raises(ZeroPolynomialError):
            is_packed_groebner_basis(source, [{}], order)


class TestEliminateX:
    def test_two_linear_forms(self):
        elim = eliminate_x(1, 2)
        assert len(elim.generators) == 1
        ring = Ring(1, 2)
        det = enumerate_generators(1, 2)[0].poly
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
            assert reduces_to_zero(minors, elim.certified_basis, elim.order)


class TestIdealEqual:
    def test_same_presentation(self):
        ring = Ring(1, 2)
        order = DegRevLexOrder(ring.coeff_vars_row_major())
        gens = [rec.poly for rec in enumerate_generators(1, 2)]
        a = IdealPresentation(ring, gens, order)
        assert ideal_equal(a, a)

    def test_strict_containment_detected(self):
        ring, x = xring()
        order = BlockOrder((ring.x,), LexOrder((ring.x,)), LexOrder(ring.coeff_vars_row_major()))
        a = IdealPresentation(ring, [x], order)
        b = IdealPresentation(ring, [x * x], order)
        assert not ideal_equal(a, b)

    def test_zero_ideal(self):
        # no generators and a zero generator both present the zero ideal
        ring = Ring(1, 2)
        order = DegRevLexOrder(ring.coeff_vars_column_major())
        empty = IdealPresentation(ring, [], order)
        assert ideal_equal(empty, IdealPresentation(ring, [Polynomial.zero(ring)], order))
        a = IdealPresentation(ring, [Polynomial.variable(ring, ring.coeff(1, 0))], order)
        assert not ideal_equal(empty, a)
        assert not ideal_equal(a, empty)

    def test_minors_equal_elimination(self):
        for (d, n) in [(1, 2), (2, 2), (2, 3)]:
            ring = Ring(d, n)
            order = DegRevLexOrder(ring.coeff_vars_column_major())
            minors = IdealPresentation(
                ring, [rec.poly for rec in enumerate_generators(d, n)], order
            )
            assert ideal_equal(minors, eliminate_x(d, n))


class TestChartEqual:
    @pytest.mark.parametrize("dn", GRID)
    def test_chart(self, dn):
        assert chart_by_substitution(*dn)
        assert chart_equal(*dn)

    @pytest.mark.parametrize("drop, expected", [(0, False), (2, True)])
    def test_top_family_with_a_minor_dropped(self, monkeypatch, drop, expected):
        # at (2, 3) the other 14 depth-2 minors miss the chart ideal without
        # the first of them and still generate it without the third
        records = enumerate_generators(2, 3)
        walk = [rec.walk for rec in records if rec.k == 2][drop]
        assert chart_by_substitution(2, 3, skip={walk}) is expected
        # the packed depth-d family, a_1_0 - 1 and its 15 minors, loses that
        # minor where its basis is computed; the full family keeps it
        basis_run = groebner._basis_run

        def dropped(order, gens, limits, budget, self_check=True):
            if len(gens) == 16:
                gens = gens[: 1 + drop] + gens[2 + drop :]
            return basis_run(order, gens, limits, budget, self_check)

        monkeypatch.setattr(groebner, "_basis_run", dropped)
        assert chart_equal(2, 3) is expected


# inputs of the budget cases, built once so that each case makes one call
ELIMINATED_23 = eliminate_x(2, 3)
MINORS_23 = IdealPresentation(
    ELIMINATED_23.ring, [rec.poly for rec in enumerate_generators(2, 3)], ELIMINATED_23.order
)
PACKING_33, REDUCED_MINORS_33 = packed_minors(Ring(3, 3), reduced_rows(3, 3))
REDUCED_MINORS_33 = list(REDUCED_MINORS_33)
DIAGONAL_33 = diagonal_order(build_diagonal_weights(3, 3), Ring(3, 3))


class TestTimeBudget:
    """One timeout bounds every run of a call, self-checks included: under
    a clock that reads 0, 1, 2, ..., a call that reads it N times passes
    with timeout N - 1 and fails at its last check with N - 1.5."""

    @staticmethod
    def clock(monkeypatch):
        ticks = itertools.count()
        monkeypatch.setattr(groebner.time, "monotonic", lambda: float(next(ticks)))
        return ticks

    def readings(self, monkeypatch, call) -> int:
        ticks = self.clock(monkeypatch)
        call(Limits(timeout=1e9))
        return next(ticks)

    @pytest.mark.parametrize(
        "call",
        [
            lambda limits: buchberger(
                [rec.poly for rec in enumerate_generators(2, 3)],
                DegRevLexOrder(Ring(2, 3).coeff_vars_column_major()),
                limits,
            ),
            lambda limits: chart_equal(2, 3, limits),
            lambda limits: elimination_equal(2, 3, limits),
            lambda limits: eliminate_x(2, 3, limits),
            lambda limits: ideal_equal(MINORS_23, ELIMINATED_23, limits),
            lambda limits: is_packed_groebner_basis(PACKING_33, REDUCED_MINORS_33, DIAGONAL_33, limits),
        ],
        ids=[
            "buchberger", "chart_equal", "elimination_equal", "eliminate_x", "ideal_equal", "is_packed_groebner_basis",
        ],
    )
    def test_library_call_shares_one_budget(self, monkeypatch, call):
        n = self.readings(monkeypatch, call)
        assert n > 2
        self.clock(monkeypatch)
        call(Limits(timeout=n - 1.0))
        self.clock(monkeypatch)
        with pytest.raises(ResourceExhaustedError, match=rf"^timeout of {n - 1.5}s exceeded after \d+ "):
            call(Limits(timeout=n - 1.5))

    def test_self_check_reads_the_clock(self, monkeypatch):
        gens = [rec.poly for rec in enumerate_generators(2, 3)]
        order = DegRevLexOrder(Ring(2, 3).coeff_vars_column_major())
        alone = self.readings(monkeypatch, lambda limits: buchberger(gens, order, limits, self_check=False))
        assert self.readings(monkeypatch, lambda limits: buchberger(gens, order, limits)) > alone

    @pytest.mark.parametrize("check", ["groebner", "elimination", "chart"])
    def test_verify_check_shares_one_budget(self, monkeypatch, capsys, check):
        from resultantforge.cli import main

        def call(limits):
            return main(["verify", check, "--d", "2", "--n", "3", "--timeout", str(limits.timeout)])

        n = self.readings(monkeypatch, call)
        self.clock(monkeypatch)
        assert call(Limits(timeout=n - 1.0)) == 0
        self.clock(monkeypatch)
        capsys.readouterr()
        assert call(Limits(timeout=n - 1.5)) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and f"timeout of {n - 1.5}s exceeded" in captured.err


class TestDeadlineOnEntry:
    """buchberger checks the deadline, and only the deadline, before each
    input generator is reduced, under a clock that reads 0 when the budget
    starts and 10 ever after."""

    @staticmethod
    def expired(monkeypatch):
        ticks = itertools.chain([0.0], itertools.repeat(10.0))
        monkeypatch.setattr(groebner.time, "monotonic", lambda: next(ticks))

    def test_single_generator(self, monkeypatch):
        # one generator makes no pair, so no pair check would ever run
        ring, x, y, order = xy_setup()
        self.expired(monkeypatch)
        with pytest.raises(ResourceExhaustedError, match=r"^timeout of 1.0s exceeded after 0 pairs$"):
            buchberger([x * y - y], order, Limits(timeout=1.0))

    def test_no_generator_is_reduced(self, monkeypatch):
        ring = Ring(2, 3)
        gens = [rec.poly for rec in enumerate_generators(2, 3)]
        divided = []
        divide = groebner._Run.divide
        monkeypatch.setattr(groebner._Run, "divide", lambda run, *args: divided.append(1) or divide(run, *args))
        self.expired(monkeypatch)
        with pytest.raises(ResourceExhaustedError, match=r"^timeout of 1.0s exceeded after 0 pairs$"):
            buchberger(gens, DegRevLexOrder(ring.coeff_vars_column_major()), Limits(timeout=1.0))
        assert divided == []

    @pytest.mark.parametrize("call", [chart_equal, elimination_equal])
    def test_deadline_starts_before_the_minors(self, monkeypatch, call):
        # the clock reads 10 from the call for the minors on: expansion
        # counts against the timeout of a library call too
        now = [0.0]

        def expand(*args):
            now[0] = 10.0
            return packed_minors(*args)

        monkeypatch.setattr(groebner.time, "monotonic", lambda: now[0])
        monkeypatch.setattr(groebner, "packed_minors", expand)
        with pytest.raises(ResourceExhaustedError, match=r"^timeout of 1.0s exceeded after 0 pairs$"):
            call(2, 3, Limits(timeout=1.0))

    def test_pair_limit_is_not_checked_on_entry(self):
        ring, x, y, order = xy_setup()
        assert buchberger([x * y - y], order, Limits(max_pairs=0)).certified_basis == [x * y - y]


class TestDeadlineInMembership:
    """The mutual-membership step of an ideal comparison checks the
    deadline before each generator is reduced, under a clock that reads 0
    until the call's last Buchberger run has finished and 10 after it."""

    @staticmethod
    def jump_after(monkeypatch, runs: int) -> list:
        now, done, reduced = [0.0], [], []
        basis_run, reduces = groebner._basis_run, groebner._Reducer.reduces_to_zero

        def run(*args, **kwargs):
            out = basis_run(*args, **kwargs)
            done.append(1)
            if len(done) == runs:
                now[0] = 10.0
            return out

        monkeypatch.setattr(groebner.time, "monotonic", lambda: now[0])
        monkeypatch.setattr(groebner, "_basis_run", run)
        monkeypatch.setattr(groebner._Reducer, "reduces_to_zero", lambda r, polys: reduced.append(1) or reduces(r, polys))
        return reduced

    @pytest.mark.parametrize(
        "call, runs",
        [
            (lambda limits: chart_equal(2, 3, limits), 2),
            (lambda limits: elimination_equal(2, 3, limits), 2),
            (lambda limits: ideal_equal(MINORS_23, ELIMINATED_23, limits), 1),
        ],
        ids=["chart_equal", "elimination_equal", "ideal_equal"],
    )
    def test_no_generator_is_reduced(self, monkeypatch, call, runs):
        reduced = self.jump_after(monkeypatch, runs)
        with pytest.raises(ResourceExhaustedError, match=r"^timeout of 1.0s exceeded after 0 of \d+ membership reductions$"):
            call(Limits(timeout=1.0))
        assert reduced == []

    def test_verify_exits_3(self, monkeypatch, capsys):
        from resultantforge.cli import main

        self.jump_after(monkeypatch, 2)
        assert main(["verify", "chart", "--d", "2", "--n", "3", "--timeout", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "timeout of 1.0s exceeded after 0 of " in captured.err
        assert "Traceback" not in captured.err


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


class TestPairSelection:
    """Pairs are reduced lowest sugar first, then by the term order: the
    work of each run is pinned, and the basis does not depend on it."""

    @staticmethod
    def spied_runs(monkeypatch) -> list:
        runs = []
        basis_run = groebner._basis_run

        def spy(order, gens, limits, budget, self_check=True):
            runs.append(basis_run(order, gens, limits, budget, self_check))
            return runs[-1]

        monkeypatch.setattr(groebner, "_basis_run", spy)
        return runs

    @pytest.mark.parametrize("dn, pairs", [((2, 3), 49), ((3, 2), 26), ((2, 4), 190)])
    def test_elimination_run_reduces_low_sugar_pairs_first(self, monkeypatch, dn, pairs):
        # the elimination order ranks powers of x above degree, so a small
        # lcm may have a high degree; sugar takes low degrees first
        runs = self.spied_runs(monkeypatch)
        groebner._eliminated(*dn, Limits(), None)
        assert [run.pairs_processed for run in runs] == [pairs]

    def test_degrevlex_runs_keep_their_sequence(self, monkeypatch):
        # degrevlex ranks by degree first, so on homogeneous minors the sugar
        # of a pair is the degree of its lcm; with a_1_0 - 1 among them
        # both chart runs still reduce as many pairs as smallest lcm first
        runs = self.spied_runs(monkeypatch)
        assert chart_equal(3, 3)
        assert [run.pairs_processed for run in runs] == [29, 29]

    @pytest.mark.parametrize("kind", ["lex", "elimination", "diagonal"])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_basis_does_not_depend_on_generator_order(self, kind, data):
        # the reduced basis is unique, whatever sequence the pairs come in
        ring = Ring(1, 2, with_x=True)
        order = {
            "lex": LexOrder(ring.variables),
            "elimination": elimination_order(ring),
            "diagonal": diagonal_order(build_diagonal_weights(1, 2), ring),
        }[kind]
        gens = data.draw(st.lists(fraction_polynomials(ring, 2), min_size=1, max_size=2))
        basis = buchberger(gens, order).certified_basis
        assert buchberger(gens[::-1], order).certified_basis == basis
        assert_reduced(basis, order)
        assert all_pairs_groebner(basis, order)
        assert reduces_to_zero(gens, basis, order)


@pytest.mark.slow
def test_verify_groebner_four_four(capsys):
    from resultantforge.cli import main

    assert main(["verify", "groebner", "--d", "4", "--n", "4"]) == 0
    assert '"status": "pass"' in capsys.readouterr().out


def test_eliminate_two_four():
    assert len(eliminate_x(2, 4).generators) == 24
