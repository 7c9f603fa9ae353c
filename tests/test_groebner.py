"""Buchberger engine, elimination, and ideal comparisons."""

import itertools
import json
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resultantforge import groebner, orders
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
    minors_are_groebner_basis,
    s_polynomial,
    system_polynomials,
)
from resultantforge.minors import (
    _symbolic,
    enumerate_generators,
    generator_rows,
    packed_minors,
    reduced_rows,
    walk_minors,
)
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
from oracles import all_pairs_groebner, chart_by_substitution, min_rank_basis_run, reduces_to_zero, sylvester_resultant


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


def chart_by_basis(d, n, limits=Limits()):
    """chart_equal's Buchberger route, which expands the family once."""
    return groebner._chart_by_basis(Ring(d, n), limits, groebner._deadline(limits))


def perturb_first_minor(monkeypatch):
    """groebner expands the first depth-1 minor plus 1 in place of that
    minor, in each call that lists a depth-1 generator, whether it expands
    through packed_minors or into kernel ints (where 0 is the constant
    term too)."""

    def plus_one(rows, minors):
        minors = list(minors)
        first = next((i for i, (k, _) in enumerate(rows) if k == 1), None)
        if first is not None:
            minors[first] = {**minors[first], 0: minors[first].get(0, 0) + 1}
        return iter(minors)

    def perturbed(ring, rows):
        packing, minors = packed_minors(ring, rows)
        return packing, plus_one(rows, minors)

    def perturbed_kernel(kernel, ring, rows):
        pairs = list(kernel_minors(kernel, ring, rows))
        return zip([source for source, _ in pairs], plus_one(rows, [minor for _, minor in pairs]))

    kernel_minors = groebner._kernel_minors
    monkeypatch.setattr(groebner, "packed_minors", perturbed)
    monkeypatch.setattr(groebner, "_kernel_minors", perturbed_kernel)


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
            order = diagonal_order(build_diagonal_weights(d, n))
            G = [rec.poly for rec in generators_for_basis(d, n)]
            minors = [rec.poly for rec in enumerate_generators(d, n)]
            assert reduces_to_zero(minors, G, order)

    def test_basis_for_reduced_walk_minors_under_diagonal_order(self):
        from resultantforge.minors import generators_for_basis

        ring = Ring(2, 3)
        order = diagonal_order(build_diagonal_weights(2, 3))
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
        # go through the certificate of verify groebner
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
            # the same cases as verify groebner feeds them in: the rows,
            # each minor expanded straight into the certificate's kernel ints
            rows = reduced_rows(*dn)
            packing, minors = packed_minors(ring, rows)
            assert [{packing.monomial(key): c for key, c in p.items()} for p in minors] == [g.terms for g in gens]
            row_cases = [rows]
            if 1 < len(gens) <= 30:
                row_cases += [rows[:i] + rows[i + 1 :] for i in range(len(gens))]
            assert [minors_are_groebner_basis(ring, c, term_order) for c in row_cases] == want


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


def certify(source, packed, order, limits=Limits()):
    """The certificate of the polynomials packed over source, {key: int
    coefficient} each, translated into the kernel by _Reducer.load."""
    return groebner._Run(order, limits, None).certify((source, terms) for terms in packed)


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
        assert certify(source, packed, order) is want
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
            direct._reset(final)
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
            assert certify(source, rekeyed, order) is want
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
            certify(source, [{source.key(Monomial({ring.coeff(2, 0): 1})): 1}], order)
        with pytest.raises(ZeroPolynomialError):
            certify(source, [{}], order)


class TestMinorsAsKernelInts:
    """verify and leadterms expand each minor straight into the kernel ints
    of its order; a minor expanded before a repack is translated."""

    def test_expansion_matches_the_translated_minors(self):
        # the kernel ints a step table expands are those load makes of the
        # packed minors
        ring, order = Ring(3, 3), diagonal_order(build_diagonal_weights(3, 3))
        reducer = _Reducer(order)
        one, zero, times, _ = _symbolic(ring, reducer.steps)
        rows = reduced_rows(3, 3)
        packing, minors = packed_minors(ring, rows)
        assert list(walk_minors(3, rows, one, zero, times)) == [reducer.load(packing, minor) for minor in minors]

    @pytest.mark.parametrize("command", ["verify groebner", "verify elimination", "verify chart", "leadterms"])
    def test_no_minor_is_translated(self, monkeypatch, capsys, command):
        # every minor meets its term order as kernel ints, also on the
        # chart's Buchberger route; (3, 3) has no depth-1 minor to perturb,
        # so the lift route is switched off to send verify chart down it
        from resultantforge.cli import main

        if command == "verify chart":
            monkeypatch.setattr(groebner, "_lifts_hold", lambda ring, budget: False)
        calls, load = [], _Reducer.load
        monkeypatch.setattr(_Reducer, "load", lambda *args: calls.append(args[1]) or load(*args))
        assert main([*command.split(), "--d", "3", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert len(json.loads(out)) == 88 if command == "leadterms" else '"status": "pass"' in out
        assert calls == []
        # the spy sees the translating route
        ring, order = Ring(3, 3), diagonal_order(build_diagonal_weights(3, 3))
        packing, minors = packed_minors(ring, reduced_rows(3, 3))
        assert groebner._Run(order, Limits(), None).certify((packing, minor) for minor in minors)
        assert calls and set(calls) == {packing}

    @pytest.mark.parametrize("drop", [None, 0, 5])
    def test_narrow_first_width_widens_before_expanding(self, monkeypatch, drop):
        # exponent 3 does not fit a 1-bit field: the kernel widens once,
        # to 2 bits, before the first minor is expanded, and the answer is
        # the oracle's, for the reduced-walk minors and with one left out
        ring, order = Ring(3, 3), diagonal_order(build_diagonal_weights(3, 3))
        rows = reduced_rows(3, 3)
        if drop is not None:
            rows = rows[:drop] + rows[drop + 1 :]
        packing, minors = packed_minors(ring, rows)
        polys = [packing.polynomial(ring, minor) for minor in minors]
        widths = []
        monkeypatch.setattr(orders, "_FIRST_BITS", 1)
        monkeypatch.setattr(_Reducer, "widen", widen_spy(widths))
        assert minors_are_groebner_basis(ring, rows, order) is all_pairs_groebner(polys, order)
        assert widths == [2]

    @pytest.mark.parametrize("drop", [None, 3])
    def test_minors_expanded_before_a_repack(self, monkeypatch, drop):
        # the minors are expanded at a 2-bit width; a multiple of the
        # first one by a_1_0^4 then repacks the certificate, and the minors
        # after it are translated from the width they were expanded at
        ring, order = Ring(3, 3), diagonal_order(build_diagonal_weights(3, 3))
        rows = reduced_rows(3, 3)
        if drop is not None:
            rows = rows[:drop] + rows[drop + 1 :]
        monkeypatch.setattr(orders, "_FIRST_BITS", 2)
        widths = []
        monkeypatch.setattr(_Reducer, "widen", widen_spy(widths))
        run = groebner._Run(order, Limits(), None)
        one, zero, times, _ = _symbolic(ring, run.steps)
        expanded = [(run.packing, minor) for minor in walk_minors(3, rows, one, zero, times)]
        packing, minors = packed_minors(ring, rows)
        polys = [packing.polynomial(ring, minor) for minor in minors]
        big = polys[0].mul_term(Monomial({ring.coeff(1, 0): 4}), 1)
        basis = expanded[:8] + _packed([big]) + expanded[8:]
        assert run.certify(basis) is all_pairs_groebner(polys[:8] + [big] + polys[8:], order)
        assert widths == [4]


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
        # on the Buchberger route the packed depth-d family, a_1_0 - 1 and
        # its 15 minors, loses that minor where its basis is computed; the
        # full family keeps it
        basis_run = groebner._basis_run

        def dropped(order, gens, limits, budget, self_check=True):
            if len(gens) == 16:
                gens = gens[: 1 + drop] + gens[2 + drop :]
            return basis_run(order, gens, limits, budget, self_check)

        monkeypatch.setattr(groebner, "_basis_run", dropped)
        assert chart_by_basis(2, 3) is expected

    def test_full_family_with_a_minor_perturbed(self, monkeypatch, capsys):
        # the first depth-1 minor plus 1 lies outside the chart ideal of the
        # depth-2 minors: only reducing the full family against their basis
        # sees it, since <top> lies in <full> whatever the full family holds
        from resultantforge.cli import main

        perturb_first_minor(monkeypatch)
        assert chart_equal(2, 3) is False
        assert main(["verify", "chart", "--d", "2", "--n", "3"]) == 1
        assert '"status": "fail"' in capsys.readouterr().out

    @staticmethod
    def spied_expansions(monkeypatch) -> tuple:
        """The generators of each groebner.packed_minors call, and the
        number of minors taken so far from each call's stream."""
        calls, taken = [], []
        expand = groebner.packed_minors

        def spied(ring, gens):
            gens = list(gens)
            calls.append(gens)
            taken.append(0)
            idx = len(taken) - 1
            packing, minors = expand(ring, gens)

            def counted():
                for minor in minors:
                    taken[idx] += 1
                    yield minor

            return packing, counted()

        monkeypatch.setattr(groebner, "packed_minors", spied)
        return calls, taken

    @pytest.mark.parametrize("perturb", [False, True], ids=["pass", "perturbed"])
    def test_only_the_lifts_are_expanded_at_depth_d(self, monkeypatch, perturb):
        # the lower minors, then the lift of each, and the full family,
        # straight into kernel ints, only once a comparison fails
        if perturb:
            perturb_first_minor(monkeypatch)
        calls, _ = self.spied_expansions(monkeypatch)
        kernel_calls, kernel_minors = [], groebner._kernel_minors

        def spied(kernel, ring, gens):
            kernel_calls.append(list(gens))
            return kernel_minors(kernel, ring, gens)

        monkeypatch.setattr(groebner, "_kernel_minors", spied)
        assert chart_equal(2, 4) is not perturb
        gens = generator_rows(2, 4)
        lower = [g for g in gens if g[0] < 2]
        lifted = [(2, groebner._lift(2, k, rows)) for k, rows in lower]
        assert len(lifted) < sum(k == 2 for k, _ in gens)
        assert calls == [lower, lifted]
        assert kernel_calls == [gens] * perturb

    def test_lower_minors_and_lifts_stream_one_pair_at_a_time(self, monkeypatch):
        calls, taken = self.spied_expansions(monkeypatch)
        seen, check = [], groebner._check_deadline
        monkeypatch.setattr(groebner, "_check_deadline", lambda *args: seen.append(tuple(taken)) or check(*args))
        assert chart_equal(3, 3, Limits(timeout=60.0))
        lower = len(calls[0])
        # once after both streams are set up, then before each comparison
        assert seen == [(0, 0)] + [(i, i) for i in range(1, lower + 1)]

    @pytest.mark.parametrize("dn", GRID)
    def test_lift_route_agrees_with_the_basis_route(self, monkeypatch, dn):
        # every lower minor lifts to a depth-d generator: no basis is computed
        runs = TestPairSelection.spied_runs(monkeypatch)
        assert chart_equal(*dn) is True
        assert runs == []
        assert chart_by_basis(*dn) is True

    @pytest.mark.parametrize("dn", [(2, 3), (3, 3), (2, 4)])
    def test_lift_from_another_polynomial_falls_back(self, monkeypatch, dn):
        # with f_2's rows in place of f_1's, no lift is a depth-d generator
        # whose minor is a_1_0^(d-k) times the lower minor
        def lift(d, k, rows):
            return tuple((i, 2) for i in range(1, d - k + 1)) + tuple((i + d - k, j) for i, j in rows)

        d, n = dn
        ring, gens = Ring(d, n), generator_rows(d, n)
        packing, minors = packed_minors(ring, gens)
        family = list(zip(gens, minors))
        top = {rows: minor for (k, rows), minor in family if k == d}
        step = 1 << packing.shifts[ring.coeff(1, 0)]
        for (k, rows), minor in family:
            if k < d:
                assert top.get(groebner._lift(d, k, rows)) == {key + (d - k) * step: c for key, c in minor.items()}
                assert top.get(lift(d, k, rows)) != {key + (d - k) * step: c for key, c in minor.items()}
        monkeypatch.setattr(groebner, "_lift", lift)
        runs = TestPairSelection.spied_runs(monkeypatch)
        assert chart_equal(d, n) is True
        assert len(runs) == 1

    @pytest.mark.parametrize("dn", GRID)
    def test_verify_at_timeout_zero_exits_3(self, capsys, dn):
        # the deadline is checked after expansion, also where no minor lifts
        from resultantforge.cli import main

        d, n = dn
        lower = sum(k < d for k, _ in generator_rows(d, n))
        assert main(["verify", "chart", "--d", str(d), "--n", str(n), "--timeout", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"timeout of 0.0s exceeded after 0 of {lower} lifted minors" in captured.err

    def test_pair_basis_and_degree_limits_bind_only_the_basis_route(self, monkeypatch, capsys):
        from resultantforge.cli import main

        limits = Limits(max_pairs=0, max_basis=0, max_degree=0)
        args = ["verify", "chart", "--d", "2", "--n", "3", "--max-pairs", "0"]
        assert chart_equal(2, 3, limits) is True
        assert main(args) == 0
        perturb_first_minor(monkeypatch)
        with pytest.raises(ResourceExhaustedError, match="^basis size limit 0 exceeded$"):
            chart_equal(2, 3, limits)
        capsys.readouterr()
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "pair limit 0 exceeded" in captured.err

    @pytest.mark.parametrize("d, n", [(3, 4), (4, 3), (4, 4), (5, 3)])
    def test_verify_passes_beyond_the_oracle_grid(self, monkeypatch, capsys, d, n):
        # by Buchberger (4, 4) took 90.6 s and (5, 3) 213 s; lifting needs
        # no basis, and expands no depth-d minor but the lifts
        from resultantforge.cli import main

        runs = TestPairSelection.spied_runs(monkeypatch)
        assert main(["verify", "chart", "--d", str(d), "--n", str(n)]) == 0
        assert '"status": "pass"' in capsys.readouterr().out
        assert runs == []


class TestEliminationEqual:
    @staticmethod
    def spied_members(monkeypatch) -> list:
        calls, members = [], groebner._members
        monkeypatch.setattr(groebner, "_members", lambda tasks, budget: calls.append(tasks) or members(tasks, budget))
        return calls

    @pytest.mark.parametrize("dn", [(1, 2), (2, 2), (2, 3), (3, 2), (2, 4)])
    def test_equal_bases_need_no_membership(self, monkeypatch, dn):
        calls = self.spied_members(monkeypatch)
        assert elimination_equal(*dn)[0] is True
        assert calls == []

    def test_a_perturbed_minor_is_decided_by_membership(self, monkeypatch):
        # the first depth-1 minor plus 1 changes the minors' basis, and it
        # does not reduce to zero mod the eliminated basis
        calls = self.spied_members(monkeypatch)
        perturb_first_minor(monkeypatch)
        assert elimination_equal(2, 3)[0] is False
        assert len(calls) == 1


# inputs of the budget cases, built once so that each case makes one call
ELIMINATED_23 = eliminate_x(2, 3)
MINORS_23 = IdealPresentation(
    ELIMINATED_23.ring, [rec.poly for rec in enumerate_generators(2, 3)], ELIMINATED_23.order
)
DIAGONAL_33 = diagonal_order(build_diagonal_weights(3, 3))


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
            lambda limits: minors_are_groebner_basis(Ring(3, 3), reduced_rows(3, 3), DIAGONAL_33, limits),
        ],
        ids=[
            "buchberger", "chart_equal", "elimination_equal", "eliminate_x", "ideal_equal", "minors_are_groebner_basis",
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

    @pytest.mark.parametrize("dn", [(3, 2), (2, 3), (3, 3)])
    def test_lift_route_reads_the_clock_after_expansion_and_before_each_lift(self, monkeypatch, dn):
        d, n = dn
        lower = sum(k < d for k, _ in generator_rows(d, n))
        assert self.readings(monkeypatch, lambda limits: chart_equal(d, n, limits)) == 2 + lower
        self.clock(monkeypatch)
        last = rf"after {max(lower - 1, 0)} of {lower} lifted minors$"
        with pytest.raises(ResourceExhaustedError, match=rf"^timeout of {lower + 0.5}s exceeded {last}"):
            chart_equal(d, n, Limits(timeout=lower + 0.5))

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

    @pytest.mark.parametrize(
        "call, after",
        # at (2, 3) one depth-1 minor lifts; the elimination's first run checks before its first pair
        [(chart_equal, "0 of 1 lifted minors"), (elimination_equal, "0 pairs")],
        ids=["chart_equal", "elimination_equal"],
    )
    def test_deadline_starts_before_the_minors(self, monkeypatch, call, after):
        # the clock reads 10 from the call for the minors on: expansion
        # counts against the timeout of a library call too
        now = [0.0]

        def expanding(expand):
            def expanded(*args):
                now[0] = 10.0
                return expand(*args)

            return expanded

        monkeypatch.setattr(groebner.time, "monotonic", lambda: now[0])
        # chart_equal expands through packed_minors, elimination_equal into kernel ints
        monkeypatch.setattr(groebner, "packed_minors", expanding(packed_minors))
        monkeypatch.setattr(groebner, "_kernel_minors", expanding(groebner._kernel_minors))
        with pytest.raises(ResourceExhaustedError, match=rf"^timeout of 1.0s exceeded after {after}$"):
            call(2, 3, Limits(timeout=1.0))

    def test_pair_limit_is_not_checked_on_entry(self):
        ring, x, y, order = xy_setup()
        assert buchberger([x * y - y], order, Limits(max_pairs=0)).certified_basis == [x * y - y]


class TestDeadlineWhileInserting:
    """The certificate checks the deadline before it inserts each basis
    element, which it expands as it inserts it, and reads no clock without
    a timeout."""

    def test_no_clock_is_read_without_a_timeout(self, monkeypatch):
        monkeypatch.setattr(groebner.time, "monotonic", lambda: pytest.fail("clock read"))
        assert minors_are_groebner_basis(Ring(3, 3), reduced_rows(3, 3), DIAGONAL_33)

    def test_the_message_names_the_elements_inserted(self, monkeypatch):
        # the clock passes the deadline once 5 elements are in
        inserted, insert = [], groebner._Run.insert
        monkeypatch.setattr(groebner._Run, "insert", lambda run, *args: inserted.append(1) or insert(run, *args))
        monkeypatch.setattr(groebner.time, "monotonic", lambda: 10.0 if len(inserted) >= 5 else 0.0)
        with pytest.raises(ResourceExhaustedError, match=r"^timeout of 1.0s exceeded after 5 basis elements inserted$"):
            minors_are_groebner_basis(Ring(3, 3), reduced_rows(3, 3), DIAGONAL_33, Limits(timeout=1.0))
        assert len(inserted) == 5


class TestDeadlineInMembership:
    """The membership step of an ideal comparison checks the
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
        "call, runs, total, perturb",
        [
            # at (2, 3) the full family is a_1_0 - 1 and the 16 minors; the
            # lift route reduces nothing, so chart_equal's Buchberger route
            # is called directly
            (lambda limits: chart_by_basis(2, 3, limits), 1, "17", False),
            # equal bases need no membership step: a perturbed minor forces it
            (lambda limits: elimination_equal(2, 3, limits), 2, r"\d+", True),
            (lambda limits: ideal_equal(MINORS_23, ELIMINATED_23, limits), 1, r"\d+", False),
        ],
        ids=["chart_equal", "elimination_equal", "ideal_equal"],
    )
    def test_no_generator_is_reduced(self, monkeypatch, call, runs, total, perturb):
        if perturb:
            perturb_first_minor(monkeypatch)
        reduced = self.jump_after(monkeypatch, runs)
        with pytest.raises(ResourceExhaustedError, match=rf"^timeout of 1.0s exceeded after 0 of {total} membership reductions$"):
            call(Limits(timeout=1.0))
        assert reduced == []

    def test_verify_exits_3(self, monkeypatch, capsys):
        from resultantforge.cli import main

        # a perturbed minor fails its lifted identity and sends the check
        # to the Buchberger route, whose one run precedes the membership step
        perturb_first_minor(monkeypatch)
        self.jump_after(monkeypatch, 1)
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


class TestXFreeInterreduction:
    """The x-run interreduces only its x-free elements, and the result is
    the x-free part of the fully interreduced basis."""

    @staticmethod
    def x_free_reference(d, n) -> list:
        ring_x = Ring(d, n, with_x=True)
        basis = buchberger(system_polynomials(ring_x), elimination_order(ring_x), self_check=False).certified_basis
        return [p for p in basis if all(v != ring_x.x for m in p.terms for v, _ in m.exps)]

    @pytest.mark.parametrize("dn", GRID)
    def test_eliminated_is_the_x_free_part_of_the_reduced_basis(self, dn):
        ring_x, ring_a = Ring(*dn, with_x=True), Ring(*dn)
        reference = self.x_free_reference(*dn)
        run = groebner._eliminated(*dn, Limits(), None)
        assert [source.polynomial(ring_x, terms) for source, terms in run.divisors()] == reference
        assert eliminate_x(*dn).certified_basis == [Polynomial(ring_a, p.terms) for p in reference]

    @pytest.mark.parametrize("dn, basis, x_free", [((3, 2), 14, 1), ((2, 3), 20, 7)])
    def test_only_the_x_free_elements_are_tail_reduced(self, monkeypatch, dn, basis, x_free):
        # interreduce replaces each element it keeps by its tail-reduced
        # form: the full run keeps the whole minimal basis, the x-run the
        # x-free elements alone
        replaced, replace = [], groebner._Run.replace
        monkeypatch.setattr(groebner._Run, "replace", lambda run, *args: replaced.append(1) or replace(run, *args))
        ring_x = Ring(*dn, with_x=True)
        assert len(buchberger(system_polynomials(ring_x), elimination_order(ring_x), self_check=False).certified_basis) == basis
        assert len(replaced) == basis
        replaced.clear()
        assert len(groebner._eliminated(*dn, Limits(), None).polys) == x_free
        assert len(replaced) == x_free


class TestPairSelection:
    """Pairs are reduced lowest sugar first, then by the term order: the
    work of each run is pinned, and the basis does not depend on it."""

    @staticmethod
    def spied_runs(monkeypatch) -> list:
        runs = []
        basis_run = groebner._basis_run

        def spy(*args, **kwargs):
            runs.append(basis_run(*args, **kwargs))
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
        # of a pair is the degree of its lcm; with a_1_0 - 1 among them the
        # one run of chart_equal's Buchberger route still reduces as many
        # pairs as smallest lcm first
        runs = self.spied_runs(monkeypatch)
        assert chart_by_basis(3, 3)
        assert [run.pairs_processed for run in runs] == [29]

    @pytest.mark.parametrize("kind", ["lex", "elimination", "diagonal"])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_basis_does_not_depend_on_generator_order(self, kind, data):
        # the reduced basis is unique, whatever sequence the pairs come in
        ring = Ring(1, 2, with_x=True)
        order = {
            "lex": LexOrder(ring.variables),
            "elimination": elimination_order(ring),
            # the eliminand in a block above the diagonal order of the coefficients
            "diagonal": BlockOrder((ring.x,), DegRevLexOrder((ring.x,)), diagonal_order(build_diagonal_weights(1, 2))),
        }[kind]
        gens = data.draw(st.lists(fraction_polynomials(ring, 2), min_size=1, max_size=2))
        basis = buchberger(gens, order).certified_basis
        assert buchberger(gens[::-1], order).certified_basis == basis
        assert_reduced(basis, order)
        assert all_pairs_groebner(basis, order)
        assert reduces_to_zero(gens, basis, order)


def lex_system():
    """Four generators under lex on x, a_1_0, a_1_1, a_2_0, small enough
    for one field bit on entry; the run's exponents grow past 3."""
    ring = Ring(1, 2, with_x=True)
    x, a, b, c = (Polynomial.variable(ring, v) for v in (ring.x, ring.coeff(1, 0), ring.coeff(1, 1), ring.coeff(2, 0)))
    one = Polynomial.constant(ring, 1)
    gens = [x * x + a * b - one, a * a + x * b + c, b * b + x * a - one - one, x * c + a]
    return gens, LexOrder((ring.x, ring.coeff(1, 0), ring.coeff(1, 1), ring.coeff(2, 0)))


class TestPairHeap:
    """loop() pops its pairs from a heap and reduces each remainder only
    until its lead is irreducible. On the runs verify makes, the reference
    loop of tests/oracles.py, a min over every pending rank with full
    reduction, reduces the same pairs in the same order to the same run."""

    @staticmethod
    def spied(monkeypatch) -> list:
        """Per _basis_run call, [order, listed gens, eliminate, the (i, j)
        of each pair_remainder() call of loop(), the finished run]."""
        calls = []
        basis_run, pair_remainder = groebner._basis_run, groebner._Run.pair_remainder

        def run_spy(order, gens, limits, budget, self_check=True, eliminate=()):
            calls.append([order, list(gens), eliminate, []])
            calls[-1].append(basis_run(order, calls[-1][1], limits, budget, self_check, eliminate))
            return calls[-1][-1]

        def remainder_spy(run, i, j, stop):
            if not stop:
                calls[-1][3].append((i, j))
            return pair_remainder(run, i, j, stop)

        monkeypatch.setattr(groebner, "_basis_run", run_spy)
        monkeypatch.setattr(groebner._Run, "pair_remainder", remainder_spy)
        return calls

    @staticmethod
    def assert_as_reference(calls):
        for order, gens, eliminate, reduced, run in calls:
            reference, done = min_rank_basis_run(order, gens, eliminate)
            assert reduced == done and run.pairs_processed == len(done)
            assert run.packing.width == reference.packing.width and run.polys == reference.polys

    @pytest.mark.parametrize("dn", GRID)
    def test_buchberger_and_x_runs_follow_the_reference(self, monkeypatch, dn, basis_records, diag_orders):
        calls = self.spied(monkeypatch)
        gens = [rec.poly for rec in basis_records[dn]]
        pres = buchberger(gens, diag_orders[dn], self_check=False)
        groebner._eliminated(*dn, Limits(), None)
        self.assert_as_reference(calls)
        reference = calls[0][-1]
        assert pres.certified_basis == [reference.packing.polynomial(gens[0].ring, terms) for _, terms in reference.divisors()]

    @pytest.mark.parametrize("call", ["chart_by_basis", "elimination_equal"])
    def test_chart_and_minors_runs_follow_the_reference(self, monkeypatch, call):
        calls = self.spied(monkeypatch)
        assert chart_by_basis(3, 3) if call == "chart_by_basis" else elimination_equal(2, 4)[0]
        assert len(calls) == (1 if call == "chart_by_basis" else 2)
        self.assert_as_reference(calls)

    @pytest.mark.parametrize("dn", GRID)
    def test_eliminate_x_equals_the_full_reduction_reference(self, dn):
        ring_x = Ring(*dn, with_x=True)
        reference = min_rank_basis_run(elimination_order(ring_x), _packed(system_polynomials(ring_x)), (ring_x.x,))[0]
        expected = [Polynomial(Ring(*dn), reference.packing.polynomial(ring_x, terms).terms) for _, terms in reference.divisors()]
        assert eliminate_x(*dn).certified_basis == expected

    def test_a_run_that_widens_mid_loop_ends_as_an_unpatched_one(self, monkeypatch):
        gens, order = lex_system()
        calls, widened = self.spied(monkeypatch), []
        unpatched = buchberger(gens, order, self_check=False).certified_basis
        widen = groebner._Run.widen

        def spy(run):
            widened.append((run.pairs_processed, len(run.pairs)))
            widen(run)

        monkeypatch.setattr(groebner._Run, "widen", spy)
        monkeypatch.setattr(orders, "_FIRST_BITS", 1)
        assert buchberger(gens, order, self_check=False).certified_basis == unpatched
        # one repack as the first generator enters, one after 11 pairs with 10 pending
        assert widened == [(0, 0), (11, 10)]
        assert calls[1][-1].pairs_processed == calls[0][-1].pairs_processed == 26
        # the pair that overflowed is reduced again at the new width
        assert calls[1][3] == calls[0][3][:11] + calls[0][3][10:]

    def test_each_remainder_stops_at_its_first_irreducible_term(self, monkeypatch):
        # the x-run at (2, 3): until interreduce(), each divide() returns the
        # state of a full division at its first irreducible term, whose
        # tail a full division would go on to reduce
        checked, divide, interreduce = [], orders._Reducer.divide, groebner._Run.interreduce

        def spy(run, work, stop=False, top=False):
            if checked and checked[-1] is None:  # interreduce() divides fully
                assert not top
                return divide(run, work, stop, top)
            full, full_scale = divide(run, dict(work))
            rem, scale = divide(run, work, stop, top)
            assert top and bool(rem) == bool(full)
            if rem:
                first, *rest = rem
                assert first == full[0] and all(s == scale for _, _, s in rem)
                tail, tail_scale = divide(run, {m: c for m, c, _ in rest})
                assert [(m, c, s * scale) for m, c, s in tail] == full[1:] and scale * tail_scale == full_scale
                guard = run.packing.guard
                checked.append(any(((m | guard) - lead) & guard == guard for m, _, _ in rest for lead in run.leads))
            return rem, scale

        monkeypatch.setattr(orders._Reducer, "divide", spy)
        monkeypatch.setattr(groebner._Run, "interreduce", lambda run, *args: checked.append(None) or interreduce(run, *args))
        groebner._eliminated(2, 3, Limits(), None)
        # 3 generators and the 17 of 49 pairs whose remainder is nonzero; one
        # of those remainders has a tail term that a lead divides
        assert len(checked) == 3 + 17 + 1 and checked.count(True) == 1


@pytest.mark.slow
def test_verify_groebner_four_four(capsys):
    from resultantforge.cli import main

    assert main(["verify", "groebner", "--d", "4", "--n", "4"]) == 0
    assert '"status": "pass"' in capsys.readouterr().out


def test_eliminate_two_four():
    assert len(eliminate_x(2, 4).generators) == 24
