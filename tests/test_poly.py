"""Ring, monomial, and polynomial arithmetic."""

import json
import random
from fractions import Fraction

import pytest

from resultantforge.poly import (
    MONOMIAL_ONE,
    Monomial,
    Polynomial,
    Ring,
    RingMismatchError,
    Variable,
)


def mono(*pairs):
    return Monomial(pairs)


def rand_poly(rng, ring, nterms=4, nvars=3, maxexp=2):
    pool = list(ring.variables)[:nvars]
    terms = {}
    for _ in range(nterms):
        m = Monomial((v, rng.randint(0, maxexp)) for v in pool)
        terms[m] = terms.get(m, 0) + Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Polynomial(ring, terms)


class TestVariable:
    def test_names(self):
        assert Variable("a", 2, 1).name == "a_2_1"
        assert Variable("x").name == "x"
        assert Variable("r").name == "r"
        assert Variable("b", 1, 0).name == "b_1_0"

    def test_parse_round_trip(self):
        for v in (Variable("a", 3, 0), Variable("b", 1, 2), Variable("x"), Variable("r")):
            assert Variable.parse(v.name) == v

    def test_parse_rejects_garbage(self):
        # only the canonical spelling: no leading zeros, no non-ASCII digits
        for bad in ("a_1", "c_1_2", "a_x_1", "", "a_1_2_3", "a_01_0", "b_1_00", "a_\u0661_0", "a_1_\uff12"):
            with pytest.raises(ValueError):
                Variable.parse(bad)


class TestRing:
    def test_membership_and_bounds(self):
        ring = Ring(2, 3)
        assert ring.coeff(1, 0) in ring
        assert ring.coeff(3, 2) in ring
        assert Variable("x") not in ring
        with pytest.raises(ValueError):
            ring.coeff(4, 0)
        with pytest.raises(ValueError):
            ring.coeff(1, 3)

    def test_equal_rings_interchangeable(self):
        p = Polynomial.variable(Ring(2, 3), Variable("a", 1, 0))
        q = Polynomial.variable(Ring(2, 3), Variable("a", 1, 0))
        assert p == q
        assert (p + q).terms[mono((Variable("a", 1, 0), 1))] == 2

    def test_aux_layout(self):
        ring = Ring(3, 2, with_aux=True)
        assert ring.aux(2, 2) in ring
        with pytest.raises(ValueError):
            ring.aux(1, 3)  # b indices stop at d-1
        bare = Ring(3, 2)
        with pytest.raises(RingMismatchError):
            _ = bare.root


class TestMonomial:
    def test_no_zero_exponents_stored(self):
        m = mono((Variable("a", 1, 0), 2), (Variable("a", 1, 1), 0))
        assert m.exps == ((Variable("a", 1, 0), 2),)
        assert m[Variable("a", 1, 1)] == 0
        assert m.degree == 2

    def test_mul_div_lcm(self):
        u = mono((Variable("a", 1, 0), 1))
        v = mono((Variable("a", 1, 1), 2))
        uv = u.mul(v)
        assert uv.degree == 3
        assert uv.div(u) == v
        assert u.lcm(v) == uv
        assert u.divides(uv) and not uv.divides(u)

    def test_equality_is_exponent_map_equality(self):
        assert mono() == MONOMIAL_ONE
        assert mono((Variable("x"), 1)) != mono((Variable("r"), 1))


class TestArithmetic:
    def setup_method(self):
        self.ring = Ring(1, 2, with_x=True)
        self.x = Polynomial.variable(self.ring, self.ring.x)
        self.one = Polynomial.constant(self.ring, 1)

    def test_add_zero_identity(self):
        p = self.x + self.one
        assert p + Polynomial.zero(self.ring) == p

    def test_difference_of_squares(self):
        got = (self.x - self.one) * (self.x + self.one)
        want = self.x * self.x - self.one
        assert got == want

    def test_two_by_two_determinant(self):
        ring = Ring(1, 2)
        a = lambda i, j: Polynomial.variable(ring, ring.coeff(i, j))
        det = a(1, 0) * a(2, 1) + (a(1, 1) * a(2, 0)).scale(-1)
        assert len(det.terms) == 2
        assert det.coefficient(mono((ring.coeff(1, 0), 1), (ring.coeff(2, 1), 1))) == 1
        assert det.coefficient(mono((ring.coeff(1, 1), 1), (ring.coeff(2, 0), 1))) == -1

    def test_exact_round_trips_random(self):
        rng = random.Random(12)
        ring = Ring(2, 2)
        for _ in range(40):
            p, q = rand_poly(rng, ring), rand_poly(rng, ring)
            assert (p + q) - q == p
            assert ((p * q) + (p * q).scale(-1)).is_zero
            assert p * q == q * p
            assert p + q == q + p
        for _ in range(15):
            p, q, r = (rand_poly(rng, ring, nterms=3) for _ in range(3))
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r

    def test_ring_mismatch_raises(self):
        p = Polynomial.constant(Ring(1, 2), 1)
        q = Polynomial.constant(Ring(2, 2), 1)
        with pytest.raises(RingMismatchError):
            _ = p + q
        with pytest.raises(RingMismatchError):
            _ = p * q


class TestSubstitute:
    def test_single_variable_to_constant(self):
        ring = Ring(1, 2)
        det = Polynomial.from_json(
            ring,
            [
                {"c": "1", "m": {"a_1_0": 1, "a_2_1": 1}},
                {"c": "-1", "m": {"a_1_1": 1, "a_2_0": 1}},
            ],
        )
        got = det.substitute({ring.coeff(1, 0): 1})
        assert got == Polynomial.from_json(
            ring,
            [{"c": "1", "m": {"a_2_1": 1}}, {"c": "-1", "m": {"a_1_1": 1, "a_2_0": 1}}],
        )

    def test_eliminand_at_one(self):
        ring = Ring(1, 2, with_x=True)
        x = Polynomial.variable(ring, ring.x)
        p = x * x - Polynomial.constant(ring, 1)
        assert p.substitute({ring.x: 1}).is_zero

    def test_planted_root_kills_sylvester_d1(self):
        ring = Ring(1, 2)
        aux = Ring(1, 2, with_aux=True)
        det = Polynomial.from_json(
            ring,
            [
                {"c": "1", "m": {"a_1_0": 1, "a_2_1": 1}},
                {"c": "-1", "m": {"a_1_1": 1, "a_2_0": 1}},
            ],
        )
        r = Polynomial.variable(aux, aux.root)
        image = Polynomial(aux, det.terms, _trusted=True).substitute(
            {
                aux.coeff(1, 0): Polynomial.variable(aux, aux.aux(1, 0)),
                aux.coeff(1, 1): -(r * Polynomial.variable(aux, aux.aux(1, 0))),
                aux.coeff(2, 0): Polynomial.variable(aux, aux.aux(2, 0)),
                aux.coeff(2, 1): -(r * Polynomial.variable(aux, aux.aux(2, 0))),
            }
        )
        assert image.is_zero

    def test_homomorphism_on_random_samples(self):
        rng = random.Random(77)
        ring = Ring(2, 2)
        aux = Ring(2, 2, with_aux=True)
        assignment = {
            v: rand_poly(rng, aux, nterms=2, nvars=4, maxexp=1) for v in ring.variables
        }
        for _ in range(15):
            p = rand_poly(rng, ring, nterms=3)
            q = rand_poly(rng, ring, nterms=3)
            lhs = (p * q).substitute(assignment, into=aux)
            rhs = p.substitute(assignment, into=aux) * q.substitute(assignment, into=aux)
            assert lhs == rhs

    def test_unmapped_variable_without_home_errors(self):
        ring = Ring(1, 2, with_x=True)
        target = Ring(1, 2)
        p = Polynomial.variable(ring, ring.x)
        with pytest.raises(RingMismatchError):
            p.substitute({}, into=target)


class TestEvaluate:
    def test_exact_values(self):
        ring = Ring(1, 2, with_x=True)
        x = Polynomial.variable(ring, ring.x)
        p = x * x - Polynomial.constant(ring, 1)
        assert p.evaluate({ring.x: Fraction(3, 2)}) == Fraction(5, 4)
        assert p.evaluate({ring.x: 1}) == 0


class TestJson:
    def test_round_trip(self):
        rng = random.Random(5)
        ring = Ring(2, 3)
        for _ in range(20):
            p = rand_poly(rng, ring, nterms=5, nvars=6)
            blob = json.dumps(p.to_json())
            assert Polynomial.from_json(ring, json.loads(blob)) == p

    def test_zero_exponents_dropped_and_negative_rejected(self):
        ring = Ring(1, 2)
        p = Polynomial.from_json(ring, [{"c": "2", "m": {"a_2_1": 1, "a_1_0": 0, "a_1_1": 3}}])
        m = Monomial({ring.coeff(1, 1): 3, ring.coeff(2, 1): 1})
        assert p.terms == {m: 2} and next(iter(p.terms)).exps == m.exps
        with pytest.raises(ValueError, match=r"^negative exponent -1 for a_1_0$"):
            Polynomial.from_json(ring, [{"c": "1", "m": {"a_1_1": 0, "a_1_0": -1}}])

    def test_canonical_key_matches_dense_exponent_vectors(self, all_records, rings):
        for dn, records in all_records.items():
            ring = rings[dn]
            dense = lambda m: tuple(m[v] for v in ring.variables)
            for rec in records:
                terms = list(rec.poly.terms)
                assert sorted(terms, key=ring.canonical_key) == sorted(terms, key=dense)

    def test_rational_strings(self):
        ring = Ring(1, 2)
        p = Polynomial.term(ring, Monomial({ring.coeff(1, 0): 1}), Fraction(-3, 7))
        assert p.to_json() == [{"c": "-3/7", "m": {"a_1_0": 1}}]
