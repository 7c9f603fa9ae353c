"""Exporters: JSON round trip, the committed m2 golden file, and a
grammar-level check of the Singular output (no CAS is ever invoked)."""

import json
import pathlib
import re
from fractions import Fraction

import pytest

from resultantforge.exports import (
    alias_name,
    export_ideal,
    from_json_doc,
    to_json_doc,
    to_m2,
    to_singular,
    to_text,
)
from resultantforge.minors import enumerate_generators
from resultantforge.poly import Monomial, Polynomial, Ring, Variable

from conftest import GRID

GOLDEN = pathlib.Path(__file__).parent / "golden"


def gens23():
    ring = Ring(2, 3)
    return ring, [rec.poly for rec in enumerate_generators(2, 3, ring)]


def dumped(ring, polys):
    """The ideal document as json.dumps writes it, for the direct writer."""
    doc = {"d": ring.d, "n": ring.n, "generators": [p.to_json() for p in polys]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestJsonWriter:
    def test_golden_file(self):
        ring, polys = gens23()
        assert to_json_doc(ring, polys) == (GOLDEN / "gens_d2_n3.json").read_text()

    # at n >= 10 the name order (a_10_0 < a_1_0) differs from the variable
    # order; at (2, 1) the ideal is empty
    @pytest.mark.parametrize("dn", GRID + [(1, 10), (1, 11), (2, 1)])
    def test_matches_json_dumps(self, dn):
        ring = Ring(*dn)
        polys = [rec.poly for rec in enumerate_generators(*dn, ring)]
        assert to_json_doc(ring, polys) == dumped(ring, polys)

    def test_zero_polynomial_and_constant_term(self):
        ring = Ring(2, 3)
        polys = [
            Polynomial.zero(ring),
            Polynomial(ring, {Monomial(): Fraction(-7, 3), Monomial({ring.coeff(1, 0): 2}): 5}),
        ]
        text = to_json_doc(ring, polys)
        assert text == dumped(ring, polys)
        assert '"generators": [\n    [],' in text and '"m": {}' in text


class TestJsonRoundTrip:
    def test_structural_identity(self):
        ring, polys = gens23()
        text = to_json_doc(ring, polys)
        ring2, polys2 = from_json_doc(text)
        assert ring2 == ring
        assert polys2 == polys

    def test_byte_stable(self):
        ring, polys = gens23()
        assert to_json_doc(ring, polys) == to_json_doc(ring, polys)


class TestM2:
    def test_golden_file(self):
        ring, polys = gens23()
        got = to_m2(ring, polys)
        want = (GOLDEN / "gens_d2_n3.m2").read_text()
        assert got == want

    def test_alias_names(self):
        assert alias_name(Variable("a", 3, 0), 2) == "a_3"
        assert alias_name(Variable("a", 2, 1), 2) == "b_2"
        assert alias_name(Variable("a", 1, 2), 2) == "c_1"
        with pytest.raises(ValueError):
            alias_name(Variable("a", 1, 0), 26)

    def test_plain_naming_when_alias_off(self):
        ring, polys = gens23()
        text = to_m2(ring, polys, alias=False)
        assert "a_(1,0)" in text.splitlines()[0]
        assert "b_1" not in text


class _SingularLinter:
    """Token-level validation of the emitted Singular script."""

    ring_re = re.compile(r"^ring\s+(\w+)\s*=\s*0\s*,\s*\(([^)]*(?:\([^)]*\)[^)]*)*)\)\s*,\s*dp\s*;$")
    var_re = re.compile(r"a\(\d+\)\(\d+\)")

    def lint(self, text: str):
        errors = []
        statements = [s.strip() for s in text.strip().split(";") if s.strip()]
        if len(statements) < 2:
            return ["expected at least a ring and an ideal statement"]
        if not text.strip().endswith(";"):
            errors.append("script must end with a semicolon")
        ring_line = statements[0] + ";"
        m = re.match(r"^ring\s+(\w+)\s*=\s*0\s*,\s*\((.*)\)\s*,\s*dp;$", ring_line, re.S)
        if not m:
            errors.append("ring declaration malformed")
            return errors
        declared = set(self.var_re.findall(m.group(2)))
        leftover = re.sub(self.var_re, "", m.group(2)).replace(",", "").strip()
        if leftover:
            errors.append(f"unexpected tokens in variable list: {leftover!r}")
        ideal_stmt = statements[1]
        if not ideal_stmt.startswith("ideal "):
            errors.append("second statement must declare an ideal")
            return errors
        body = ideal_stmt.split("=", 1)[1]
        for used in self.var_re.findall(body):
            if used not in declared:
                errors.append(f"undeclared variable {used}")
        cleaned = re.sub(self.var_re, "v", body)
        if not re.fullmatch(r"[\sv0-9+\-*/^,]*", cleaned):
            errors.append("unexpected characters in the ideal body")
        if cleaned.count("(") or cleaned.count(")"):
            errors.append("unbalanced parentheses in the ideal body")
        return errors


class TestSingular:
    def test_lints_clean(self):
        ring, polys = gens23()
        errors = _SingularLinter().lint(to_singular(ring, polys))
        assert errors == []

    def test_linter_catches_breakage(self):
        ring, polys = gens23()
        good = to_singular(ring, polys)
        assert _SingularLinter().lint(good.replace("dp", "xx")) != []
        assert _SingularLinter().lint(good.replace("a(1)(0)", "zz", 1)) != []


class TestTextAndDispatch:
    def test_text_format_lists_one_per_line(self):
        ring, polys = gens23()
        lines = to_text(ring, polys).strip().split("\n")
        assert len(lines) == len(polys)

    def test_dispatch_and_unknown_format(self):
        ring, polys = gens23()
        for fmt in ("json", "m2", "singular", "text"):
            assert export_ideal(ring, polys, fmt)
        with pytest.raises(ValueError):
            export_ideal(ring, polys, "maple")
