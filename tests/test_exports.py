"""Exporters: JSON round trip, the committed m2 golden file, a
grammar-level check of the Singular output (no CAS is ever invoked), and
the packed printer's order and bytes against the reference printer in
tests/oracles.py."""

import contextlib
import io
import json
import pathlib
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resultantforge import poly
from resultantforge.cli import build_parser, main
from resultantforge.exports import FORMATS, alias_name, export_ideal, from_json_doc, ideal_pieces
from resultantforge.minors import _symbolic, enumerate_generators, generator_rows, packed_minors
from resultantforge.poly import Monomial, Packing, Polynomial, Ring, RingMismatchError, Variable

from conftest import GRID
from oracles import divides, polynomial_text, reference_export

GOLDEN = pathlib.Path(__file__).parent / "golden"


def gens23():
    ring = Ring(2, 3)
    return ring, [rec.poly for rec in enumerate_generators(2, 3)]


def dumped(ring, polys):
    """The ideal document as json.dumps writes it, for the direct writer."""
    doc = {"d": ring.d, "n": ring.n, "generators": [p.to_json() for p in polys]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestJsonWriter:
    def test_golden_file(self):
        ring, polys = gens23()
        assert export_ideal(ring, polys, "json") == (GOLDEN / "gens_d2_n3.json").read_text()

    # at n >= 10 the name order (a_10_0 < a_1_0) differs from the variable
    # order; at (2, 1) the ideal is empty
    @pytest.mark.parametrize("dn", GRID + [(1, 10), (1, 11), (2, 1)])
    def test_matches_json_dumps(self, dn):
        ring = Ring(*dn)
        polys = [rec.poly for rec in enumerate_generators(*dn)]
        assert export_ideal(ring, polys, "json") == dumped(ring, polys)

    def test_zero_polynomial_and_constant_term(self):
        ring = Ring(2, 3)
        polys = [
            Polynomial.zero(ring),
            Polynomial(ring, {Monomial(): Fraction(-7, 3), Monomial({ring.coeff(1, 0): 2}): 5}),
        ]
        text = export_ideal(ring, polys, "json")
        assert text == dumped(ring, polys)
        assert '"generators": [\n    [],' in text and '"m": {}' in text


class TestJsonRoundTrip:
    def test_structural_identity(self):
        ring, polys = gens23()
        text = export_ideal(ring, polys, "json")
        ring2, packing, minors = from_json_doc(text)
        assert ring2 == ring
        assert [packing.polynomial(ring, m) for m in minors] == polys

    def test_byte_stable(self):
        ring, polys = gens23()
        assert export_ideal(ring, polys, "json") == export_ideal(ring, polys, "json")


class TestM2:
    def test_golden_file(self):
        ring, polys = gens23()
        got = export_ideal(ring, polys, "m2")
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
        text = export_ideal(ring, polys, "m2", alias=False)
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
        errors = _SingularLinter().lint(export_ideal(ring, polys, "singular"))
        assert errors == []

    def test_linter_catches_breakage(self):
        ring, polys = gens23()
        good = export_ideal(ring, polys, "singular")
        assert _SingularLinter().lint(good.replace("dp", "xx")) != []
        assert _SingularLinter().lint(good.replace("a(1)(0)", "zz", 1)) != []


class TestTextAndDispatch:
    def test_text_format_lists_one_per_line(self):
        ring, polys = gens23()
        lines = export_ideal(ring, polys, "text").strip().split("\n")
        assert len(lines) == len(polys)

    def test_dispatch_and_unknown_format(self):
        ring, polys = gens23()
        for fmt in ("json", "m2", "singular", "text"):
            assert export_ideal(ring, polys, fmt)
        with pytest.raises(ValueError):
            export_ideal(ring, polys, "maple")


@st.composite
def ring_and_monomials(draw, max_exp=None, extended=False):
    """A ring with up to 12 polynomials of degree up to 12, so that names
    like a_10_0 and a_1_10 occur, and monomials over its variables."""
    d, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    flags = draw(st.sampled_from([{}, {"with_x": True}, {"with_aux": True}])) if extended else {}
    ring = Ring(d, n, **flags)
    variables = ring.variables
    top = d if max_exp is None else max_exp
    exps = st.dictionaries(st.sampled_from(variables), st.integers(1, top), max_size=6)
    return ring, [Monomial(e) for e in draw(st.lists(exps, min_size=1, max_size=12))]


class TestPackedOrder:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(ring_and_monomials())
    def test_minor_keys_sort_in_canonical_order(self, case):
        ring, monos = case
        packing = _symbolic(ring)[3]
        want = sorted(monos, key=ring.canonical_key, reverse=True)
        assert sorted(monos, key=packing.key, reverse=True) == want
        assert [packing.monomial(packing.key(m)) for m in monos] == monos

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(ring_and_monomials(max_exp=300, extended=True))
    def test_narrowest_packing_sorts_in_canonical_order(self, case):
        ring, monos = case
        packing = Packing.over(monos)
        want = sorted(monos, key=ring.canonical_key, reverse=True)
        assert sorted(monos, key=packing.key, reverse=True) == want


    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(ring_and_monomials(max_exp=9, extended=True), st.integers(1, 4))
    def test_guard_bits_divide_multiply_and_lcm(self, case, width):
        # the rules the reducer relies on, at a width the exponents may outgrow
        ring, monos = case
        packing = Packing(ring.variables, width)
        emax, guard = packing.emax, packing.guard
        v = ring.variables[0]
        assert packing.monomial(packing.key(Monomial({v: emax}))) == Monomial({v: emax})
        with pytest.raises(OverflowError):
            packing.key(Monomial({v: emax + 1}))
        fits = [m for m in monos if all(e <= emax for _, e in m.exps)]
        for m in monos:
            if m not in fits:
                with pytest.raises(OverflowError):
                    packing.key(m)
        for a in fits:
            ka = packing.key(a)
            assert packing.monomial(ka) == a and ka & guard == 0
            for b in fits:
                kb = packing.key(b)
                lcm = packing.lcm(ka, kb)
                assert packing.monomial(lcm) == a.lcm(b)
                for x, kx, y, ky in ((a, ka, b, kb), (a, ka, a.lcm(b), lcm)):
                    assert (((ky | guard) - kx) & guard == guard) == divides(x, y)
                if all(e <= emax for _, e in (a * b).exps):
                    assert packing.monomial(ka + kb) == a * b
                else:
                    assert (ka + kb) & guard


coefficients = st.fractions(min_value=-40, max_value=40, max_denominator=12) | st.sampled_from([1, -1])


class TestPrinter:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(ring_and_monomials(max_exp=20, extended=True), st.data())
    def test_matches_the_monomial_walking_printer(self, case, data):
        ring, monos = case
        p = Polynomial(ring, [(m, data.draw(coefficients)) for m in monos])
        assert repr(p) == polynomial_text(p)
        for m in monos:
            assert repr(m) == polynomial_text(Polynomial(ring, {m: 1}))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(ring_and_monomials(max_exp=5), st.data())
    def test_export_matches_reference(self, case, data):
        ring, monos = case
        size = len(monos)
        cut = data.draw(st.integers(0, size))
        coeffs = [data.draw(coefficients) for _ in monos]
        polys = [Polynomial(ring, zip(monos[:cut], coeffs)), Polynomial(ring, zip(monos[cut:], coeffs[cut:])),
                 Polynomial.zero(ring)]
        for fmt in FORMATS:
            assert export_ideal(ring, polys, fmt) == reference_export(ring, polys, fmt)
        assert export_ideal(ring, polys, "m2", False) == reference_export(ring, polys, "m2", False)


class TestStreaming:
    def test_one_minor_per_piece(self):
        ring = Ring(2, 3)
        packing, minors = packed_minors(ring, generator_rows(2, 3))
        taken = []

        def tracked():
            for minor in minors:
                taken.append(minor)
                yield minor

        pieces = ideal_pieces(ring, packing, tracked(), "json")
        assert not taken
        first = next(pieces)
        assert len(taken) == 1 and first.startswith('{\n  "d": 2,\n  "generators": [\n    [')
        rest = list(pieces)
        assert len(taken) == 16 and len(rest) == 16
        polys = [rec.poly for rec in enumerate_generators(2, 3)]
        assert first + "".join(rest) == export_ideal(ring, polys, "json")

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_emptied_render_memo_keeps_the_bytes(self, monkeypatch, fmt):
        # (2, 4) has 72 minors over more distinct monomials than a memo of
        # 8 entries holds, so every memo is emptied many times
        ring = Ring(2, 4)
        polys = [rec.poly for rec in enumerate_generators(2, 4)]
        monkeypatch.setattr(poly, "RENDER_MEMO_SIZE", 8)
        packing, minors = packed_minors(ring, generator_rows(2, 4))
        assert "".join(ideal_pieces(ring, packing, minors, fmt)) == reference_export(ring, polys, fmt)
        halves = [memo for entry in packing._memos.values() for memo in entry if isinstance(memo, dict)]
        assert len(halves) == 2 * len(packing._memos) > 0
        assert all(len(memo) <= 8 + 1 for memo in halves)

    def test_printing_gens_at_3_4_traces_under_3_mb(self):
        # 39,648 terms over 15,796 monomials; the printer keeps only its
        # half memos, not a string per monomial
        class Discard(io.TextIOBase):
            def writable(self):
                return True

            def write(self, text):
                return len(text)

        build_parser("gens")
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(Discard()):
                assert main(["gens", "--d", "3", "--n", "4", "--format", "json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 1024 * 1024

    def test_bad_alias_raises_before_any_piece(self):
        ring = Ring(26, 1)
        with pytest.raises(ValueError, match="alias naming needs d"):
            ideal_pieces(ring, Packing((), 1), iter(()), "m2", True)


def export_input(capsys, tmp_path, doc, fmt, *flags):
    """(exit code, stdout, stderr) of export --input of doc, a JSON text or
    an object to dump."""
    blob = tmp_path / "ideal.json"
    blob.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    capsys.readouterr()
    code = main(["export", "--input", str(blob), "--format", fmt, *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPackedReader:
    """export --input reads a document straight into packed terms; its
    bytes are those of the reference printer of the same Polynomials."""

    @pytest.mark.parametrize("dn", GRID)
    def test_grid_documents_in_every_format(self, capsys, tmp_path, all_records, dn):
        ring = Ring(*dn)
        polys = [rec.poly for rec in all_records[dn]]
        doc = reference_export(ring, polys, "json")
        for fmt in FORMATS:
            assert export_input(capsys, tmp_path, doc, fmt) == (0, reference_export(ring, polys, fmt), "")
        assert export_input(capsys, tmp_path, doc, "m2", "--no-alias") == (0, reference_export(ring, polys, "m2", False), "")

    @pytest.mark.parametrize("top", [2, 4, 2**70], ids=["2", "4", "2**70"])
    def test_exponents_above_d_widen_the_packing(self, capsys, tmp_path, top):
        # at d = 1 the reader starts with 2-bit fields: 4 and 2**70 outgrow them
        ring = Ring(1, 2)
        a10, a11, a21 = ring.coeff(1, 0), ring.coeff(1, 1), ring.coeff(2, 1)
        polys = [
            Polynomial(ring, {Monomial({a10: top}): -2, Monomial({a10: 1, a21: top}): Fraction(3, 5)}),
            Polynomial(ring, {Monomial({a11: 1}): 1, Monomial(): 7}),
        ]
        doc = reference_export(ring, polys, "json")
        packing, _ = poly.read_terms(ring, json.loads(doc)["generators"])
        assert packing.emax >= top
        for fmt in FORMATS:
            assert export_input(capsys, tmp_path, doc, fmt) == (0, reference_export(ring, polys, fmt), "")

    @pytest.mark.parametrize("bad", [True, 1.0], ids=["true", "1.0"])
    def test_non_integer_exponent_after_an_accepted_one(self, capsys, tmp_path, bad):
        doc = {"d": 1, "n": 2, "generators": [[{"c": "1", "m": {"a_1_0": 1}}, {"c": "1", "m": {"a_1_0": bad}}]]}
        assert export_input(capsys, tmp_path, doc, "text") == (
            2, "", f"error: generators[0]: [1].m.a_1_0 must be an integer, got {bad!r}\n"
        )

    def test_repeated_monomials_that_cancel_are_dropped(self, capsys, tmp_path):
        kept = [{"c": "1/2", "m": {"a_1_0": 1}}, {"c": "2", "m": {"a_2_0": 1}}, {"c": "-1/2", "m": {"a_1_0": 1}}]
        gone = [{"c": "3", "m": {"a_1_1": 1, "a_2_0": 0}}, {"c": "-3", "m": {"a_1_1": 1}}]
        doc = {"d": 1, "n": 2, "generators": [kept, gone]}
        assert export_input(capsys, tmp_path, doc, "text") == (0, "2*a_2_0\n0\n", "")

    def test_foreign_variable_then_a_bad_c(self, capsys, tmp_path):
        # the fields of a generator parse before its ring check; a later
        # generator is not read once one is refused
        foreign, bad = {"c": "1", "m": {"a_3_0": 1}}, {"c": "1/0", "m": {}}
        same = {"d": 1, "n": 2, "generators": [[foreign, bad]]}
        assert export_input(capsys, tmp_path, same, "text") == (
            2, "", "error: generators[0]: [1].c must be a \"num/den\" string with a nonzero denominator, got '1/0'\n"
        )
        later = {"d": 1, "n": 2, "generators": [[foreign], [bad]]}
        assert export_input(capsys, tmp_path, later, "text") == (
            2, "", "error: generators[0]: variable a_3_0 not in Ring(d=1, n=2)\n"
        )
        with pytest.raises(RingMismatchError, match=r"^generators\[0\]: variable a_3_0 not in Ring\(d=1, n=2\)$"):
            from_json_doc(json.dumps(later))

    def test_no_monomial_or_polynomial_is_built(self, capsys, tmp_path, monkeypatch):
        doc = (GOLDEN / "gens_d2_n3.json").read_text()
        want = (GOLDEN / "gens_d2_n3.m2").read_text()

        def refuse(*args, **kwargs):
            raise AssertionError("built a Monomial or a Polynomial")

        monkeypatch.setattr(Monomial, "__init__", refuse)
        monkeypatch.setattr(Monomial, "_make", refuse)
        monkeypatch.setattr(Polynomial, "__init__", refuse)
        assert export_input(capsys, tmp_path, doc, "m2") == (0, want, "")
