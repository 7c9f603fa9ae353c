"""Command-line surface: dispatch, formats, exit statuses, env limits."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resultantforge import cli, geometry
from resultantforge.cli import LIMITS_ENV, main
from resultantforge.exports import export_ideal
from resultantforge.minors import enumerate_generators, generator_rows, generators_for_basis
from resultantforge.orders import leading_term
from resultantforge.poly import Packing, Ring
from resultantforge.roots import CoefficientTuple, membership_scan, sample_planted, sample_random
from resultantforge.walks import components, enumerate_reduced, enumerate_rows, enumerate_walks, walk_leading_monomial

from conftest import GRID
from oracles import reference_export

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = str(pathlib.Path(cli.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestGens:
    def test_m2_matches_golden(self, capsys):
        code, out = run(capsys, "gens", "--d", "2", "--n", "3", "--format", "m2")
        assert code == 0
        assert out == (GOLDEN / "gens_d2_n3.m2").read_text()

    def test_json_matches_golden(self, capsys):
        code, out = run(capsys, "gens", "--d", "2", "--n", "3", "--format", "json")
        assert code == 0
        assert out == (GOLDEN / "gens_d2_n3.json").read_text()

    def test_text_matches_golden(self, capsys):
        code, out = run(capsys, "gens", "--d", "2", "--n", "3", "--format", "text")
        assert code == 0
        assert out == (GOLDEN / "gens_d2_n3.txt").read_text()

    def test_reduced_only_counts(self, capsys):
        code, out = run(capsys, "gens", "--d", "2", "--n", "3", "--reduced-only", "--format", "text")
        assert code == 0
        assert len(out.strip().split("\n")) == 7

    def test_single_polynomial_prints_an_empty_ideal(self, capsys):
        code, out = run(capsys, "gens", "--d", "2", "--n", "1", "--format", "json")
        assert code == 0
        assert out == '{\n  "d": 2,\n  "generators": [],\n  "n": 1\n}\n'

    def test_numeric_coefficient_in_ideal_document_is_usage_error(self, capsys, tmp_path):
        blob = tmp_path / "ideal.json"
        blob.write_text(json.dumps({"d": 1, "n": 2, "generators": [[{"c": 0.5, "m": {"a_1_0": 1}}]]}))
        code, _ = run(capsys, "export", "--input", str(blob), "--format", "text")
        assert code == 2

    def test_json_round_trip_through_export(self, capsys, tmp_path):
        code, out = run(capsys, "gens", "--d", "1", "--n", "2", "--format", "json")
        assert code == 0
        blob = tmp_path / "ideal.json"
        blob.write_text(out)
        code, out2 = run(capsys, "export", "--input", str(blob), "--format", "json")
        assert code == 0
        assert out2 == out

    @pytest.mark.parametrize(
        "fmt, want", [("json", '{\n  "d": 1,\n  "generators": [],\n  "n": 1000000000\n}\n'), ("text", "\n")], ids=["json", "text"]
    )
    def test_export_cost_does_not_grow_with_the_declared_ring(self, tmp_path, fmt, want):
        blob = tmp_path / "ideal.json"
        blob.write_text('{"d": 1, "n": 1000000000, "generators": []}')
        argv = [sys.executable, "-m", "resultantforge", "export", "--input", str(blob), "--format", fmt]
        start = time.monotonic()
        done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=5)
        assert (done.returncode, done.stdout, done.stderr) == (0, want, "")
        assert time.monotonic() - start < 1

    def test_zero_polynomial_and_constant_term_round_trip(self, capsys, tmp_path):
        doc = {"d": 1, "n": 2, "generators": [[], [{"c": "-3/2", "m": {}}, {"c": "1", "m": {"a_1_0": 2}}]]}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        blob = tmp_path / "ideal.json"
        blob.write_text(text)
        code, out = run(capsys, "export", "--input", str(blob), "--format", "json")
        assert code == 0
        assert json.loads(out)["generators"] == [[], [{"c": "1", "m": {"a_1_0": 2}}, {"c": "-3/2", "m": {}}]]
        blob.write_text(out)
        code, again = run(capsys, "export", "--input", str(blob), "--format", "json")
        assert code == 0 and again == out


class TestPrinterBytes:
    """Every format of gens and export --d/--n against the reference
    printer, with each combination of --alias, --k and --reduced-only. At
    (1, 11) the JSON name order puts a_10_* and a_11_* before a_1_*."""

    @pytest.mark.parametrize("command", ["gens", "export"])
    @pytest.mark.parametrize("dn", [(2, 3), (1, 11)])
    @pytest.mark.parametrize(
        "fmt, alias", [("json", None), ("text", None), ("singular", None), ("m2", None), ("m2", True), ("m2", False)]
    )
    @pytest.mark.parametrize("reduced", [False, True])
    def test_matches_reference(self, capsys, command, dn, fmt, alias, reduced):
        d, n = dn
        ring = Ring(d, n)
        records = (generators_for_basis if reduced else enumerate_generators)(d, n)
        flags = ["--format", fmt] + {None: [], True: ["--alias"], False: ["--no-alias"]}[alias]
        flags += ["--reduced-only"] * reduced
        for k in [None, *range(1, d + 1)]:
            polys = [rec.poly for rec in records if k is None or rec.k == k]
            depth = [] if k is None else ["--k", str(k)]
            code, out = run(capsys, command, "--d", str(d), "--n", str(n), *flags, *depth)
            assert code == 0 and out == reference_export(ring, polys, fmt, alias)
            if fmt == "json" and n > 9 and polys:  # the minor a_1_0*a_10_1 - a_1_1*a_10_0
                assert '"a_10_1": 1,\n          "a_1_0": 1\n' in out


# the perfbench reference digests of every job output, read and never written
DIGESTS = json.loads((pathlib.Path(__file__).parents[1] / "perfbench" / "digests.json").read_text())["jobs"]


class TestRecordedDigests:
    """The bytes of every gens and export --input job recorded in
    perfbench/digests.json, (3,4) JSON included. An export input is the
    JSON document gens writes for the (d, n) in its name."""

    @pytest.mark.parametrize("key", sorted(k for k in DIGESTS if k.startswith(("gens ", "export --input "))))
    def test_output_digest(self, capsys, tmp_path, key):
        argv = key.split()
        if argv[0] == "export":
            d, n = re.fullmatch(r"gens-d(\d+)-n(\d+)\.json", argv[2]).groups()
            argv[2] = str(tmp_path / argv[2])
            assert main(["gens", "--d", d, "--n", n, "--format", "json", "-o", argv[2]]) == 0
        code, out = run(capsys, *argv)
        assert code == 0 and hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[key]


class TestCascade:
    def test_aligned_text(self, capsys):
        code, out = run(capsys, "cascade", "--d", "2", "--n", "2", "--k", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert lines[0].split() == ["a_1_0", "a_1_1", "a_1_2", "0"]
        assert lines[2].split() == ["0", "a_1_0", "a_1_1", "a_1_2"]

    def test_json_grid(self, capsys):
        code, out = run(capsys, "cascade", "--d", "1", "--n", "2", "--k", "1", "--format", "json")
        assert code == 0
        assert json.loads(out) == [["a_1_0", "a_1_1"], ["a_2_0", "a_2_1"]]


class TestWalks:
    def test_pairs(self, capsys):
        code, out = run(capsys, "walks", "--d", "1", "--n", "2", "--k", "1")
        assert code == 0
        assert json.loads(out) == [[[1, 0], [2, 1]]]

    def test_reduced_monomials(self, capsys):
        code, out = run(capsys, "walks", "--d", "2", "--n", "3", "--reduced", "--format", "monomials")
        assert code == 0
        assert len(json.loads(out)) == 7

    @pytest.mark.parametrize(
        "golden, flags",
        [("walks_d2_n3.txt", []), ("walks_d2_n3_reduced_monomials.txt", ["--reduced", "--format", "monomials"])],
    )
    def test_matches_golden(self, capsys, golden, flags):
        code, out = run(capsys, "walks", "--d", "2", "--n", "3", *flags)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize("dn", GRID)
    @pytest.mark.parametrize("fmt", ["pairs", "monomials"])
    def test_reduced_depth_equals_filtered_full_output(self, capsys, dn, fmt):
        # --k keeps the reduced walks of length d+k, in the order of the full output
        d, n = dn
        argv = ["walks", "--d", str(d), "--n", str(n), "--reduced"]
        _, pairs = run(capsys, *argv)
        code, full = run(capsys, *argv, "--format", fmt)
        assert code == 0
        lengths = [len(walk) for walk in json.loads(pairs)]
        for k in range(1, d + 1):
            code, out = run(capsys, *argv, "--format", fmt, "--k", str(k))
            assert code == 0
            kept = [item for item, length in zip(json.loads(full), lengths) if length == d + k]
            assert out == json.dumps(kept, indent=2) + "\n"

    @pytest.mark.parametrize("dn", [(3, 3), (2, 4), (4, 3)])
    @pytest.mark.parametrize(
        "flags",
        [[], ["--reduced"], ["--format", "monomials"], ["--reduced", "--format", "monomials"], ["--k", "2"],
         ["--reduced", "--k", "1", "--format", "monomials"]],
        ids=["pairs", "reduced", "monomials", "reduced-monomials", "k", "reduced-k-monomials"],
    )
    def test_streamed_bytes_equal_one_dump(self, capsys, dn, flags):
        # each walk is written as it is enumerated, with the bytes of one
        # json.dumps of the whole list
        d, n = dn
        k = int(flags[flags.index("--k") + 1]) if "--k" in flags else None
        if "--reduced" in flags:
            walks = [w for w in enumerate_reduced(d, n) if k in (None, len(w) - d)]
        else:
            walks = enumerate_walks(d, n, d if k is None else k)
        if "monomials" in flags:
            walks = [repr(walk_leading_monomial(w, Ring(d, n))) for w in walks]
        code, out = run(capsys, "walks", "--d", str(d), "--n", str(n), *flags)
        assert code == 0
        assert out == json.dumps(walks, indent=2) + "\n"


class TestLeadterms:
    def test_diag_and_degrevlex_differ(self, capsys):
        _, diag = run(capsys, "leadterms", "--d", "2", "--n", "3", "--k", "1", "--order", "diag")
        _, rev = run(capsys, "leadterms", "--d", "2", "--n", "3", "--k", "1", "--order", "degrevlex")
        assert json.loads(diag) == ["a_1_0*a_2_1*a_3_2"]
        assert json.loads(rev) == ["a_1_2*a_2_1*a_3_0"]

    def test_matches_golden(self, capsys):
        code, out = run(capsys, "leadterms", "--d", "2", "--n", "3")
        assert code == 0
        assert out == (GOLDEN / "leadterms_d2_n3.json").read_text()

    @pytest.mark.parametrize("dn", [(3, 3), (2, 4), (3, 4), (4, 3)])
    @pytest.mark.parametrize("order", ["diag", "degrevlex", "lex"])
    def test_matches_the_leads_of_the_decoded_minors(self, capsys, dn, order):
        # each lead is the one leading_term picks from the record's
        # polynomial, for all generators, one depth and the reduced walks
        d, n = dn
        records = enumerate_generators(d, n)
        term_order = cli._named_order(order, Ring(d, n))
        cases = [
            ([], records),
            (["--k", "2"], [rec for rec in records if rec.k == 2]),
            (["--reduced-only"], generators_for_basis(d, n)),
        ]
        for flags, want in cases:
            want = [repr(leading_term(rec.poly, term_order)[0]) for rec in want]
            code, out = run(capsys, "leadterms", "--d", str(d), "--n", str(n), "--order", order, *flags)
            assert want and (code, out) == (0, json.dumps(want, indent=2) + "\n")

    def test_four_by_four_fits_in_one_gigabyte(self):
        # a child process whose address space alone is capped at 1 GB: each
        # minor is expanded into kernel ints and dropped once its lead is read
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        done = subprocess.run(
            [sys.executable, "-m", "resultantforge", *"leadterms --d 4 --n 4 --order lex".split()],
            env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=60, preexec_fn=cap,
        )
        assert (done.returncode, done.stderr) == (0, "")

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("order", ["diag", "degrevlex", "lex"])
    def test_one_polynomial_has_no_leading_terms(self, capsys, d, order):
        # n = 1 has no generator, so no order is built: the diagonal
        # weights need n >= 2
        code, out = run(capsys, "leadterms", "--d", str(d), "--n", "1", "--order", order)
        assert (code, out) == (0, "[]\n")


class TestComponentsAndDegree:
    def test_components_json(self, capsys):
        code, out = run(capsys, "components", "--d", "2", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 6 and doc["degree"] == 6
        assert len(doc["components"]) == 6
        assert ["a_1_0", "a_2_0"] in doc["components"]

    def test_components_matches_golden(self, capsys):
        code, out = run(capsys, "components", "--d", "3", "--n", "3")
        assert code == 0
        assert out == (GOLDEN / "components_d3_n3.json").read_text()

    @pytest.mark.parametrize("d, n", [(3, 4), (4, 4), (4, 5), (5, 4)])
    def test_components_match_the_closed_form(self, capsys, d, n):
        code, out = run(capsys, "components", "--d", str(d), "--n", str(n))
        assert code == 0
        closed = sorted((c.variables for c in components(d, n)), key=lambda s: (len(s), sorted(s)))
        assert json.loads(out) == {
            "components": [sorted(v.name for v in comp) for comp in closed],
            "dim": n * d,
            "degree": n * d,
        }

    def test_components_search_for_covers_once(self, capsys, monkeypatch):
        searches = []
        search = geometry.minimal_hitting_sets

        def counted(supports):
            searches.append(len(supports))
            return search(supports)

        monkeypatch.setattr(geometry, "minimal_hitting_sets", counted)
        code, out = run(capsys, "components", "--d", "3", "--n", "3")
        assert code == 0 and len(searches) == 1
        doc = json.loads(out)
        lead = geometry.SquareFreeMonomialIdeal(
            walk_leading_monomial(w, Ring(3, 3)) for w in enumerate_reduced(3, 3)
        )
        dd = geometry.dim_and_degree(lead, 12)
        assert (doc["dim"], doc["degree"]) == (dd.dim, dd.degree)

    def test_degree(self, capsys):
        code, out = run(capsys, "degree", "--degrees", "2,3,5")
        assert code == 0
        assert json.loads(out)["D"] == 10

    @pytest.mark.parametrize("degrees", ["2,x", "2,3.5", "2,"])
    def test_degree_names_the_bad_entry(self, capsys, degrees):
        code = main(["degree", "--degrees", degrees])
        captured = capsys.readouterr()
        bad = degrees.split(",")[1]
        if not bad:  # empty entries are skipped; one degree is too few
            assert code == 2 and "at least two" in captured.err
            return
        assert code == 2 and captured.out == ""
        assert f"--degrees entry must be an integer, got {bad!r}" in captured.err


class TestVerify:
    def test_groebner_single_generator(self, capsys):
        code, out = run(capsys, "verify", "groebner", "--d", "2", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "pass"
        assert doc["parameters"] == {"d": 2, "n": 2}
        assert doc["witnesses"]["basis_size"] == 1
        assert doc["claim"]

    def test_elimination(self, capsys):
        code, out = run(capsys, "verify", "elimination", "--d", "1", "--n", "2")
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_chart(self, capsys):
        code, out = run(capsys, "verify", "chart", "--d", "1", "--n", "2")
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    @pytest.mark.parametrize(
        "check, d, n",
        [
            pytest.param("groebner", 2, 3, id="groebner"),
            pytest.param("elimination", 2, 3, id="elimination"),
            pytest.param("chart", 2, 3, id="chart"),
            pytest.param("elimination", 2, 4, id="elimination-d2-n4"),
            pytest.param("chart", 3, 3, id="chart-d3-n3"),
        ],
    )
    def test_report_matches_golden(self, capsys, check, d, n):
        code, out = run(capsys, "verify", check, "--d", str(d), "--n", str(n))
        assert code == 0
        assert out == (GOLDEN / f"verify_{check}_d{d}_n{n}.json").read_text()

    @pytest.mark.parametrize(
        "d, n, minors, eliminated",
        [
            (3, 3, 88, 16),
            (2, 5, 210, 60),
            (3, 4, 925, 91),
            (4, 3, 514, 37),
            pytest.param(3, 5, 4830, 330, marks=pytest.mark.slow),
            pytest.param(4, 4, 12621, 349, marks=pytest.mark.slow),
            pytest.param(5, 3, 3092, 86, marks=pytest.mark.slow),
        ],
    )
    def test_elimination_passes_beyond_the_golden_grid(self, capsys, d, n, minors, eliminated):
        code, out = run(capsys, "verify", "elimination", "--d", str(d), "--n", str(n))
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "pass"
        assert doc["witnesses"] == {"eliminated_basis": eliminated, "minors": minors}

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_elimination_with_one_polynomial(self, capsys, d):
        # n = 1 has no minors and eliminates nothing: both ideals are zero
        code, out = run(capsys, "verify", "elimination", "--d", str(d), "--n", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "pass"
        assert doc["witnesses"] == {"eliminated_basis": 0, "minors": 0}

    @pytest.mark.parametrize("check", ["elimination", "chart"])
    def test_report_decodes_nothing(self, capsys, monkeypatch, check):
        # minors and bases stay packed from expansion to the report
        def monomial(packing, key):
            raise AssertionError("a packed monomial was decoded")

        monkeypatch.setattr(Packing, "monomial", monomial)
        code, out = run(capsys, "verify", check, "--d", "2", "--n", "3")
        assert code == 0
        assert out == (GOLDEN / f"verify_{check}_d2_n3.json").read_text()

    def test_resource_exhaustion_exit_code(self, capsys):
        code, _ = run(capsys, "verify", "elimination", "--d", "2", "--n", "3", "--max-pairs", "1")
        assert code == 3

    def test_env_limits_respected(self, capsys, monkeypatch):
        monkeypatch.setenv(LIMITS_ENV, "max_pairs=1")
        code, _ = run(capsys, "verify", "elimination", "--d", "2", "--n", "3")
        assert code == 3

    def test_negative_env_limit_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(LIMITS_ENV, "max_pairs=-5")
        code, _ = run(capsys, "verify", "elimination", "--d", "1", "--n", "2")
        assert code == 2

    def test_negative_flag_limit_is_usage_error(self, capsys):
        code, _ = run(capsys, "verify", "elimination", "--d", "1", "--n", "2", "--max-pairs", "-5")
        assert code == 2

    def test_nan_timeout_flag_is_usage_error(self, capsys):
        code = main(["verify", "groebner", "--d", "2", "--n", "2", "--timeout", "nan"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "timeout" in captured.err

    def test_nan_timeout_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(LIMITS_ENV, "timeout=nan")
        code = main(["verify", "groebner", "--d", "2", "--n", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "timeout" in captured.err

    @pytest.mark.parametrize(
        "env, message",
        [
            ("max_pairs", "limit max_pairs must be an integer, got ''"),
            ("max_pairs=1.5", "limit max_pairs must be an integer, got '1.5'"),
            ("max_basis= x ", "limit max_basis must be an integer, got 'x'"),
            ("timeout=soon", "limit timeout must be a number, got 'soon'"),
        ],
    )
    def test_malformed_env_limit_names_the_field(self, capsys, monkeypatch, env, message):
        monkeypatch.setenv(LIMITS_ENV, env)
        code = main(["verify", "groebner", "--d", "2", "--n", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv(LIMITS_ENV, "max_pairs=1")
        code, out = run(capsys, "verify", "elimination", "--d", "1", "--n", "2", "--max-pairs", "100000")
        assert code == 0

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-pairs", "5"], "pair limit 5 exceeded after 5 of 29 pairs"),
            # the deadline is checked before each basis element is inserted
            (["--timeout", "0"], "timeout of 0.0s exceeded after 0 basis elements inserted"),
        ],
    )
    def test_groebner_certificate_is_bounded(self, capsys, flags, message):
        code = main(["verify", "groebner", "--d", "3", "--n", "3", *flags])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("dn", [("3", "4"), ("4", "3")])
    def test_groebner_passes_beyond_the_oracle_grid(self, capsys, dn):
        # the all-pairs check would take minutes here; these sizes extend
        # the certified grid rather than being compared against it
        code, out = run(capsys, "verify", "groebner", "--d", dn[0], "--n", dn[1])
        assert code == 0
        assert json.loads(out)["status"] == "pass"


class TestSampleAndEval:
    def test_planted_round_trip(self, capsys, tmp_path):
        code, out = run(capsys, "sample", "--d", "2", "--n", "3", "--seed", "11", "--planted")
        assert code == 0
        blob = tmp_path / "tuple.json"
        blob.write_text(out)
        code, out = run(capsys, "eval", "--d", "2", "--n", "3", "--coeffs", str(blob))
        assert code == 0
        doc = json.loads(out)
        assert doc["root_report"]["has_affine_common_root"]
        assert all(entry["vanishes"] for entry in doc["generators"])
        assert doc["biconditional_ok"]

    @pytest.mark.parametrize(
        "golden, tup",
        [
            ("eval_d2_n3_planted_seed11.json", sample_planted(2, 3, 11).to_json()),
            # the frozen fixture of the depth-one test in test_roots.py
            (
                "eval_d2_n3_depth_one.json",
                {
                    "d": 2,
                    "n": 3,
                    "values": [
                        ["17/7", "-19/14", "20/11"],
                        ["-11/16", "7/3", "-15/7"],
                        ["62525/14112", "-8557/2646", "1825/462"],
                    ],
                },
            ),
        ],
    )
    def test_eval_matches_golden(self, capsys, tmp_path, golden, tup):
        blob = tmp_path / "tuple.json"
        blob.write_text(json.dumps(tup))
        code, out = run(capsys, "eval", "--d", "2", "--n", "3", "--coeffs", str(blob))
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize(
        "sampler, digest",
        [
            (sample_planted, "7a5636c04afb8dc040782a5401729382e936e79532cae9fa80217bf8020be0d5"),
            (sample_random, "b60e668c3aff79a342fe71456ab8c007098cadea596c64ab0e7d732aa8684ad2"),
        ],
    )
    def test_eval_at_3_4_matches_pinned_digest(self, capsys, tmp_path, sampler, digest):
        # each report is about 321 KB, so its SHA-256 is pinned instead of a file
        blob = tmp_path / "tuple.json"
        blob.write_text(json.dumps(sampler(3, 4, 11).to_json()))
        code, out = run(capsys, "eval", "--d", "3", "--n", "4", "--coeffs", str(blob))
        assert code == 0 and hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("dn", GRID + [(2, 1)])
    def test_eval_writer_matches_json_dumps(self, dn):
        for seed in range(3):
            for tup in (sample_planted(*dn, seed), sample_random(*dn, seed)):
                report = membership_scan(tup)
                doc = {
                    "root_report": {
                        "has_affine_common_root": report.root.has_affine_common_root,
                        "all_leading_zero": report.root.all_leading_zero,
                        "gcd_degree": report.root.gcd_degree,
                    },
                    "generators": [
                        {"k": k, "rows": [list(p) for p in rows], "vanishes": v}
                        for (k, rows), v in zip(report.generators, report.vanishing)
                    ],
                    "top_minors_all_vanish": report.top_minors_all_vanish,
                    "biconditional_ok": report.biconditional_ok,
                }
                assert cli._eval_doc(report, *dn) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_sample_deterministic(self, capsys):
        _, first = run(capsys, "sample", "--d", "2", "--n", "2", "--seed", "3")
        _, second = run(capsys, "sample", "--d", "2", "--n", "2", "--seed", "3")
        assert first == second

    @pytest.mark.parametrize("dn", [("0", "2"), ("2", "0")])
    @pytest.mark.parametrize("planted", [[], ["--planted"]])
    def test_sample_rejects_empty_shape(self, capsys, dn, planted):
        code, out = run(capsys, "sample", "--d", dn[0], "--n", dn[1], "--seed", "1", *planted)
        assert code == 2 and out == ""

    def test_eval_dimension_mismatch_is_usage_error(self, capsys, tmp_path):
        _, out = run(capsys, "sample", "--d", "1", "--n", "2", "--seed", "1")
        blob = tmp_path / "tuple.json"
        blob.write_text(out)
        code, _ = run(capsys, "eval", "--d", "2", "--n", "3", "--coeffs", str(blob))
        assert code == 2

    def test_eval_rejects_float_coefficients(self, capsys, tmp_path):
        blob = tmp_path / "tuple.json"
        blob.write_text(json.dumps({"d": 1, "n": 2, "values": [["1", 0.1], ["3", "4"]]}))
        code, _ = run(capsys, "eval", "--d", "1", "--n", "2", "--coeffs", str(blob))
        assert code == 2


class TestExitCodes:
    def test_failed_check_maps_to_one(self, capsys):
        from resultantforge.cli import _verify_report

        class Args:
            d, n, output = 1, 2, None

        assert _verify_report(Args(), "claim", True, {}) == 0
        capsys.readouterr()
        assert _verify_report(Args(), "claim", False, {}) == 1
        assert json.loads(capsys.readouterr().out)["status"] == "fail"

    def test_out_of_memory_maps_to_three(self, monkeypatch):
        def exhausted(args):
            raise MemoryError

        help_text, _, options = cli.COMMANDS["degree"]
        monkeypatch.setitem(cli.COMMANDS, "degree", (help_text, exhausted, options))
        code, out, err = run_quiet("degree", "--degrees", "2,3")
        assert (code, out, err) == (3, "", "resource limit hit: out of memory\n")

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "argv, seconds",
        [
            ("walks --d 5 --n 5", 60),
            ("leadterms --d 5 --n 4", 60),
            ("gens --d 6 --n 6", 60),
            ("verify groebner --d 6 --n 4 --timeout 0", 60),
            ("verify groebner --d 5 --n 5 --timeout 5", 10),
            ("verify groebner --d 4 --n 5 --timeout 0", 60),
            ("verify chart --d 6 --n 3 --timeout 5", 60),
            ("verify elimination --d 5 --n 3 --timeout 5", 60),
        ],
    )
    def test_past_the_frontier_ends_with_zero_or_three(self, argv, seconds):
        # each command as a child process whose address space alone is
        # capped at 3 GB: it finishes, or says in one line which limit it hit
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-m", "resultantforge", *argv.split()], env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=seconds, preexec_fn=cap,
        )
        assert time.monotonic() - start < seconds
        assert done.returncode in (0, 3)
        assert "Traceback" not in done.stderr and len(done.stderr.splitlines()) == (done.returncode == 3)


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["gens", "--d", "2"]) == 2

    @pytest.mark.parametrize("command", ["gens", "export"])
    def test_alias_past_the_alphabet_is_usage_error(self, capsys, tmp_path, command):
        target = tmp_path / "out.m2"
        code = main([command, "--d", "26", "--n", "1", "--format", "m2", "--alias", "-o", str(target)])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == "error: alias naming needs d + 1 <= 26, got d = 26\n"
        assert not target.exists()

    def test_export_needs_a_source(self, capsys):
        assert main(["export", "--format", "m2"]) == 2

    @pytest.mark.parametrize(
        "d, n, message",
        [("0", "3", "degree d must be >= 1, got 0"), ("2", "0", "system size n must be >= 1, got 0")],
    )
    def test_export_names_a_zero_size(self, capsys, d, n, message):
        assert main(["export", "--d", d, "--n", n, "--format", "text"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flags",
        [["--k", "7"], ["--k", "1"], ["--d", "2"], ["--n", "3"], ["--reduced-only"]],
    )
    def test_export_input_takes_no_generator_flags(self, capsys, tmp_path, flags):
        blob = tmp_path / "gens.json"
        assert main(["gens", "--d", "2", "--n", "3", "--format", "json", "-o", str(blob)]) == 0
        code, out = run(capsys, "export", "--input", str(blob), *flags, "--format", "text")
        assert code == 2 and out == ""

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code = main(["degree", "--degrees", "1,1", "-o", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["D"] == 2


# stdout, stderr and exit code of help, usage and parse errors, as the
# parser of every subcommand wrote them at 80 columns
USAGE_CASES = json.loads((GOLDEN / "cli_usage.json").read_text())


def subcommands(parser) -> list:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


class TestParserOutput:
    @pytest.mark.parametrize("case", USAGE_CASES, ids=lambda case: " ".join(case["argv"]) or "(none)")
    def test_matches_golden(self, capsys, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", "80")
        code = main(case["argv"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])

    @staticmethod
    def built(monkeypatch) -> list:
        """The subcommands of every parser main builds from now on."""
        seen = []

        def recording(command=None):
            parser = build(command)
            seen.append(subcommands(parser))
            return parser

        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", recording)
        return seen

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_known_command_builds_only_its_parser(self, capsys, monkeypatch, command):
        seen = self.built(monkeypatch)
        assert main([command, "--help"]) == 0
        assert seen == [[command]]

    def test_a_job_builds_only_its_parser(self, capsys, monkeypatch):
        seen = self.built(monkeypatch)
        assert main(["verify", "groebner", "--d", "2", "--n", "3"]) == 0
        assert seen == [["verify"]]

    @pytest.mark.parametrize(
        "argv, parsers",
        [
            ([], [None]),
            (["--help"], [None]),
            (["bogus"], [None]),
            (["gens", "--d", "2", "--n", "3", "--bogus"], ["gens", None]),
        ],
    )
    def test_full_parser_only_where_it_shapes_the_output(self, capsys, monkeypatch, argv, parsers):
        seen = self.built(monkeypatch)
        main(argv)
        assert seen == [list(cli.COMMANDS) if name is None else [name] for name in parsers]

    @staticmethod
    def successful_jobs(tmp_path) -> list:
        """One argv per command, each exiting 0."""
        coeffs = tmp_path / "tuple.json"
        coeffs.write_text(json.dumps(sample_planted(2, 3, 5).to_json()))
        jobs = [
            ["gens", "--d", "2", "--n", "3", "--format", "json"],
            ["cascade", "--d", "2", "--n", "3"],
            ["walks", "--d", "2", "--n", "3", "--reduced"],
            ["leadterms", "--d", "2", "--n", "3"],
            ["components", "--d", "2", "--n", "3"],
            ["degree", "--degrees", "2,3"],
            ["verify", "elimination", "--d", "2", "--n", "2"],
            ["eval", "--d", "2", "--n", "3", "--coeffs", str(coeffs)],
            ["sample", "--d", "2", "--n", "3", "--seed", "4"],
            ["export", "--d", "2", "--n", "3", "--format", "m2"],
        ]
        assert [argv[0] for argv in jobs] == list(cli.COMMANDS)
        return jobs

    def test_reused_parsers_write_the_golden_bytes(self, capsys, monkeypatch, tmp_path):
        # every case twice in one process, forward then reversed, with a
        # job of each command in between: a parser reused after parsing,
        # failing or printing help writes what a new one writes
        monkeypatch.setenv("COLUMNS", "80")
        cli.build_parser.cache_clear()
        jobs = self.successful_jobs(tmp_path)
        for cases in (USAGE_CASES, jobs, USAGE_CASES[::-1]):
            for case in cases:
                argv = case["argv"] if isinstance(case, dict) else case
                code = main(argv)
                captured = capsys.readouterr()
                if isinstance(case, dict):
                    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])
                else:
                    assert (code, captured.err) == (0, "")

    def test_a_second_job_builds_no_parser(self, capsys, monkeypatch):
        built, init = [], argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
        cli.build_parser.cache_clear()
        argv = ["verify", "chart", "--d", "2", "--n", "3"]
        assert main(argv) == 0
        assert built  # the verify parser and its subparser
        built.clear()
        assert main(argv) == 0
        assert built == []
        capsys.readouterr()

    def test_a_handler_patched_after_the_build_runs(self, capsys, monkeypatch):
        argv = ["degree", "--degrees", "2,3"]
        assert main(argv) == 0
        assert cli.build_parser.cache_info().currsize >= 1
        seen = []
        help_text, _, options = cli.COMMANDS["degree"]
        monkeypatch.setitem(cli.COMMANDS, "degree", (help_text, lambda args: seen.append(args.degrees) or 0, options))
        capsys.readouterr()
        assert run(capsys, *argv) == (0, "")
        assert seen == ["2,3"]

    @pytest.mark.parametrize("argv", [["verify", "--help"], ["bogus"]])
    def test_module_entry_point_reads_sys_argv(self, argv):
        (case,) = [case for case in USAGE_CASES if case["argv"] == argv]
        env = dict(os.environ, COLUMNS="80", PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, "-m", "resultantforge", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert (done.returncode, done.stdout, done.stderr) == (case["code"], case["stdout"], case["stderr"])


GOOD_TUPLE = {"d": 1, "n": 2, "values": [["1", "2"], ["3", "4"]]}
GOOD_TERM = {"c": "1", "m": {"a_1_0": 1}}


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "doc",
        [
            {"d": 1, "n": 2},
            {"d": 1, "n": 2, "values": "1,2,3,4"},
            {"d": 1, "n": 2, "values": [["1", "2"], 3]},
            [["1", "2"], ["3", "4"]],
            dict(GOOD_TUPLE, d=1.9),
            dict(GOOD_TUPLE, d="1"),
            dict(GOOD_TUPLE, d=True),
            {"d": 1, "n": 2, "values": [["1", "2"], ["3", "1/0"]]},
            {"d": 1, "n": 2, "values": [["1", "1.5e1"], ["3", "4"]]},
            {"d": 1, "n": 2, "values": [[" 2 ", "2"], ["3", "4"]]},
            {"d": 1, "n": 2, "values": [["1", "2"], ["3/-4", "4"]]},
        ],
        ids=[
            "no-values", "values-not-list", "row-not-list", "array", "float-d", "string-d", "bool-d",
            "zero-denominator", "exponent-notation", "padded", "negative-denominator",
        ],
    )
    def test_eval_exits_two(self, capsys, tmp_path, doc):
        blob = tmp_path / "tuple.json"
        blob.write_text(json.dumps(doc))
        code, out = run(capsys, "eval", "--d", "1", "--n", "2", "--coeffs", str(blob))
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "doc",
        [
            {"d": 1, "n": 2},
            {"d": 1, "n": 2, "generators": [GOOD_TERM]},
            {"d": 1, "n": 2, "generators": [[{"m": {"a_1_0": 1}}]]},
            {"d": 1, "n": 2, "generators": [[{"c": "1"}]]},
            {"d": 1, "n": 2, "generators": [[{"c": "1", "m": {"a_1_0": 1.9}}]]},
            {"d": 1, "n": 2, "generators": [[{"c": "1", "m": {"a_1_0": True}}]]},
            {"d": 1, "n": 2, "generators": [[{"c": "1", "m": {"a_1_0": "2"}}]]},
            {"d": 1.0, "n": 2, "generators": [[GOOD_TERM]]},
            [[GOOD_TERM]],
            {"d": 1, "n": 2, "generators": [[{"c": "1", "m": {"a_01_0": 1, "a_1_0": 1}}]]},
            {"d": 1, "n": 2, "generators": [[{"c": "1", "m": {"a_1_0": 1}}, {"c": "1", "m": {"1": 1}}]]},
            {"d": 1, "n": 2, "generators": [[{"c": "1/0", "m": {"a_1_0": 1}}]]},
            {"d": 1, "n": 2, "generators": [[{"c": "1.5e1", "m": {"a_1_0": 1}}]]},
            {"d": 1, "n": 2, "generators": [[{"c": " 2 ", "m": {"a_1_0": 1}}]]},
            {"d": 1, "n": 2, "generators": [[{"c": "1.5", "m": {"a_1_0": 1}}]]},
        ],
        ids=[
            "no-generators", "generator-not-list", "term-without-c", "term-without-m",
            "float-exponent", "bool-exponent", "string-exponent", "float-d", "array",
            "non-canonical-name", "name-equal-to-a-coefficient", "zero-denominator",
            "exponent-notation", "padded", "decimal-point",
        ],
    )
    def test_export_input_exits_two(self, capsys, tmp_path, doc):
        blob = tmp_path / "ideal.json"
        blob.write_text(json.dumps(doc))
        code, out = run(capsys, "export", "--input", str(blob), "--format", "text")
        assert code == 2 and out == ""

    def test_error_names_the_field(self, capsys, tmp_path):
        blob = tmp_path / "ideal.json"
        blob.write_text(json.dumps({"d": 1, "n": 2, "generators": [[GOOD_TERM, {"m": {}}]]}))
        assert main(["export", "--input", str(blob), "--format", "text"]) == 2
        assert capsys.readouterr().err == "error: generators[0]: [1].c is missing\n"

    @pytest.mark.parametrize("c", ["1/0", "1.5e1", " 2 "])
    def test_bad_rational_names_the_field(self, capsys, tmp_path, c):
        blob = tmp_path / "ideal.json"
        blob.write_text(json.dumps({"d": 1, "n": 2, "generators": [[GOOD_TERM, {"c": c, "m": {}}]]}))
        assert main(["export", "--input", str(blob), "--format", "text"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f'error: generators[0]: [1].c must be a "num/den" string with a nonzero denominator, got {c!r}\n'
        )

    def test_bad_tuple_entry_names_the_field(self, capsys, tmp_path):
        blob = tmp_path / "tuple.json"
        blob.write_text(json.dumps({"d": 1, "n": 2, "values": [["1", "2"], ["3", "1/0"]]}))
        assert main(["eval", "--d", "1", "--n", "2", "--coeffs", str(blob)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: values[1][1] must be")

    def test_fraction_strings_still_parse(self, capsys, tmp_path):
        # str(Fraction) output, as sample and the benchmark write it
        terms = [{"c": "-12/7", "m": {"a_1_0": 1}}, {"c": "5", "m": {"a_2_1": 1}}, {"c": "007/2", "m": {}}]
        blob = tmp_path / "ideal.json"
        blob.write_text(json.dumps({"d": 1, "n": 2, "generators": [terms]}))
        code, out = run(capsys, "export", "--input", str(blob), "--format", "text")
        assert code == 0 and out == "-12/7*a_1_0 + 5*a_2_1 + 7/2\n"

    def test_name_is_not_read_as_a_coefficient(self, capsys, tmp_path):
        # "1" is first read as a "c", then met as a variable name
        terms = [{"c": "1", "m": {"a_1_0": 1}}, {"c": "1", "m": {"1": 1}}]
        blob = tmp_path / "ideal.json"
        blob.write_text(json.dumps({"d": 1, "n": 2, "generators": [terms]}))
        assert main(["export", "--input", str(blob), "--format", "text"]) == 2
        assert capsys.readouterr().err == "error: generators[0]: unrecognized variable name '1'\n"

    def test_integer_exponent_still_accepted(self, capsys, tmp_path):
        blob = tmp_path / "ideal.json"
        blob.write_text(json.dumps({"d": 1, "n": 2, "generators": [[{"c": "-2", "m": {"a_1_0": 2}}]]}))
        code, out = run(capsys, "export", "--input", str(blob), "--format", "text")
        assert code == 0 and out == "-2*a_1_0^2\n"


class TestDepthFlag:
    @pytest.mark.parametrize(
        "command", ["gens", "leadterms", "export", "cascade", "walks", "walks --reduced"]
    )
    @pytest.mark.parametrize("k", ["0", "-1", "3"])
    def test_out_of_range_is_usage_error(self, capsys, command, k):
        extra = ["--format", "text"] if command == "export" else []
        code, out = run(capsys, *command.split(), "--d", "2", "--n", "3", "--k", k, *extra)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("dn", GRID)
    @pytest.mark.parametrize("reduced", [False, True])
    def test_depth_equals_filtered_full_output(self, capsys, all_records, basis_records, dn, reduced):
        d, n = dn
        records = (basis_records if reduced else all_records)[dn]
        flags = ["--reduced-only"] * reduced
        for k in range(1, d + 1):
            code, out = run(capsys, "gens", "--d", str(d), "--n", str(n), "--k", str(k), "--format", "json", *flags)
            assert code == 0
            assert out == export_ideal(Ring(d, n), [rec.poly for rec in records if rec.k == k], "json")

    @pytest.mark.parametrize("reduced", [[], ["--reduced-only"]])
    def test_only_the_requested_depth_is_expanded(self, capsys, monkeypatch, reduced):
        depths = []

        def recording(ring, gens):
            depths.extend(k for k, _ in gens)
            return expand(ring, gens)

        expand = cli.packed_minors
        monkeypatch.setattr(cli, "packed_minors", recording)
        code, out = run(capsys, "gens", "--d", "3", "--n", "3", "--k", "2", *reduced)
        assert code == 0 and out and depths and set(depths) == {2}

    # at n = 1, gens and export print an empty ideal and leadterms an empty list
    @pytest.mark.parametrize(
        "command, dn",
        [(cmd, dn) for cmd in ("gens", "export", "leadterms") for dn in GRID]
        + [("gens", (2, 1)), ("export", (2, 1)), ("leadterms", (2, 1))],
    )
    def test_only_the_requested_depth_is_enumerated(self, capsys, monkeypatch, command, dn):
        # --k lists the rows of depth k alone, none for a depth too flat for
        # maximal minors, and writes the depth-k part of the full output
        d, n = dn
        argv = [command, "--d", str(d), "--n", str(n)] + ["--format", "json"] * (command != "leadterms")
        code, full = run(capsys, *argv)
        doc = json.loads(full)
        assert code == 0 and full == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        items = doc if command == "leadterms" else doc["generators"]
        listed = []

        def spy(*args):
            listed.append(args[2])
            return enumerate_rows(*args)

        for module in ("cli", "minors", "walks"):
            monkeypatch.setattr(f"resultantforge.{module}.enumerate_rows", spy)
        depths = [k for k, _ in generator_rows(d, n)]
        for k in range(1, d + 1):
            listed.clear()
            code, out = run(capsys, *argv, "--k", str(k))
            part = [item for item, depth in zip(items, depths) if depth == k]
            want = part if command == "leadterms" else dict(doc, generators=part)
            assert code == 0 and out == json.dumps(want, indent=2, sort_keys=True) + "\n"
            assert listed == ([k] if n * k >= d + k else [])

    def test_every_depth_in_range_is_accepted(self, capsys):
        for k in ("1", "2"):
            code, out = run(capsys, "gens", "--d", "2", "--n", "3", "--k", k)
            assert code == 0 and out


def run_quiet(*argv):
    """main(argv) with stdout and stderr captured: (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# Integers stay small: a document's d and n size the ring, all of whose
# n * (d + 1) variables are built before any generator is read.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6) | st.sampled_from(["1", "-2/3", "1/0", "1.5", " 2", "a_1_0"]),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.sampled_from(["c", "m", "d", "n", ""]) | st.text(max_size=4), kids, max_size=4),
    max_leaves=12,
)


def maybe(good, bad=JSON_VALUES):
    """good, and one draw in ten bad in its place."""
    return st.integers(0, 9).flatmap(lambda r: bad if r == 0 else good)


RATIONALS = maybe(st.sampled_from(["1", "-1", "0", "3", "-2/3", "4/2", "0/5", "-0"]),
                  st.sampled_from(["+1", "1/0", "1/-2", "1.5", "1e3", " 2", "\u0663", "", "/"]))
NAMES = maybe(st.sampled_from(["a_1_0", "a_1_1", "a_2_0", "a_2_1", "a_2_2", "a_3_1"]),
              st.sampled_from(["a_01_0", "a_1", "a_1_0_", "b_1_0", "x", "r", ""]))
TERMS = maybe(st.fixed_dictionaries(
    {"c": maybe(RATIONALS), "m": maybe(st.dictionaries(NAMES, maybe(st.integers(0, 3)), max_size=3))},
    optional={"extra": JSON_VALUES},
))
IDEAL_DOCS = st.one_of(JSON_VALUES, st.fixed_dictionaries(
    {"d": maybe(st.integers(1, 2)), "n": maybe(st.integers(1, 3)),
     "generators": maybe(st.lists(maybe(st.lists(TERMS, max_size=4)), max_size=3))},
))
TUPLE_DOCS = st.one_of(JSON_VALUES, st.fixed_dictionaries(
    {"d": maybe(st.just(1)), "n": maybe(st.just(2)),
     "values": maybe(st.lists(maybe(st.lists(maybe(RATIONALS), min_size=2, max_size=2)), min_size=2, max_size=2))},
))


class TestReaderFuzz:
    """Arbitrary JSON values as documents: each is accepted or exits 2 with
    nothing on stdout; none exits 1 or escapes main with a traceback."""

    @staticmethod
    def read(tmp_path_factory, value, *argv):
        path = tmp_path_factory.mktemp("doc") / "doc.json"
        path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n")
        code, out, err = run_quiet(*(str(path) if a == "DOC" else a for a in argv))
        assert code in (0, 2) and "Traceback" not in err
        if code == 2:
            assert out == "" and err.startswith("error: ")
        return code, out, path

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(IDEAL_DOCS)
    def test_export_input(self, tmp_path_factory, doc):
        code, out, path = self.read(tmp_path_factory, doc, "export", "--input", "DOC", "--format", "json")
        if code == 0:
            # the export is the canonical document, which exports to itself
            path.write_text(out)
            assert run_quiet("export", "--input", str(path), "--format", "json") == (0, out, "")

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(TUPLE_DOCS)
    def test_eval_coeffs(self, tmp_path_factory, doc):
        self.read(tmp_path_factory, doc, "eval", "--d", "1", "--n", "2", "--coeffs", "DOC")
