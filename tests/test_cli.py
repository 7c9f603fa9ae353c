"""Command-line surface: dispatch, formats, exit statuses, env limits."""

import json
import pathlib

import pytest

from resultantforge.cli import LIMITS_ENV, main
from resultantforge.roots import sample_planted

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestGens:
    def test_m2_matches_golden(self, capsys):
        code, out = run(capsys, "gens", "--d", "2", "--n", "3", "--format", "m2")
        assert code == 0
        assert out == (GOLDEN / "gens_d2_n3.m2").read_text()

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


class TestComponentsAndDegree:
    def test_components_json(self, capsys):
        code, out = run(capsys, "components", "--d", "2", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 6 and doc["degree"] == 6
        assert len(doc["components"]) == 6
        assert ["a_1_0", "a_2_0"] in doc["components"]

    def test_degree(self, capsys):
        code, out = run(capsys, "degree", "--degrees", "2,3,5")
        assert code == 0
        assert json.loads(out)["D"] == 10


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

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv(LIMITS_ENV, "max_pairs=1")
        code, out = run(capsys, "verify", "elimination", "--d", "1", "--n", "2", "--max-pairs", "100000")
        assert code == 0

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-pairs", "5"], "pair limit 5 exceeded after 5 of 29 pairs"),
            (["--timeout", "0"], "timeout of 0.0s exceeded after 0 of 29 pairs"),
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


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["gens", "--d", "2"]) == 2

    def test_export_needs_a_source(self, capsys):
        assert main(["export", "--format", "m2"]) == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code = main(["degree", "--degrees", "1,1", "-o", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["D"] == 2


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
        ],
        ids=["no-values", "values-not-list", "row-not-list", "array", "float-d", "string-d", "bool-d"],
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
        ],
        ids=[
            "no-generators", "generator-not-list", "term-without-c", "term-without-m",
            "float-exponent", "bool-exponent", "string-exponent", "float-d", "array",
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

    def test_every_depth_in_range_is_accepted(self, capsys):
        for k in ("1", "2"):
            code, out = run(capsys, "gens", "--d", "2", "--n", "3", "--k", k)
            assert code == 0 and out
