"""Every output byte unchanged: the stdout SHA-256 and exit code of each
command on a fixed grid equal tests/golden/digests.json, which
tests/record_digests.py writes."""

import json
import pathlib

import pytest

from record_digests import DIGESTS_FILE, FRONTIER, STRETCH, Runner, cases
from test_groebner import perturb_first_minor

TABLE = json.loads(pathlib.Path(DIGESTS_FILE).read_text())["cases"]
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    return Runner(str(tmp_path_factory.mktemp("digest-inputs")))


def test_the_table_holds_the_grid():
    assert list(TABLE) == cases()


def test_the_table_agrees_with_the_benchmark_digests():
    jobs = json.loads(PERFBENCH.read_text())["jobs"]
    shared = [case for case in TABLE if case in jobs]
    assert shared and all(TABLE[case]["sha256"] == jobs[case] for case in shared)


@pytest.mark.parametrize("case", cases(STRETCH))
def test_stretch_digest(run, case):
    assert run(case) == TABLE[case]


@pytest.mark.slow
@pytest.mark.parametrize("case", cases(FRONTIER))
def test_frontier_digest(run, case):
    assert run(case) == TABLE[case]


def test_a_perturbed_minor_changes_every_verify_digest(monkeypatch, run):
    # (4,3) has no depth-1 generator to perturb: n * k < d + k at k = 1
    perturb_first_minor(monkeypatch)
    for case in cases([(3, 4)]):
        if case.startswith("verify"):
            got = run(case)
            assert got["exit"] == 1 and got["sha256"] != TABLE[case]["sha256"], case
