"""CLI output does not depend on the interpreter's string-hash seed."""

import os
import pathlib
import subprocess
import sys

import pytest

import resultantforge
from resultantforge.cli import main

SRC = str(pathlib.Path(resultantforge.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "argv",
    [
        ["gens", "--d", "2", "--n", "3", "--format", "json"],
        ["verify", "groebner", "--d", "2", "--n", "3"],
        ["verify", "groebner", "--d", "3", "--n", "3"],
        ["verify", "elimination", "--d", "2", "--n", "3"],
        ["eval", "--d", "3", "--n", "3", "--coeffs", "{tuple}"],
        ["gens", "--d", "1", "--n", "10", "--format", "json"],
        ["verify", "chart", "--d", "3", "--n", "3"],
        ["verify", "elimination", "--d", "3", "--n", "3"],
        ["export", "--input", "{doc}", "--format", "m2"],
        ["export", "--input", "{doc}", "--format", "text"],
    ],
)
def test_stdout_identical_across_hash_seeds(argv, tmp_path):
    tup, doc = tmp_path / "tuple.json", tmp_path / "gens.json"
    assert main(["sample", "--d", "3", "--n", "3", "--seed", "5", "-o", str(tup)]) == 0
    assert main(["gens", "--d", "3", "--n", "3", "--format", "json", "-o", str(doc)]) == 0
    argv = [arg.replace("{tuple}", str(tup)).replace("{doc}", str(doc)) for arg in argv]
    outputs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, "-m", "resultantforge", *argv],
            env=env, capture_output=True, timeout=120, check=True,
        )
        outputs.add(done.stdout)
    assert len(outputs) == 1
