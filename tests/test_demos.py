"""Every demo script runs to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

import resultantforge

SRC = str(pathlib.Path(resultantforge.__file__).resolve().parents[1])
DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
