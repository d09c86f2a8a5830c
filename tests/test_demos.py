"""Smoke test: every script in demos/ runs to completion against this
checkout, with RuntimeWarnings as errors, exits 0 and prints no
traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tentcalc

SRC = Path(tentcalc.__file__).resolve().parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 6, [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    # the warning policy that pyproject.toml sets for the tests in-process
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                            env=env, cwd=tmp_path, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert result.stdout.strip()
