"""Every exported name of the package and its modules resolves."""

from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tentcalc

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["tentcalc"] + [
    f"tentcalc.{info.name}" for info in pkgutil.iter_modules(tentcalc.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_benchmark_tracer_finds_every_layer_function():
    # the benchmark tracer wraps layer functions by module and name, so a
    # rename breaks it; its self-test reports any binding it cannot find
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--selftest"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest passed" in done.stdout, done.stdout
