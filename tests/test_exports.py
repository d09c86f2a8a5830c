"""Every exported name of the package and its modules resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import tentcalc

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
