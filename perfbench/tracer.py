"""Outside-in span tracer for the benchmark's traced runs.

The program is not instrumented.  Instead, a traced child process imports
tentcalc, replaces the public functions of each layer by a wrapper that
records a span (layer, start, end, parent), and only then runs the
command.  Modules bind these names with ``from .x import f``, so the
wrapper is installed under every name in every loaded tentcalc module that
refers to the original function, and in the ``verify.SUITES`` registry.

Spans are kept in memory and written to one JSON file when the command
ends.  Single-threaded use only: the span stack is per tracer, not per
thread (the benchmark runs every command with one suite worker).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
import time

import numpy as np

# layer -> functions (module, attribute) that open a span of that layer
LAYERS = {
    "operator.assemble": [("tentcalc.operator", "assemble")],
    "semigroup.eval": [("tentcalc.semigroup", name) for name in (
        "heat_eval", "grad_eval", "poisson_eval", "poisson_grad_eval")],
    "squarefn.build_field": [("tentcalc.squarefn", "build_field")],
    "tent.cone_all": [("tentcalc.tent", "cone_all")],
    "tent.carleson_p_all": [("tentcalc.tent", "carleson_p_all")],
    "mesh.maximal": [("tentcalc.mesh", "maximal")],
    "mesh.lp_norm": [("tentcalc.mesh", "lp_norm")],
    "weights.class_constant": [("tentcalc.weights", name) for name in (
        "weighted_class_constant", "ap_constant", "rh_constant")],
    "io": [("tentcalc.squarefn", "result_to_csv"),
           ("tentcalc.verify", "reports_to_csv"),
           ("tentcalc.verify", "reports_to_json")],
}
SUITES = ("heat_control", "poisson_control", "boundedness",
          "angles_carleson", "appendix_q")
# layers whose distinct-input share is recorded (inputs fingerprinted per call)
DISTINCT = ("squarefn.build_field",)
ROOT = "cli"


def _fingerprint(value):
    """Hashable identity of one call argument: array contents, scalar
    values, small dataclasses by repr, anything else by object id."""
    if isinstance(value, np.ndarray):
        digest = hashlib.sha1(np.ascontiguousarray(value).tobytes()).hexdigest()
        return ("array", value.shape, digest)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and all(
        isinstance(getattr(value, f.name), (bool, int, float, str, tuple, type(None)))
        for f in dataclasses.fields(value)
    ):
        return repr(value)
    return ("id", id(value))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.inputs: dict[str, set] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._originals: dict[int, tuple[str, object]] = {}

    def wrap(self, layer: str, fn):
        distinct = self.inputs.setdefault(layer, set()) if layer in DISTINCT else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if distinct is not None:
                distinct.add(tuple(map(_fingerprint, args)) + tuple(
                    (k, _fingerprint(v)) for k, v in sorted(kwargs.items())))
            record = [layer, time.monotonic(), None,
                      self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.monotonic()
                self._stack.pop()

        return traced

    def install(self):
        """Wrap every layer function under every tentcalc binding of it."""
        modules = loaded_modules()
        wrappers = {}
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                fn = getattr(modules.get(module_name), attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                wrappers[id(fn)] = self.wrap(layer, fn)
                self._originals[id(fn)] = (f"{module_name}.{attr}", fn)
        registry = getattr(modules.get("tentcalc.verify"), "SUITES", {})
        for suite in SUITES:
            fn = registry.get(suite)
            if fn is None:
                self.missing.append(f"tentcalc.verify.SUITES[{suite}]")
                continue
            wrappers[id(fn)] = self.wrap(f"verify.{suite}", fn)
            self._originals[id(fn)] = (f"tentcalc.verify.SUITES[{suite}]", fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
        for suite, fn in list(registry.items()):
            if id(fn) in wrappers:
                registry[suite] = wrappers[id(fn)]
        self.check_installed()

    def unwrapped(self) -> list[str]:
        """Bindings in loaded tentcalc modules that still hold an original
        layer function."""
        left = []
        modules = loaded_modules()
        for module_name, module in modules.items():
            for attr, value in vars(module).items():
                if id(value) in self._originals:
                    left.append(f"{module_name}.{attr}")
        registry = getattr(modules.get("tentcalc.verify"), "SUITES", {})
        left += [f"tentcalc.verify.SUITES[{suite}]" for suite, fn in registry.items()
                 if id(fn) in self._originals]
        return left

    def check_installed(self):
        left = self.unwrapped()
        if left:
            raise RuntimeError(f"layer functions left unwrapped: {left}")

    def dump(self, path: str, launch: float, imported: float):
        with open(path, "w") as fh:
            json.dump({
                "launch": launch,
                "imported": imported,
                "end": time.monotonic(),
                "missing": self.missing,
                "spans": self.spans,
                "distinct": {k: len(v) for k, v in self.inputs.items()},
            }, fh)


def loaded_modules() -> dict:
    return {name: module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "tentcalc" or name.startswith("tentcalc."))}


def per_layer(trace: dict, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced command from its span dump.

    A layer's self time is its spans' durations minus the time their
    child spans cover.  Suites report inclusive time.  `cli.other_s` is the
    wall time no layer span accounts for (command glue, interpreter start
    and exit, writing the trace) and coverage is its complement.
    """
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for suite in SUITES:
        out[f"verify.{suite}_s"] = 0.0
    covered = trace["imported"] - trace["launch"]
    for i, (layer, start, end, parent) in enumerate(spans):
        if layer == ROOT:
            continue
        own = (end - start) - child[i]
        covered += own
        if layer.startswith("verify."):
            out[f"{layer}_s"] += end - start
        else:
            out[f"{layer}.self_s"] += own
            out[f"{layer}.calls"] += 1
    for layer in DISTINCT:
        calls = out[f"{layer}.calls"]
        out[f"{layer}.distinct_ratio"] = (
            trace["distinct"].get(layer, 0) / calls if calls else 0.0)
    out["cli.other_s"] = wall - covered
    out["trace.coverage"] = covered / wall
    return out


def run_traced(argv: list[str], body, imports: tuple[str, ...]):
    """Child-side entry: `argv` is [launch, trace_path, *rest].  Imports
    `imports`, installs the tracer, runs body(rest) inside the root span
    and writes the trace even when the body exits early."""
    launch, path, rest = float(argv[0]), argv[1], argv[2:]
    for name in imports:
        __import__(name)
    imported = time.monotonic()
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.wrap(ROOT, body)(rest)
    finally:
        tracer.dump(path, launch, imported)
