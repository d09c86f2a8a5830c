"""The benchmark's workloads: the inputs each operation gets (drawn from
the run's seed), the command it runs, and the oracle that checks what it
wrote.  Oracles run after the operation has exited, outside its timing.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REL_TOL = 1e-12
PERTURBATION = 1e-9


def sha256_of(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def within(value: float, expected: float) -> bool:
    return abs(value - expected) <= REL_TOL * abs(expected)


class Workload:
    """One op = one fresh process, so program caches start cold."""

    name: str
    why: str
    setup_import: str  # the module a user's process imports first

    def draws(self, seed: int):
        """Endless per-op inputs; the same seed gives the same sequence."""
        raise NotImplementedError

    def write_inputs(self, cwd: Path, draw):
        """Write the files the op reads into its working directory."""

    def argv(self, draw, trace: tuple[float, str] | None) -> list[str]:
        """Interpreter arguments; `trace` is (launch time, trace path)."""
        raise NotImplementedError

    def check(self, cwd: Path, draw) -> tuple[str | None, str]:
        """(error or None, sha256 of the outputs) for a finished op."""
        raise NotImplementedError


class CliWorkload(Workload):
    setup_import = "tentcalc.cli"
    config: dict

    def draws(self, seed):
        rng = random.Random(seed)
        while True:
            yield rng.randrange(2**31)

    def write_inputs(self, cwd, draw):
        (cwd / "config.json").write_text(json.dumps(self.config))

    def cli_args(self, draw) -> list[str]:
        raise NotImplementedError

    def argv(self, draw, trace):
        if trace is None:
            return ["-m", "tentcalc.cli", *self.cli_args(draw)]
        launch, path = trace
        return [str(BENCH / "traced_cli.py"), repr(launch), path,
                *self.cli_args(draw)]


def verify_failures(report: dict) -> list[str]:
    """Suites or checks of a verify report that did not pass."""
    bad = [r["suite"] for r in report["reports"] if not r["passed"]]
    bad += [f"{r['suite']}/{c['id']}" for r in report["reports"]
            for c in r["checks"] if c["verdict"] != "pass"]
    if len(report["reports"]) != 5:
        bad.append(f"{len(report['reports'])} suites reported, expected 5")
    return bad


class VerifyBank2(CliWorkload):
    name = "verify-bank2"
    why = ("all five check suites at N = 16/32: many small fields, cone sums "
           "and the semigroup dominate, assembly is negligible")
    config = {"bank_size": 2}

    def cli_args(self, draw):
        return ["verify", "--suite", "all", "--seed", str(draw),
                "--config", "config.json"]

    def check(self, cwd, draw):
        path = cwd / "verify_report.json"
        if not path.is_file():
            return "no verify_report.json", ""
        bad = verify_failures(json.loads(path.read_text()))
        return (f"failed: {bad}" if bad else None), sha256_of(path)


class HeatReference:
    """||S_{1,H} f||_{L^2(w)} on the 2-torus with w = |x|, computed apart
    from tentcalc: the two-point-flux stiffness K with arithmetic-mean
    face weights, the symmetric pencil W^{-1/2} K W^{-1/2} and the
    Fubini identity sum_k c_k^2 sum_j (t_j^2 lam_k)^2 e^{-2 t_j^2 lam_k}
    ln(rho) on the sf command's default ladder.  The spectrum depends only
    on the grid, so it is cached in the output directory."""

    def __init__(self, n: int):
        self.n = n
        path = OUT / f"heat-reference-n{n}.npz"
        if not path.is_file():
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp.npz")
            np.savez(tmp, **self._spectrum())
            os.replace(tmp, path)
        with np.load(path) as data:
            self.lam, self.psi, self.w = data["lam"], data["psi"], data["w"]

    def _spectrum(self) -> dict:
        import scipy.linalg

        n = self.n
        axis = (np.arange(n) + 0.5) / n
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        centers = np.column_stack([xx.ravel(), yy.ravel()])
        delta = np.minimum(centers, 1.0 - centers)
        w = np.sqrt(np.sum(delta**2, axis=1))
        idx = np.arange(n * n)
        i0, i1 = np.divmod(idx, n)
        k = np.zeros((n * n, n * n))
        for nb in ((i0 + 1) % n * n + i1, i0 * n + (i1 + 1) % n):
            face = 0.5 * (w + w[nb])
            k[idx, idx] += face
            k[nb, nb] += face
            k[idx, nb] -= face
            k[nb, idx] -= face
        scale = n / np.sqrt(w)  # 1/h from K's h^-2 split over both sides
        k *= scale[:, None]
        k *= scale[None, :]
        k += k.T
        k *= 0.5
        lam, psi = scipy.linalg.eigh(k, overwrite_a=True, driver="evd")
        return {"lam": lam, "psi": psi, "w": w}

    def norm(self, f) -> float:
        h = 1.0 / self.n
        coeffs = self.psi.T @ (f * np.sqrt(self.w)) * h
        t_min, ratio = h / 4, 2 ** (1 / 16)
        count = int(math.floor(math.log(1.0 / t_min) / math.log(ratio) + 1e-12)) + 1
        x = (t_min * ratio ** np.arange(count))[:, None] ** 2 * self.lam[None, :]
        q = np.sum(x**2 * np.exp(-2 * x), axis=0) * math.log(ratio)
        return float(np.sqrt(np.sum(coeffs**2 * q)))

    def field_norm(self, values) -> float:
        """The L^2(w) norm with v = 1 of a written per-cell field."""
        return float(np.sqrt(np.sum(values**2 * self.w) / self.n**2))


def sf_error(summary_norm: float, field_norm: float, expected: float) -> str | None:
    """Both the summary norm and the norm of the written field must match
    the reference to REL_TOL; a 1e-9 relative perturbation must not."""
    if within(expected * (1 + PERTURBATION), expected):
        return "oracle tolerance cannot see a 1e-9 perturbation"
    if not within(summary_norm, expected):
        return f"summary norm {summary_norm!r} vs reference {expected!r}"
    if not within(field_norm, expected):
        return f"field norm {field_norm!r} vs reference {expected!r}"
    return None


class SfN64(CliWorkload):
    name = "sf-n64"
    why = ("one S_H field on the largest allowed grid (M = 4096) with nothing "
           "to reuse: eigh and the O(M^2) cone geometry dominate")
    config = {"dim": 2, "n": 64}

    def __init__(self):
        self._reference = None

    def cli_args(self, draw):
        return ["sf", "--kind", "SH", "--m", "1", "--f", f"random:{draw}",
                "--config", "config.json"]

    def check(self, cwd, draw):
        summary_path, field_path = cwd / "sf_summary.json", cwd / "sf_field.csv"
        if not (summary_path.is_file() and field_path.is_file()):
            return "missing sf outputs", ""
        norms = [x["norm"] for x in json.loads(summary_path.read_text())["norms"]
                 if x["p"] == 2.0 and x["v"] == "one"]
        rows = [line for line in field_path.read_text().splitlines()
                if line and not line.startswith("#")][1:]
        values = np.array([float(row.rsplit(",", 1)[1]) for row in rows])
        n = self.config["n"]
        if len(norms) != 1 or values.shape != (n * n,):
            return f"malformed outputs: {len(norms)} norms, {values.size} cells", ""
        if self._reference is None:
            self._reference = HeatReference(n)
        ref = self._reference
        f = np.random.default_rng(draw).standard_normal(n * n)
        error = sf_error(norms[0], ref.field_norm(values), ref.norm(f))
        return error, sha256_of(summary_path, field_path)


CLASS_SWEEP = ("-3/2", "-1", "-4/5", "0", "1", "3/2")
CLASS_KINDS = (("Ap", 1.0), ("Ap", 2.0), ("Ap", 4.0), ("RHs", 2.0), ("RHs", 4.0))


def expected_member(alpha: str, family: str, index: float) -> bool:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from tentcalc.exponents import power_weight_in_ap, power_weight_in_rh

    exact = Fraction(index).limit_denominator()
    if family == "Ap":
        return power_weight_in_ap(Fraction(alpha), 2, exact)
    return power_weight_in_rh(Fraction(alpha), 2, exact)


def class_errors(cases, verdicts) -> list[str]:
    if len(verdicts) != len(cases):
        return [f"{len(verdicts)} verdicts for {len(cases)} cases"]
    return [f"{case}: got {got}" for case, got in zip(cases, verdicts)
            if got != expected_member(*case)]


class ClassesRefine(Workload):
    name = "classes-refine"
    why = ("weight-class constants by refinement over N = 16/32/64: the weights "
           "layer and per-Grid geometry, with no operator or semigroup")
    setup_import = "tentcalc"

    def draws(self, seed):
        """Each op diagnoses one case of every class kind (A_1 min path
        included), with the power drawn from the acceptance sweep."""
        rng = random.Random(seed)
        while True:
            yield [[rng.choice(CLASS_SWEEP), family, index]
                   for family, index in CLASS_KINDS]

    def argv(self, draw, trace):
        script = str(BENCH / "classes_session.py")
        args = [json.dumps(draw), "verdicts.json"]
        if trace is None:
            return [script, *args]
        return [script, "--trace", repr(trace[0]), trace[1], *args]

    def check(self, cwd, draw):
        path = cwd / "verdicts.json"
        if not path.is_file():
            return "no verdicts.json", ""
        bad = class_errors(draw, json.loads(path.read_text()))
        return (f"wrong verdicts: {bad}" if bad else None), sha256_of(path)


WORKLOADS = {w.name: w for w in (VerifyBank2(), SfN64(), ClassesRefine())}
