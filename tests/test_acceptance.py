"""Acceptance gate: end-to-end checks with stated tolerances and runtime
budgets.  Expected values are computed independently inside each test
(closed-form rational arithmetic, scalar special functions, subprocess
byte comparison), never by calling the code path under test."""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import tentcalc
from tentcalc.exponents import (
    INF,
    corollary_ranges,
    ext,
    poisson_upper,
    power_weight_criticals,
    power_weight_in_ap,
    power_weight_in_rh,
    range_W,
    sobolev_exponent,
    surrogate_p_bounds,
)
from tentcalc.mesh import Grid, PowerWeight, UNIT_WEIGHT, lp_norm
from tentcalc.operator import CoefficientField, assemble
from tentcalc.semigroup import (
    TimeLadder,
    heat_eval,
    poisson_eval,
    subordination_factors,
)
from tentcalc.squarefn import SquareFunctionKind, evaluate
from tentcalc.tent import HalfSpaceField, cone_all, fubini_norm_sq
from tentcalc.verify import SuiteConfig, run_suites
from tentcalc.weights import ClassKind, membership_by_refinement


@pytest.fixture(scope="module")
def timed_suites():
    """Each suite once at the default config, with its wall time."""
    config = SuiteConfig()
    out = {}
    for name in ("heat_control", "poisson_control", "boundedness",
                 "angles_carleson", "appendix_q"):
        start = time.monotonic()
        report = run_suites(config, [name])[0]
        out[name] = (report, time.monotonic() - start)
    return out


def _modal_operator():
    grid = Grid(2, 16)
    coeff = CoefficientField.diagonal(grid, (1.0, 2.0))
    return assemble(grid, coeff, PowerWeight(1.0))


def _norm_w(op, values, p=2.0):
    return lp_norm(values, p, UNIT_WEIGHT, op.weight, op.grid)


def test_exponent_calculus_exact_sweep():
    start = time.monotonic()
    alphas = [Fraction(-3, 2), Fraction(-1), Fraction(-1, 2), Fraction(0),
              Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    cases = 0
    for n in (1, 2, 3, 6):
        for a in alphas:
            if not -n < a < n:
                continue
            growth = 1 + Fraction(a, n)
            r_expected = max(Fraction(1), growth)
            s_expected = max(Fraction(1), 1 / growth)
            pair = power_weight_criticals(a, n)
            assert pair.r_w == ext(r_expected)
            assert pair.s_w == ext(s_expected)

            d_hom = n * r_expected
            if d_hom > 2:
                p_plus = Fraction(2 * d_hom, d_hom - 2)
                p_minus = Fraction(2 * d_hom, d_hom + 2)
                assert surrogate_p_bounds(pair, n) == (ext(p_minus), ext(p_plus))
            else:
                assert surrogate_p_bounds(pair, n) == (ext(1), INF)

            for q, big_k in ((Fraction(2), 1), (Fraction(3, 2), 2),
                             (n * r_expected * 1, 1)):
                gap = 1 / q - Fraction(big_k) / (n * r_expected)
                expected = INF if gap <= 0 else ext(1 / gap)
                assert sobolev_exponent(ext(q), big_k, pair.r_w, n) == expected
                if q > 1:
                    gap_p = 1 / q - Fraction(2 * big_k + 1) / (n * r_expected)
                    expected_p = INF if gap_p <= 0 else ext(1 / gap_p)
                    assert poisson_upper(ext(q), big_k, pair.r_w, n) == expected_p
                else:
                    with pytest.raises(ValueError):
                        poisson_upper(ext(q), big_k, pair.r_w, n)
                cases += 1

            p0, q0 = Fraction(3, 2), Fraction(4)
            rng = range_W(ext(p0), ext(q0), pair)
            assert rng.lower == ext(p0 * r_expected)
            assert rng.upper == ext(q0 / s_expected)
            rng_inf = range_W(ext(p0), INF, pair)
            assert rng_inf.upper == INF
            cases += 2
    elapsed = time.monotonic() - start
    assert cases >= 50
    assert elapsed < 1.0


def test_corollary_intervals():
    start = time.monotonic()
    heat2 = corollary_ranges("power_weight", {"n": 2, "family": "heat"})
    assert heat2["alpha_lo"] == Fraction(-1)
    assert heat2["alpha_hi"] == Fraction(2)
    poisson2 = corollary_ranges("power_weight", {"n": 2, "family": "poisson"})
    assert poisson2["alpha_lo"] == Fraction(-1)
    assert poisson2["alpha_hi"] == Fraction(2)
    poisson6 = corollary_ranges("power_weight", {"n": 6, "family": "poisson"})
    assert poisson6["alpha_lo"] == Fraction(-3, 2)
    assert poisson6["alpha_hi"] == Fraction(4)
    l2 = corollary_ranges("heat_L2", {"n": 3, "r": 1})
    assert l2["rh_index"] == Fraction(5, 2)
    assert time.monotonic() - start < 1.0


def test_subordination_accuracy():
    start = time.monotonic()
    lams = np.linspace(0.0, 100.0, 10)
    ts = np.linspace(0.1, 10.0, 10)
    worst = max(
        abs(float(subordination_factors(lam, t)[0]) - math.exp(-t * math.sqrt(lam)))
        for lam in lams for t in ts
    )
    assert worst <= 1e-8

    grid = Grid(1, 16)
    op = assemble(grid, CoefficientField.identity(grid), PowerWeight(0.5))
    rng = np.random.default_rng(3)
    f = rng.standard_normal(grid.n_cells)
    for t in (0.05, 0.2, 1.0):
        spectral = poisson_eval(op, 0, t, f)
        subordinated = op.reconstruct(subordination_factors(op.eigenvalues, t) * op.project(f))
        assert _norm_w(op, spectral - subordinated) <= 1e-8
    assert time.monotonic() - start < 10.0


def test_pointwise_dominations():
    start = time.monotonic()
    grid = Grid(2, 16)
    op = assemble(grid, CoefficientField.identity(grid), PowerWeight(1.0))
    ladder = TimeLadder.default_for(grid)
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = rng.standard_normal(grid.n_cells)
        s1 = evaluate(SquareFunctionKind("S_H", 1), op, f, ladder)
        gcal0 = evaluate(SquareFunctionKind("Gcal_H", 0), op, f, ladder)
        assert np.all(s1 <= 0.5 * gcal0 + 1e-10)
        for m in (0, 1):
            lo = evaluate(SquareFunctionKind("G_H", m), op, f, ladder)
            hi = evaluate(SquareFunctionKind("Gcal_H", m), op, f, ladder)
            assert np.all(lo <= hi + 1e-10)
    assert time.monotonic() - start < 60.0


def test_modal_constants():
    start = time.monotonic()
    op = _modal_operator()
    ladder = TimeLadder.geometric(op.grid.h / 16, 4.0, 2 ** (1 / 16))
    for k in range(1, 6):
        phi = op.mode(k)
        base = _norm_w(op, phi) ** 2
        heat = _norm_w(op, evaluate(SquareFunctionKind("S_H", 1), op, phi, ladder)) ** 2
        poisson = _norm_w(
            op, evaluate(SquareFunctionKind("S_P", 1), op, phi, ladder)
        ) ** 2
        assert heat / base == pytest.approx(0.125, rel=1e-4)
        assert poisson / base == pytest.approx(0.375, rel=1e-4)
    assert time.monotonic() - start < 60.0


def test_fubini_identities():
    start = time.monotonic()
    grid = Grid(2, 16)
    op = assemble(grid, CoefficientField.identity(grid), PowerWeight(1.0))
    ladder = TimeLadder.default_for(grid)
    rng = np.random.default_rng(6)
    for _ in range(3):
        f = rng.standard_normal(grid.n_cells)
        conical = _norm_w(op, evaluate(SquareFunctionKind("Gcal_H", 0), op, f, ladder))
        vertical = _norm_w(
            op, evaluate(SquareFunctionKind("vertical_g_H", 0), op, f, ladder)
        )
        assert conical == pytest.approx(vertical, rel=1e-12)

    for _ in range(3):
        fld = HalfSpaceField(
            grid, ladder, op.weight,
            np.abs(rng.standard_normal((ladder.count, grid.n_cells))),
        )
        cone_sq = float(np.sum(
            cone_all(fld, 1.0) ** 2 * fld.weight_values * grid.cell_volume
        ))
        assert cone_sq == pytest.approx(fubini_norm_sq(fld), rel=1e-12)
    assert time.monotonic() - start < 10.0


def test_semigroup_contracts():
    start = time.monotonic()
    grid = Grid(1, 16)
    op = assemble(grid, CoefficientField.identity(grid), PowerWeight(0.5))
    ladder = TimeLadder.default_for(grid)
    times = ladder.nodes[:: max(1, ladder.count // 20)][:20]
    assert len(times) == 20
    rng = np.random.default_rng(7)
    f = rng.standard_normal(grid.n_cells)
    base = _norm_w(op, f)
    for t in times:
        assert _norm_w(op, heat_eval(op, 0, float(t) ** 2, f)) <= base * (1 + 1e-12)
        assert _norm_w(op, poisson_eval(op, 0, float(t), f)) <= base * (1 + 1e-12)
    for s, t in [(0.05, 0.1), (0.1, 0.7), (0.25, 0.25), (0.5, 1.0), (0.02, 0.9)]:
        two_step = poisson_eval(op, 0, s, poisson_eval(op, 0, t, f))
        one_step = poisson_eval(op, 0, s + t, f)
        assert _norm_w(op, two_step - one_step) <= 1e-8
    assert time.monotonic() - start < 10.0


def test_weight_class_verdicts():
    start = time.monotonic()
    sweep = [Fraction(-3, 2), Fraction(-1), Fraction(-4, 5), Fraction(0),
             Fraction(1), Fraction(3, 2)]
    sizes = (16, 32, 64)
    for dim in (1, 2):
        for a in sweep:
            model = PowerWeight(float(a))
            for p in (1.0, 2.0, 4.0):
                verdict = membership_by_refinement(
                    model, ClassKind("Ap", p), dim, sizes=sizes
                )
                expected = power_weight_in_ap(a, dim, Fraction(p).limit_denominator())
                assert verdict.member == expected, (dim, a, "Ap", p)
            for s in (2.0, 4.0):
                verdict = membership_by_refinement(
                    model, ClassKind("RHs", s), dim, sizes=sizes
                )
                expected = power_weight_in_rh(a, dim, Fraction(s).limit_denominator())
                assert verdict.member == expected, (dim, a, "RHs", s)
            with pytest.raises(ValueError):
                ClassKind("RHs", 1.0)
    assert time.monotonic() - start < 120.0


def test_ratio_stability_suites(timed_suites):
    elapsed = sum(timed_suites[name][1] for name in
                  ("heat_control", "poisson_control", "boundedness"))
    for name in ("heat_control", "poisson_control", "boundedness"):
        report = timed_suites[name][0]
        failed = [c.id for c in report.checks if c.verdict != "pass"]
        assert not failed, f"{name}: {failed}"
    poisson = timed_suites["poisson_control"][0]
    oracle = next(c for c in poisson.checks if c.id == "eigenmode-ratio-three")
    assert oracle.values[0] <= 1e-3
    drift_checks = [
        c for name in ("heat_control", "poisson_control", "boundedness")
        for c in timed_suites[name][0].checks if c.kind == "report_only" and c.values
    ]
    assert drift_checks
    for check in drift_checks:
        assert check.values[2] < 0.15
    assert elapsed < 600.0


def test_carleson_angle_suite(timed_suites):
    report, elapsed = timed_suites["angles_carleson"]
    by_id = {c.id: c for c in report.checks}
    assert by_id["carleson-below-maximal"].verdict == "pass"
    assert by_id["carleson-below-maximal"].tolerance == 1e-10
    assert by_id["aperture-monotonicity"].verdict == "pass"
    assert by_id["aperture-monotonicity"].tolerance == 0.0
    assert by_id["carleson-vs-cone-norms"].verdict == "pass"
    assert by_id["angle-ratio-vs-predicted"].verdict == "pass"
    assert report.passed
    assert elapsed < 60.0


def _verify_children(tmp_path, thread_counts):
    """Run `verify --suite all --seed 7` at the default config in one child
    per OpenBLAS thread count, all at once, each in its own directory;
    return (stdout, report JSON bytes, report CSV bytes) per child."""
    # An absolute PYTHONPATH entry for the package imported here, so each
    # child runs this very code although its cwd differs.
    env = dict(os.environ)
    root = str(Path(tentcalc.__file__).resolve().parents[1])
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + rest if rest else "")
    procs = []
    try:
        for i, threads in enumerate(thread_counts):
            workdir = tmp_path / f"child{i}"
            workdir.mkdir()
            procs.append((workdir, subprocess.Popen(
                [sys.executable, "-m", "tentcalc",
                 "verify", "--suite", "all", "--seed", "7"],
                cwd=workdir, env={**env, "OPENBLAS_NUM_THREADS": threads},
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )))
        outputs = []
        for workdir, proc in procs:
            stdout, stderr = proc.communicate(timeout=540)
            assert proc.returncode == 0, stderr.decode()
            outputs.append((
                stdout,
                (workdir / "verify_report.json").read_bytes(),
                (workdir / "verify_report.csv").read_bytes(),
            ))
        return outputs
    finally:
        for _, proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


def test_cli_byte_determinism(tmp_path):
    # One OpenBLAS thread each: the two children run at once, and more BLAS
    # threads than cores multiply their wall time several times over.
    outputs = _verify_children(tmp_path, ("1", "1"))
    assert outputs[0] == outputs[1]


def test_verify_agrees_across_blas_threads(tmp_path):
    # The thread count changes the rounding of the block products, so
    # values may move in their last bits; verdicts may not move at all.
    (_, one, _), (_, two, _) = _verify_children(tmp_path, ("1", "2"))
    one, two = json.loads(one)["reports"], json.loads(two)["reports"]
    assert [r["suite"] for r in one] == [r["suite"] for r in two]
    for a, b in zip(one, two):
        assert a["passed"] == b["passed"]
        assert a["environment"] == b["environment"]
        assert [c["id"] for c in a["checks"]] == [c["id"] for c in b["checks"]]
        for ca, cb in zip(a["checks"], b["checks"]):
            assert ca["verdict"] == cb["verdict"], ca["id"]
            assert len(ca["values"]) == len(cb["values"]), ca["id"]
            for x, y in zip(ca["values"], cb["values"]):
                assert math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-14), \
                    (a["suite"], ca["id"], x, y)
