"""Tests for the check suites: config validation, bank construction,
report serialization, determinism, and the suite verdicts themselves at
a reduced size (the full-size runs live in the acceptance tests)."""

import json
from dataclasses import replace
from fractions import Fraction

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tentcalc import squarefn, tent, verify
from tentcalc.exponents import ext
from tentcalc.mesh import Grid, PowerWeight
from tentcalc.operator import CoefficientField, assemble
from tentcalc.semigroup import TimeLadder
from tentcalc.squarefn import SquareFunctionKind, evaluate
from tentcalc.verify import (
    SUITES,
    BankFunction,
    Check,
    SuiteConfig,
    SuiteContext,
    SuiteReport,
    _g_alpha_functional,
    _weighted_power_criticals,
    draw_bank,
    materialize,
    reports_to_csv,
    reports_to_json,
    run_suites,
)

SMALL = SuiteConfig(sizes=(8, 16), bank_size=6)
HEADER = {"version": "0.1.0", "config_hash": "0123456789ab", "seed": SMALL.seed}
DIM1 = SuiteConfig(dim=1, weight_alpha=0.5, sizes=(16, 32), bank_size=3)


def count_calls(monkeypatch, *names: str) -> dict[str, int]:
    """Count the calls of each named kernel of `squarefn` or `tent` from
    now on, through every module binding the suites reach it by; the
    returned dict holds the running counts."""
    counts = dict.fromkeys(names, 0)

    def counter(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in names:
        bindings = [module for module in (squarefn, tent, verify) if hasattr(module, name)]
        wrapper = counter(name, getattr(bindings[0], name))
        for binding in bindings:
            monkeypatch.setattr(binding, name, wrapper)
    return counts


@pytest.fixture(scope="module")
def small_reports():
    return run_suites(SMALL)


class TestConfig:
    def test_defaults(self):
        cfg = SuiteConfig()
        assert cfg.seed == 7
        assert cfg.sizes == (16, 32)
        assert cfg.bank_size == 20
        assert cfg.drift_limit == 0.15

    def test_from_dict_roundtrip(self):
        cfg = SuiteConfig.from_dict({"seed": 3, "sizes": [8, 16], "bank_size": 5})
        assert cfg.seed == 3
        assert cfg.sizes == (8, 16)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            SuiteConfig.from_dict({"seed": 3, "sized": [8, 16]})

    def test_rejects_unordered_sizes(self):
        with pytest.raises(ValueError, match="coarse, fine"):
            SuiteConfig(sizes=(32, 16))

    def test_rejects_q_above_s(self):
        with pytest.raises(ValueError, match="q <= s"):
            SuiteConfig(appendix_q=3.0, appendix_s=2.0)

    def test_rejects_empty_bank(self):
        with pytest.raises(ValueError, match="bank_size"):
            SuiteConfig(bank_size=0)


class TestCheckValidation:
    def test_pass_fail_needs_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            Check(id="x", kind="pass_fail", values=(0.0,), verdict="pass")

    def test_report_only_needs_predicted_form(self):
        with pytest.raises(ValueError, match="predicted_form"):
            Check(id="x", kind="report_only", values=(0.0,), verdict="pass")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Check(id="x", kind="maybe", values=(), verdict="pass", tolerance=0.0)

    def test_rejects_unknown_verdict(self):
        with pytest.raises(ValueError, match="verdict"):
            Check(id="x", kind="pass_fail", values=(), verdict="ok", tolerance=0.0)


class TestBank:
    def test_deterministic_given_seed(self):
        assert draw_bank(SMALL) == draw_bank(SMALL)

    def test_seed_changes_bank(self):
        assert draw_bank(SMALL) != draw_bank(replace(SMALL, seed=8))

    def test_kinds_cycle(self):
        kinds = [bf.kind for bf in draw_bank(SMALL)]
        assert kinds == ["bump", "modes", "indicator"] * 2

    def test_descriptors_are_grid_free(self):
        bank = draw_bank(SMALL)
        grid8 = Grid(2, 8)
        grid16 = Grid(2, 16)
        op8 = assemble(grid8, CoefficientField.identity(grid8), PowerWeight(1.0))
        op16 = assemble(grid16, CoefficientField.identity(grid16), PowerWeight(1.0))
        for bf in bank:
            f8 = materialize(bf, op8)
            f16 = materialize(bf, op16)
            assert f8.shape == (grid8.n_cells,)
            assert f16.shape == (grid16.n_cells,)

    def test_indicator_is_binary(self):
        bf = next(b for b in draw_bank(SMALL) if b.kind == "indicator")
        grid = Grid(2, 8)
        op = assemble(grid, CoefficientField.identity(grid), PowerWeight(1.0))
        values = materialize(bf, op)
        assert set(np.unique(values)) <= {0.0, 1.0}
        assert values.sum() > 0

    def test_modes_have_zero_weighted_mean(self):
        bf = next(b for b in draw_bank(SMALL) if b.kind == "modes")
        grid = Grid(2, 8)
        op = assemble(grid, CoefficientField.identity(grid), PowerWeight(1.0))
        values = materialize(bf, op)
        mean = np.sum(values * op.weight_values) / np.sum(op.weight_values)
        assert abs(mean) < 1e-12

    def test_unknown_kind_rejected(self):
        grid = Grid(1, 8)
        op = assemble(grid, CoefficientField.identity(grid), PowerWeight(0.0))
        with pytest.raises(ValueError, match="unknown bank function"):
            materialize(BankFunction("spline", (0.5,)), op)


class TestWeightedPowerCriticals:
    def test_reciprocal_weight(self):
        pair = _weighted_power_criticals(Fraction(-1), Fraction(1), 2)
        assert pair.r_w == ext(1)
        assert pair.s_w == ext(Fraction(3, 2))

    def test_square_root_weight(self):
        pair = _weighted_power_criticals(Fraction(1, 2), Fraction(1), 2)
        assert pair.r_w == ext(Fraction(7, 6))
        assert pair.s_w == ext(1)

    def test_rejects_non_weight(self):
        with pytest.raises(ValueError, match="not a weight"):
            _weighted_power_criticals(Fraction(-4), Fraction(1), 2)


class TestGAlphaFunctional:
    def test_mass_identity_at_q_one(self):
        grid = Grid(1, 16)
        rng = np.random.default_rng(0)
        w = PowerWeight(1.0).sample(grid)
        h = np.abs(rng.standard_normal(grid.n_cells))
        mass = float(np.sum(np.abs(h) * w * grid.cell_volume))
        for alpha in (1.0, 0.5, 0.25):
            got = _g_alpha_functional(grid, w, h, alpha, 0.25, 1.0)
            assert got == pytest.approx(mass, rel=1e-12)

    def test_concavity_raises_value_for_larger_aperture(self):
        grid = Grid(1, 16)
        rng = np.random.default_rng(1)
        w = np.ones(grid.n_cells)
        h = np.abs(rng.standard_normal(grid.n_cells))
        small = _g_alpha_functional(grid, w, h, 0.25, 0.25, 2.0)
        large = _g_alpha_functional(grid, w, h, 1.0, 0.25, 2.0)
        assert large >= small


class TestSuiteRuns:
    def test_all_suites_pass_at_small_size(self, small_reports):
        assert [r.suite for r in small_reports] == [
            "heat_control",
            "poisson_control",
            "boundedness",
            "angles_carleson",
            "appendix_q",
        ]
        for report in small_reports:
            failed = [c.id for c in report.checks if c.verdict != "pass"]
            assert not failed, f"{report.suite}: {failed}"
            assert report.passed

    def test_deterministic_given_seed(self, small_reports):
        again = run_suites(SMALL)
        assert reports_to_json(small_reports, HEADER) == reports_to_json(again, HEADER)

    def test_seed_changes_some_values(self, small_reports):
        other = run_suites(replace(SMALL, seed=11), names=["heat_control"])
        assert reports_to_json(other, HEADER) != reports_to_json(small_reports[:1], HEADER)

    def test_doubled_t_max_moves_norms_below_one_percent(self, small_reports):
        doubled = run_suites(replace(SMALL, ladder_t_max=2.0))
        for r1, r2 in zip(small_reports, doubled):
            for c1, c2 in zip(r1.checks, r2.checks):
                if c1.kind != "report_only" or len(c1.values) < 2:
                    continue
                for a, b in zip(c1.values[:2], c2.values[:2]):
                    if a > 0:
                        assert abs(b / a - 1.0) < 0.01, (r1.suite, c1.id)

    def test_subset_selection_keeps_registry_order(self):
        reports = run_suites(SMALL, names=["appendix_q", "heat_control"])
        assert [r.suite for r in reports] == ["appendix_q", "heat_control"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suites"):
            run_suites(SMALL, names=["heat_control", "entropy"])


class Assembled(Exception):
    """Raised in place of assembly: the run got past every config check."""


# the suites that read exact p ranges, each with the helper it reads them from
RANGES_OF = {
    "poisson_control": verify._poisson_control_ranges,
    "boundedness": verify._boundedness_ranges,
}


def _excludes_two(config: SuiteConfig, name: str) -> bool:
    """Whether the exact ranges of the suite exclude p = 2 (or do not
    exist) at the config's weight power."""
    if name not in RANGES_OF:
        return False
    try:
        ranges, _ = RANGES_OF[name](config)
    except ValueError:
        return True
    return not all(r.contains(2) for r in ranges.values())


@given(
    dim=st.sampled_from([1, 2]),
    alpha_frac=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    names=st.lists(st.sampled_from(list(SUITES)), min_size=1, unique=True),
)
@settings(max_examples=60, deadline=None)
@example(dim=2, alpha_frac=0.625, names=["heat_control", "poisson_control"])
@example(dim=2, alpha_frac=0.625, names=["heat_control"])
@example(dim=2, alpha_frac=-0.75, names=["boundedness"])
@example(dim=2, alpha_frac=-0.6, names=["boundedness"])
def test_inadmissible_weight_alpha_rejected_before_assembly(dim, alpha_frac, names):
    # a run either stops at the weight_alpha check, before anything is
    # assembled, or gets to assembly; it stops exactly when a selected
    # suite's exact ranges exclude p = 2
    config = SuiteConfig(dim=dim, weight_alpha=alpha_frac * dim, sizes=(8, 16), bank_size=2)
    with mock.patch.object(verify, "assemble", side_effect=Assembled):
        try:
            run_suites(config, names)
        except Assembled:
            rejected = False
        except ValueError as exc:
            assert str(exc).startswith("weight_alpha: "), exc
            assert any(name in str(exc) for name in names), exc
            rejected = True
        else:
            pytest.fail("a run finished without assembly")
    assert rejected == any(_excludes_two(config, name) for name in names)


class TestRunMemo:
    """One SuiteContext per grid size is shared by every suite of a run."""

    @pytest.mark.parametrize("config", [SMALL, DIM1], ids=["small", "dim1"])
    def test_suite_alone_equals_suite_in_any_run(self, config, monkeypatch):
        names = list(SUITES)
        full = run_suites(config)
        backwards = run_suites(config, names[::-1])[::-1]
        alone = [run_suites(config, [name])[0] for name in names]

        # the reference evaluates every request afresh, with no memo
        def unmemoized(ctx, kind, source):
            sqf = SquareFunctionKind(kind[:-1], int(kind[-1]))
            return evaluate(sqf, ctx.op, ctx.source(source), ctx.ladder)

        monkeypatch.setattr(SuiteContext, "values", unmemoized)
        reference = run_suites(config)
        for name, *reports in zip(names, alone, full, backwards, reference):
            assert all(r == reports[0] for r in reports), name

    def test_build_field_calls_reused(self, monkeypatch):
        # `evaluate` builds a squared integrand and sums its cone with no
        # field, so integrands and cone sums are counted at the kernels
        # that every field and every cone goes through
        counts = count_calls(monkeypatch, "_integrand", "cone_from_squares")
        run_suites(SMALL)
        # integrands and cones only where a pointwise value or a weighted
        # norm is read.  Coarse grid: the pointwise checks' 5 heat and 2
        # Poisson kinds of 6 bank functions and 2 kinds each of the
        # constant, the S_{1,P} integrands of the weighted norms; fine
        # grid: the S_{1,H} and S_{1,P} integrands of the weighted norms.
        # That is 64 integrands; the run keeps none, so the angles suite
        # builds its 4 coarse and 4 fine sampled S_{1,H} fields again, and
        # their aperture-1 cones come from the memo.  The angles suite adds
        # 22 cones of its own (3 random areas, apertures 1/2 and 2 of 7
        # coarse fields, 4 fine aperture-2 cones, the zero field)
        assert counts == {"_integrand": 64 + 8, "cone_from_squares": 64 + 22}

    def test_angles_suite_computes_each_functional_once(self, monkeypatch):
        counts = count_calls(monkeypatch, "build_field", "cone_all", "carleson_p_all")
        run_suites(SMALL, ["angles_carleson"])
        # 4 sampled bank fields per grid; cones: 3 random areas, apertures
        # 1/2 and 2 of 7 coarse fields, 4 fine areas and aperture-2 cones,
        # the zero field; Carleson: p0 = 1 and 2 of 7 coarse fields, 4 fine
        # fields, the zero field
        assert counts == {"build_field": 8, "cone_all": 30, "carleson_p_all": 19}

    def test_coarse_only_suite_assembles_coarse_grid_only(self, monkeypatch):
        sides = []
        original = verify.assemble

        def recorded(grid, coeff, w):
            sides.append(grid.n_side)
            return original(grid, coeff, w)

        monkeypatch.setattr(verify, "assemble", recorded)
        run_suites(SMALL, ["appendix_q"])
        assert sides == [SMALL.sizes[0]]

    def test_values_are_memoized_read_only(self):
        ctx = SuiteContext(SMALL, SMALL.sizes[0])
        first = ctx.values("S_H1", 0)
        assert ctx.values("S_H1", 0) is first
        assert not first.flags.writeable
        assert ctx.values("S_H1", 1) is not first

    def test_wide_reads_are_unweighted_norms(self):
        ctx = SuiteContext(SMALL, SMALL.sizes[0])
        assert ctx.norm("S_H1", "phi", wide=True) != ctx.norm("S_H1", "phi")
        with pytest.raises(ValueError, match="wide-ladder norm is unweighted"):
            ctx.norm("S_H1", "phi", v=PowerWeight(0.5), wide=True)


class TestSerialization:
    def test_json_shape(self, small_reports):
        text = reports_to_json(small_reports, HEADER)
        assert text.endswith("}\n")
        data = json.loads(text)
        assert set(data) == {"header", "reports"} and data["header"] == HEADER
        assert len(data["reports"]) == 5
        for entry in data["reports"]:
            assert set(entry) == {"suite", "passed", "environment", "checks"}
            for check in entry["checks"]:
                assert set(check) == {
                    "id", "kind", "values", "tolerance", "predicted_form", "verdict",
                }

    def test_json_has_no_timestamps(self, small_reports):
        text = reports_to_json(small_reports, HEADER).lower()
        for needle in ("time", "date", "host", "elapsed"):
            assert needle not in text

    def test_environment_records_setup(self, small_reports):
        env = small_reports[0].environment
        assert env["seed"] == SMALL.seed
        assert env["sizes"] == [8, 16]
        assert env["weight"] == "PowerWeight(1.0)"
        assert env["coefficients"] == "identity"

    def test_environment_names_ladder_start(self, small_reports):
        # the report's "h/k" is the rule TimeLadder.default_for applies
        t_min = small_reports[0].environment["ladder"]["t_min"]
        assert t_min.startswith("h/")
        k = int(t_min[2:])
        for dim, n in ((1, 8), (2, 16), (2, 32)):
            grid = Grid(dim, n)
            assert TimeLadder.default_for(grid).t_min == grid.h / k

    def test_csv_one_row_per_value(self, small_reports):
        lines = reports_to_csv(small_reports).splitlines()
        assert lines[0] == "suite,check,value,verdict"
        n_values = sum(
            max(len(c.values), 1) for r in small_reports for c in r.checks
        )
        assert len(lines) == 1 + n_values

    def test_csv_empty_values_keeps_row(self):
        report = SuiteReport(
            suite="demo",
            checks=(
                Check(id="empty", kind="report_only", values=(), verdict="pass",
                      predicted_form="none"),
            ),
            environment={},
        )
        lines = reports_to_csv([report]).splitlines()
        assert lines[1] == "demo,empty,,pass"

    def test_passed_property(self):
        good = Check(id="a", kind="pass_fail", values=(0.0,), verdict="pass",
                     tolerance=1.0)
        bad = Check(id="b", kind="pass_fail", values=(2.0,), verdict="fail",
                    tolerance=1.0)
        assert SuiteReport("s", (good,), {}).passed
        assert not SuiteReport("s", (good, bad), {}).passed
