"""Every numeric argument of the library and the configs: a bool, text,
None, NaN, an excluded infinity or an out-of-range value raises a
ValueError that names the argument, and numpy scalars of valid values are
accepted."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from tentcalc.cli import RunConfig
from tentcalc.mesh import UNIT_WEIGHT, Grid, PowerWeight, lp_norm, maximal
from tentcalc.operator import CoefficientField, assemble
from tentcalc.semigroup import (
    TimeLadder,
    heat_eval,
    multiplier_tables,
    poisson_grad_eval,
    subordination_factors,
)
from tentcalc.squarefn import SquareFunctionKind
from tentcalc.tent import HalfSpaceField, carleson_p_all, change_of_angle_report, cone_all
from tentcalc.verify import SuiteConfig
from tentcalc.weights import ClassKind, estimate_critical_index

GRID = Grid(1, 8)
OP = assemble(GRID, CoefficientField.identity(GRID), UNIT_WEIGHT)
F = np.linspace(-1.0, 1.0, 8)
LADDER = TimeLadder(0.05, 0.5, 2.0)
FIELD = HalfSpaceField(GRID, LADDER, UNIT_WEIGHT, np.ones((LADDER.count, 8)))


def angle(**kw):
    args = {"alpha": 1.0, "beta": 2.0, "r": 2.0, "r_tilde": 2.0, **kw}
    return change_of_angle_report(FIELD, args["alpha"], args["beta"], 2.0, UNIT_WEIGHT,
                                  args["r"], args["r_tilde"])


# (id, call with the argument set to its one value, a valid value, the
# name the message gives, out-of-range values, the values of NOT_NUMBERS
# and INFINITE that are valid here (None: omitted), whether the argument
# is an integer)
ENTRY_POINTS = [
    ("Grid.dim", lambda v: Grid(v, 8), 1, "dim", [0, 3], [], True),
    ("Grid.n_side", lambda v: Grid(1, v), 8, "n_side", [3, -8], [], True),
    ("PowerWeight.alpha", PowerWeight, 0.5, "alpha", [], [], False),
    ("lp_norm.p", lambda v: lp_norm(F, v, UNIT_WEIGHT, UNIT_WEIGHT, GRID), 2.0, "p",
     [0.0, -1.0], [], False),
    ("maximal.p0", lambda v: maximal(F, GRID, v), 1.0, "p0", [0.0, -2.0], [], False),
    ("CoefficientField.entries", lambda v: CoefficientField([v]), 1.5, "entries",
     [0.0, -1.0], [], False),
    ("SpectralOperator.mode", OP.mode, 3, "k", [-1, 8, 2.0], [], True),
    ("TimeLadder.t_min", lambda v: TimeLadder(v, 1.0, 2.0), 0.1, "t_min", [0.0, -0.1],
     [], False),
    ("TimeLadder.t_max", lambda v: TimeLadder(0.1, v, 2.0), 1.0, "t_max", [0.05, -1.0],
     [], False),
    ("TimeLadder.ratio", lambda v: TimeLadder(0.1, 1.0, v), 2.0, "ratio", [1.0, 0.5],
     [], False),
    ("TimeLadder.default_for.t_max", lambda v: TimeLadder.default_for(GRID, t_max=v), 1.0,
     "t_max", [0.01], [], False),
    ("TimeLadder.default_for.ratio", lambda v: TimeLadder.default_for(GRID, ratio=v), 1.5,
     "ratio", [1.0], [], False),
    ("multiplier_tables.order", lambda v: multiplier_tables(OP, "heat", v, 0.1, F), 1,
     "power", [-1, 5, 1.0], [], True),
    ("heat_eval.m", lambda v: heat_eval(OP, v, 0.1, F), 2, "power", [-1, 5, 2.0],
     [], True),
    ("heat_eval.t", lambda v: heat_eval(OP, 0, v, F), 0.1, "t", [-0.1], [], False),
    ("poisson_grad_eval.t", lambda v: poisson_grad_eval(OP, 0, v, F), 0.1, "t",
     [-1e-9], [], False),
    ("subordination_factors.t", lambda v: subordination_factors(np.ones(2), v), 0.3, "t",
     [-1.0], [], False),
    ("SquareFunctionKind.order", lambda v: SquareFunctionKind("S_H", v), 2, "S_H order",
     [0, 5, 2.0], [None], True),
    ("cone_all.alpha", lambda v: cone_all(FIELD, v), 1.0, "alpha", [0.0, -1.0], [],
     False),
    ("carleson_p_all.p0", lambda v: carleson_p_all(FIELD, v), 2.0, "p0", [0.0], [],
     False),
    ("change_of_angle_report.alpha", lambda v: angle(alpha=v), 1.0, "alpha", [0.0, -1.0],
     [], False),
    ("change_of_angle_report.beta", lambda v: angle(beta=v), 2.0, "beta", [0.5], [],
     False),
    ("change_of_angle_report.r", lambda v: angle(r=v), 2.0, "r", [0.5], [], False),
    ("change_of_angle_report.r_tilde", lambda v: angle(r_tilde=v), 2.0, "r_tilde", [0.5],
     [], False),
    ("ClassKind.Ap", lambda v: ClassKind("Ap", v), 2.0, "index", [0.5], [], False),
    ("ClassKind.RHs", lambda v: ClassKind("RHs", v), 2.0, "index", [1.0, 0.5],
     [math.inf], False),
    ("estimate_critical_index.iters",
     lambda v: estimate_critical_index(PowerWeight(0.5), UNIT_WEIGHT, "Ap", 1, 1.0, 4.0,
                                       iters=v, sizes=(8, 16)),
     0, "iters", [-1, 1.5], [], True),
    ("estimate_critical_index.lo",
     lambda v: estimate_critical_index(PowerWeight(0.5), UNIT_WEIGHT, "Ap", 1, v, 4.0,
                                       iters=0, sizes=(8, 16)),
     1.0, "lo", [4.0, 5.0], [], False),
    ("estimate_critical_index.hi",
     lambda v: estimate_critical_index(PowerWeight(0.5), UNIT_WEIGHT, "Ap", 1, 1.0, v,
                                       iters=0, sizes=(8, 16)),
     4.0, "hi", [1.0, 0.5], [], False),
    ("SuiteConfig.dim", lambda v: SuiteConfig(dim=v), 2, "dim", [0, 3], [], True),
    ("SuiteConfig.weight_alpha", lambda v: SuiteConfig(weight_alpha=v), 1.0,
     "weight_alpha", [2.0, -2.5], [], False),
    ("SuiteConfig.ladder_ratio", lambda v: SuiteConfig(ladder_ratio=v), 1.5,
     "ladder_ratio", [1.0, 2.5], [], False),
    ("SuiteConfig.ladder_t_max", lambda v: SuiteConfig(ladder_t_max=v), 1.0,
     "ladder_t_max", [0.0, 9.0], [], False),
    ("SuiteConfig.coeff_entries", lambda v: SuiteConfig(coeff_entries=(v, 1.0)), 1.0,
     "coeff_entries", [0.0, 1e3], [], False),
    ("SuiteConfig.seed", lambda v: SuiteConfig(seed=v), 7, "seed", [-1, 7.0], [],
     True),
    ("SuiteConfig.sizes", lambda v: SuiteConfig(sizes=(v, 32)), 16, "sizes", [0, 32, 16.0],
     [], True),
    ("SuiteConfig.bank_size", lambda v: SuiteConfig(bank_size=v), 2, "bank_size",
     [0, 101], [], True),
    ("SuiteConfig.drift_limit", lambda v: SuiteConfig(drift_limit=v), 0.5, "drift_limit",
     [0.0, 1.5], [], False),
    ("SuiteConfig.appendix_r", lambda v: SuiteConfig(appendix_r=v), 2.0, "appendix_r",
     [0.5], [], False),
    ("SuiteConfig.appendix_s", lambda v: SuiteConfig(appendix_s=v), 2.0, "appendix_s",
     [0.0, -1.0], [], False),
    ("SuiteConfig.appendix_q", lambda v: SuiteConfig(appendix_q=v), 1.0, "appendix_q",
     [0.0, 3.0], [], False),
    ("SuiteConfig.appendix_alphas", lambda v: SuiteConfig(appendix_alphas=(1.0, v)), 0.5,
     "appendix_alphas", [0.0, -0.5], [], False),
    ("RunConfig.n", lambda v: RunConfig(n=v), 16, "n", [0, 3], [], True),
    ("RunConfig.ladder_t_min", lambda v: RunConfig(ladder_t_min=v), 0.01, "ladder_t_min",
     [0.0, 1.0], [None], False),
]
IDS = [row[0] for row in ENTRY_POINTS]

NOT_NUMBERS = [True, False, np.True_, np.False_, "2", b"2", None]
INFINITE = [math.nan, math.inf, -math.inf]


def bad_values(row) -> list:
    _, _, _, _, out_of_range, valid_here, _ = row
    return [v for v in NOT_NUMBERS + INFINITE if v not in valid_here] + out_of_range


@pytest.mark.parametrize("row", ENTRY_POINTS, ids=IDS)
def test_bad_values_are_named(row):
    # every bad value, each a ValueError whose message names the argument
    call, name = row[1], row[3]
    named = re.compile(rf"(?<!\w){re.escape(name)}(?!\w)")
    missed = []
    for value in bad_values(row):
        try:
            call(value)
        except ValueError as exc:
            if not named.search(str(exc)):
                missed.append((value, str(exc)))
        except Exception as exc:  # noqa: BLE001 - any other outcome is a miss
            missed.append((value, repr(exc)))
        else:
            missed.append((value, "accepted"))
    assert not missed, missed


@pytest.mark.parametrize("row", ENTRY_POINTS, ids=IDS)
def test_numpy_scalars_accepted(row):
    _, call, valid, _, _, _, integer = row
    forms = [np.int64(valid)] if integer else [np.float64(valid)]
    if not integer and float(valid).is_integer():
        forms.append(np.int64(valid))
    for value in forms:
        call(value)


@pytest.mark.parametrize("times", [
    np.array([True, False]), np.array(["0.1"]), np.array([0.1, None], dtype=object),
    np.array([0.1, -0.2, 0.3]), np.array([0.1, math.nan]), np.array([math.inf]),
    np.array([1 + 0j]),
], ids=["bool", "text", "object-none", "negative", "nan", "inf", "complex"])
def test_bad_time_array_is_named(times):
    with pytest.raises(ValueError, match=r"^t must be"):
        heat_eval(OP, 0, times, F)


def test_time_arrays_of_any_real_dtype_accepted():
    want = heat_eval(OP, 1, np.array([0.5, 1.0]), F)
    for times in (np.array([0.5, 1]), np.array([0.5, 1.0], dtype=np.float32),
                  np.array([0.5, 1.0], dtype=object)):
        np.testing.assert_allclose(heat_eval(OP, 1, times, F), want, rtol=1e-7)
