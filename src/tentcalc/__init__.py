"""tentcalc: semigroups, square functions and tent-space functionals for
degenerate elliptic operators on periodic grids, plus exact exponent
arithmetic for power weights."""

from __future__ import annotations

__version__ = "0.1.0"

from .exponents import (
    INF,
    CriticalPair,
    ExponentRange,
    ExtReal,
    conjugate,
    corollary_ranges,
    ext,
    poisson_upper,
    power_weight_class_interval,
    power_weight_criticals,
    power_weight_in_ap,
    power_weight_in_rh,
    range_W,
    sobolev_exponent,
    surrogate_p_bounds,
)
from .mesh import (
    Grid,
    PowerWeight,
    UNIT_WEIGHT,
    WeightModel,
    lp_norm,
    maximal,
)
from .operator import CoefficientField, SpectralOperator, assemble
from .semigroup import (
    TimeLadder,
    grad_eval,
    heat_eval,
    poisson_eval,
    poisson_grad_eval,
    subordination_factors,
)
from .squarefn import SquareFunctionKind, build_field, evaluate, result_to_csv
from .tent import (
    HalfSpaceField,
    carleson_p_all,
    change_of_angle_report,
    cone_all,
    fubini_norm_sq,
)
from .verify import SuiteConfig, SuiteReport, run_suites
from .weights import (
    ClassKind,
    ap_constant,
    estimate_critical_index,
    membership_by_refinement,
    rh_constant,
    weighted_class_constant,
)

__all__ = [
    "__version__",
    "INF",
    "CriticalPair",
    "ExponentRange",
    "ExtReal",
    "conjugate",
    "corollary_ranges",
    "ext",
    "poisson_upper",
    "power_weight_class_interval",
    "power_weight_criticals",
    "power_weight_in_ap",
    "power_weight_in_rh",
    "range_W",
    "sobolev_exponent",
    "surrogate_p_bounds",
    "Grid",
    "PowerWeight",
    "UNIT_WEIGHT",
    "WeightModel",
    "lp_norm",
    "maximal",
    "CoefficientField",
    "SpectralOperator",
    "assemble",
    "TimeLadder",
    "grad_eval",
    "heat_eval",
    "poisson_eval",
    "poisson_grad_eval",
    "subordination_factors",
    "SquareFunctionKind",
    "build_field",
    "evaluate",
    "result_to_csv",
    "HalfSpaceField",
    "carleson_p_all",
    "change_of_angle_report",
    "cone_all",
    "fubini_norm_sq",
    "SuiteConfig",
    "SuiteReport",
    "run_suites",
    "ClassKind",
    "ap_constant",
    "rh_constant",
    "estimate_critical_index",
    "membership_by_refinement",
    "weighted_class_constant",
]
