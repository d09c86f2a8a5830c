"""Numerical check suites for the square-function machinery.

Five suites, each a pure function of a SuiteConfig, returning a
SuiteReport of pass/fail and report-only checks.  `run_suites` hands
every suite the same two SuiteContexts, one per grid size, which build
the operator, ladders and bank once and evaluate each square function
once per run; a report does not depend on which suites ran with it.

    heat_control     pointwise dominations between the heat kinds and
                     refinement-stable norm ratios
    poisson_control  Poisson-vs-heat dominations and ratios, plus the
                     modal 3/8-over-1/8 oracle
    boundedness      operator-norm ratios in L^2(v dw), p = 2 inside the
                     exact admissible ranges, v in {1, 1/w, sqrt(w)}
    angles_carleson  aperture monotonicity, the p = 2 Fubini identity,
                     Carleson-vs-maximal domination and norm equivalence
    appendix_q       the small-aperture averaging inequality and its
                     predicted power of alpha

Claims with unspecified constants are never judged against an absolute
number: they pass on finiteness plus stability (< 15% drift between the
two configured grid sizes), with constants calibrated at the coarse size
and revalidated at the fine one.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .exponents import (
    INF,
    CriticalPair,
    ExponentRange,
    ext,
    ext_to_json,
    poisson_upper,
    power_weight_criticals,
    range_W,
    surrogate_p_bounds,
)
from .mesh import (
    TIE_SLACK,
    Grid,
    PowerWeight,
    UNIT_WEIGHT,
    WeightModel,
    lp_norm,
    maximal,
    number,
)
from .operator import CoefficientField, SpectralOperator, assemble, check_dense_budget
from .semigroup import LADDER_START_DIVISOR, TimeLadder
from .squarefn import SquareFunctionKind, build_field, evaluate, l2_norm_sq
from .tent import (
    HalfSpaceField,
    carleson_p_all,
    change_of_angle_report,
    cone_all,
    fubini_norm_sq,
)
from .weights import ClassKind, weighted_class_constant

__all__ = [
    "Check",
    "SuiteReport",
    "ProblemConfig",
    "SuiteConfig",
    "BankFunction",
    "draw_bank",
    "materialize",
    "SuiteContext",
    "suite_heat_control",
    "suite_poisson_control",
    "suite_boundedness",
    "suite_angles_carleson",
    "suite_appendix_q",
    "SUITES",
    "run_suites",
    "reports_to_json",
    "reports_to_csv",
]

POINTWISE_TOL = 1e-10
FUBINI_TOL = 1e-12
MODAL_RATIO_TOL = 1e-3
MODAL_L2_TOL = 1e-4

# each diagonal entry of A lies in [COEFF_MAX / COEFF_CONTRAST, COEFF_MAX].
# Assembly's eigenvalue floors scale with the largest eigenvalue, so the
# range itself is not needed for assembly; the contrast keeps the weakest
# axis's eigenvalues at least 1.7e-9 of the largest, far above the zero
# band, so none of them is taken for kernel.
COEFF_MAX = 1e2
COEFF_CONTRAST = 1e6
# most bank functions a suite run takes: each adds about 0.05 s at the
# default sizes (16, 32) and 0.25 s at sizes (32, 64) in dim 2, and under
# 0.05 MB of peak memory at either, since a run keeps no field (CLI runs
# at banks 2 and 12, and 3 and 9, on 2 cores), so a run at the cap stays
# within about half a minute
BANK_CAP = 100


@dataclass(frozen=True)
class Check:
    """One named verdict inside a suite.

    pass_fail checks require an explicit tolerance; report_only checks
    carry the predicted functional form their values are compared with.
    """

    id: str
    kind: str
    values: tuple[float, ...]
    verdict: str
    tolerance: float | None = None
    predicted_form: str | None = None

    def __post_init__(self):
        if self.kind not in ("pass_fail", "report_only"):
            raise ValueError(f"unknown check kind {self.kind!r}")
        if self.kind == "pass_fail" and self.tolerance is None:
            raise ValueError(f"check {self.id!r}: pass_fail needs a tolerance")
        if self.kind == "report_only" and self.predicted_form is None:
            raise ValueError(f"check {self.id!r}: report_only needs predicted_form")
        if self.verdict not in ("pass", "fail"):
            raise ValueError(f"unknown verdict {self.verdict!r}")


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[Check, ...]
    environment: dict

    @property
    def passed(self) -> bool:
        return all(c.verdict == "pass" for c in self.checks)

    def to_json_dict(self) -> dict:
        """The report as JSON data, with non-finite numbers as strings."""
        return _json_safe({
            "suite": self.suite,
            "passed": self.passed,
            "environment": self.environment,
            "checks": [
                {
                    "id": c.id,
                    "kind": c.kind,
                    "values": list(c.values),
                    "tolerance": c.tolerance,
                    "predicted_form": c.predicted_form,
                    "verdict": c.verdict,
                }
                for c in self.checks
            ],
        })


def _json_safe(data):
    """data with every non-finite float, in any nested dict, list or tuple,
    replaced by the string "inf", "-inf" or "nan", as `ext_to_json` writes
    infinity; finite numbers are kept as they are."""
    if isinstance(data, float) and not math.isfinite(data):
        return repr(float(data))
    if isinstance(data, dict):
        return {key: _json_safe(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [_json_safe(value) for value in data]
    return data


def reports_to_json(reports: list[SuiteReport], header: dict) -> str:
    """The {"header", "reports"} object, indented, with a final newline."""
    return json.dumps({"header": header, "reports": [r.to_json_dict() for r in reports]},
                      indent=2, allow_nan=False) + "\n"


def reports_to_csv(reports: list[SuiteReport]) -> str:
    """Flat (suite, check, value, verdict) rows, one row per value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["suite", "check", "value", "verdict"])
    for report in reports:
        for c in report.checks:
            if c.values:
                for value in c.values:
                    writer.writerow([report.suite, c.id, repr(float(value)), c.verdict])
            else:
                writer.writerow([report.suite, c.id, "", c.verdict])
    return buf.getvalue()


def _named(fields: str, build, *args):
    """build(*args), with a ValueError prefixed by the config fields that
    set its arguments."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{fields}: {exc}") from None


@dataclass(frozen=True)
class ProblemConfig:
    """The problem that both `sf` and `verify` run on: grid dimension,
    power weight |x|^weight_alpha, constant diagonal of A (identity when
    None), geometric time ladder and seed.

    The weight is in A_2 exactly when -dim < weight_alpha < dim, and
    each coeff_entries value lies in [COEFF_MAX / COEFF_CONTRAST,
    COEFF_MAX].  These fields are checked here, each by `mesh.number`.
    Each extension checks its grid sizes (which also fixes dim in {1, 2})
    before calling `__post_init__` here and its own fields after, so a bad
    config is rejected before anything is allocated.
    """

    dim: int = 2
    weight_alpha: float = 1.0
    coeff_entries: tuple[float, ...] | None = None
    ladder_ratio: float = 2 ** (1 / 16)
    ladder_t_max: float = 1.0
    seed: int = 7

    def __post_init__(self):
        number("dim", self.dim, 1, integer=True)
        # the range of weight_alpha depends on dim; NaN lies outside it
        if not -self.dim < number("weight_alpha", self.weight_alpha) < self.dim:
            raise ValueError(
                f"weight_alpha outside (-n, n): weight power {self.weight_alpha} "
                f"not inside (-{self.dim}, {self.dim})"
            )
        number("ladder_ratio", self.ladder_ratio, 1, 2, open_lo=True)
        number("ladder_t_max", self.ladder_t_max, 0, 8, open_lo=True)
        entries = self.coeff_entries
        if entries is not None:
            if not isinstance(entries, tuple) or len(entries) != self.dim:
                raise ValueError(
                    f"coeff_entries must be a list of {self.dim} values, got {entries!r}"
                )
            for e in entries:
                number("coeff_entries", e, COEFF_MAX / COEFF_CONTRAST, COEFF_MAX)
        number("seed", self.seed, 0, integer=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemConfig":
        """The config from JSON data: unknown keys are rejected and
        lists become tuples."""
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{
            key: tuple(value) if isinstance(value, list) else value
            for key, value in data.items()
        })

    def build_operator(self, n: int) -> SpectralOperator:
        """L_w on the grid with n cells per side."""
        grid = Grid(self.dim, n)
        if self.coeff_entries is None:
            coeff = CoefficientField.identity(grid)
        else:
            coeff = CoefficientField(self.coeff_entries)
        return assemble(grid, coeff, PowerWeight(self.weight_alpha))

    def build_ladder(self, grid: Grid) -> TimeLadder:
        return TimeLadder.default_for(grid, self.ladder_ratio, self.ladder_t_max)


@dataclass(frozen=True)
class SuiteConfig(ProblemConfig):
    """The problem plus the suite parameters; every suite is pure given one.

    The two sizes are the calibration grid and the revalidation grid,
    each within the dense-operator budget of `check_dense_budget`, and
    bank_size is at most BANK_CAP.
    drift_limit, the relative coarse-to-fine drift a stability check
    allows, lies in (0, 1].
    appendix_{r,s,q} are the finite class indices of the averaging
    inequality: r >= 1 (an A_r index) and 0 < q <= s (the averages
    are raised to 1/q and 1/s); its alpha-power is fitted over at least
    two distinct positive apertures.  Grid sizes and ladder lengths are
    checked here, before anything is allocated.
    """

    sizes: tuple[int, int] = (16, 32)
    bank_size: int = 20
    drift_limit: float = 0.15
    appendix_r: float = 2.0
    appendix_s: float = 2.0
    appendix_q: float = 1.0
    appendix_alphas: tuple[float, ...] = (1.0, 0.5, 0.25)

    def __post_init__(self):
        if not isinstance(self.sizes, tuple) or len(self.sizes) != 2:
            raise ValueError(f"sizes must be (coarse, fine), got {self.sizes!r}")
        for n in self.sizes:
            number("sizes", n, 1, integer=True)
        if self.sizes[0] >= self.sizes[1]:
            raise ValueError(f"sizes must be (coarse, fine), got {self.sizes}")
        for n in self.sizes:
            _named("dim, sizes", check_dense_budget, self.dim, n)
        super().__post_init__()
        number("bank_size", self.bank_size, 1, BANK_CAP, integer=True)
        number("drift_limit", self.drift_limit, 0, 1, open_lo=True)
        number("appendix_r", self.appendix_r, 1, open_hi=True)
        number("appendix_s", self.appendix_s, 0, open_lo=True, open_hi=True)
        number("appendix_q", self.appendix_q, 0, open_lo=True, open_hi=True)
        if self.appendix_q > self.appendix_s:
            raise ValueError(
                f"appendix_q: averaging inequality needs q <= s, got "
                f"q={self.appendix_q}, s={self.appendix_s}"
            )
        alphas = self.appendix_alphas
        if not isinstance(alphas, tuple):
            raise ValueError(f"appendix_alphas must be a list, got {alphas!r}")
        for a in alphas:
            number("appendix_alphas", a, 0, open_lo=True, open_hi=True)
        if len(set(alphas)) < 2:
            raise ValueError(
                f"appendix_alphas needs at least two distinct values, got {alphas}"
            )
        # the finest grid carries the longest ladders
        fine = Grid(self.dim, self.sizes[1])
        _named("ladder_ratio, ladder_t_max", self.build_ladder, fine)
        _named("ladder_ratio", _modal_ladder, self, fine)


def _modal_ladder(config: SuiteConfig, grid: Grid) -> TimeLadder:
    # wide span so both modal tail and head truncation sit far below
    # the 1e-4 and 1e-3 modal gates
    return TimeLadder(grid.h / 16, 4.0, config.ladder_ratio)


@dataclass(frozen=True)
class BankFunction:
    """Grid-independent description of one test function."""

    kind: str
    params: tuple[float, ...]


def draw_bank(config: SuiteConfig) -> tuple[BankFunction, ...]:
    """Seeded bank cycling Gaussian bumps, zero-mean eigenmode mixes and
    ball indicators; descriptors only, materialized per grid."""
    rng = np.random.default_rng(config.seed)
    bank = []
    for i in range(config.bank_size):
        kind = ("bump", "modes", "indicator")[i % 3]
        if kind == "bump":
            center = rng.uniform(0.0, 1.0, size=config.dim)
            sigma = rng.uniform(0.08, 0.2)
            bank.append(BankFunction("bump", (*center, sigma)))
        elif kind == "modes":
            bank.append(BankFunction("modes", tuple(rng.standard_normal(6))))
        else:
            center = rng.uniform(0.0, 1.0, size=config.dim)
            radius = rng.uniform(0.1, 0.3)
            bank.append(BankFunction("indicator", (*center, radius)))
    return tuple(bank)


def materialize(bf: BankFunction, op: SpectralOperator) -> NDArray:
    grid = op.grid
    if bf.kind == "bump":
        *center, sigma = bf.params
        d = grid.distances_to(center)
        return np.exp(-(d**2) / (2 * sigma**2))
    if bf.kind == "modes":
        coeffs = np.zeros(grid.n_cells)
        coeffs[1 : 1 + len(bf.params)] = bf.params
        return op.reconstruct(coeffs)
    if bf.kind == "indicator":
        *center, radius = bf.params
        d = grid.distances_to(center)
        return (d <= radius * (1.0 + TIE_SLACK)).astype(float)
    raise ValueError(f"unknown bank function kind {bf.kind!r}")


# the angles suite samples the S_{1,H} fields of this many bank functions
ANGLE_SAMPLE = 4


def _sqf(kind: str) -> SquareFunctionKind:
    return SquareFunctionKind(kind[:-1], int(kind[-1]))


class SuiteContext:
    """One grid size of one suite run: the operator, its two ladders, the
    materialized bank and memos of square-function values and norms.

    Every member is built on first use, so a run that reads only the
    coarse grid never assembles the fine one.  A source is a bank index,
    "phi" (the first non-constant eigenmode) or "constant"; a kind is a
    family with its order, as "S_H1" for S_{1,H}.  Memoized values are
    read-only, since all suites of the run share them.  The memo holds
    only per-cell values and norms: no half-space field outlives the code
    that reads it.  `field` builds a fresh field on every call and, when
    its aperture-1 cone is not yet memoized, stores that cone from the
    field it built, so a suite that reads both builds the field once.
    Every norm is in L^2(v dw), with dw the operator's weight.  A cone is
    built only where a pointwise value or a weighted norm is read: `norm`
    takes every unweighted norm from `l2_norm_sq`.
    """

    def __init__(self, config: SuiteConfig, n: int):
        self.config = config
        self.n = n
        self._memo: dict[tuple[str, int | str], NDArray] = {}
        self._l2: dict[tuple[str, int | str, bool], float] = {}

    @cached_property
    def op(self) -> SpectralOperator:
        return self.config.build_operator(self.n)

    @cached_property
    def ladder(self) -> TimeLadder:
        return self.config.build_ladder(self.op.grid)

    @cached_property
    def wide_ladder(self) -> TimeLadder:
        return _modal_ladder(self.config, self.op.grid)

    @cached_property
    def bank(self) -> tuple[NDArray, ...]:
        return tuple(materialize(bf, self.op) for bf in draw_bank(self.config))

    @cached_property
    def phi(self) -> NDArray:
        return self.op.mode(1)

    @cached_property
    def constant(self) -> NDArray:
        return np.ones(self.op.grid.n_cells)

    def source(self, source: int | str) -> NDArray:
        if source == "phi":
            return self.phi
        if source == "constant":
            return self.constant
        return self.bank[source]

    def values(self, kind: str, source: int | str) -> NDArray:
        """The square function `kind` of the source at every cell, on the
        default ladder; evaluated once per run."""
        key = (kind, source)
        if key not in self._memo:
            values = evaluate(_sqf(kind), self.op, self.source(source), self.ladder)
            values.flags.writeable = False
            self._memo[key] = values
        return self._memo[key]

    def field(self, kind: str, source: int | str) -> HalfSpaceField:
        """The half-space field of a cone kind on the default ladder,
        built afresh on every call; its values are read-only.  Its
        aperture-1 cone goes into the `values` memo if not there yet."""
        key = (kind, source)
        fld = build_field(_sqf(kind), self.op, self.source(source), self.ladder)
        fld.values.flags.writeable = False
        if key not in self._memo:
            values = cone_all(fld, 1.0)
            values.flags.writeable = False
            self._memo[key] = values
        return fld

    def norm(self, kind: str | None, source: int | str, v: WeightModel = UNIT_WEIGHT,
             wide: bool = False) -> float:
        """||kind(source)||_{L^2(v dw)}, or the norm of the source itself
        when kind is None; `wide` reads a kind on the wide modal ladder,
        which only an unweighted norm may.

        At v = 1 a kind's norm always comes from `l2_norm_sq`, whatever
        values are memoized, so a suite reads the same figure in any run;
        it is evaluated once per run."""
        if kind is not None and v == UNIT_WEIGHT:
            key = (kind, source, wide)
            if key not in self._l2:
                ladder = self.wide_ladder if wide else self.ladder
                self._l2[key] = math.sqrt(
                    l2_norm_sq(_sqf(kind), self.op, self.source(source), ladder))
            return self._l2[key]
        if kind is not None and wide:
            raise ValueError(f"a wide-ladder norm is unweighted, got v = {v}")
        f = self.source(source) if kind is None else self.values(kind, source)
        return lp_norm(f, 2.0, v, self.op.weight, self.op.grid)

    def norms(self, kind: str | None, v: WeightModel = UNIT_WEIGHT) -> list[float]:
        """norm(kind, i, v) for every bank index i."""
        return [self.norm(kind, i, v) for i in range(self.config.bank_size)]


# the run's contexts, coarse grid first
Contexts = tuple[SuiteContext, SuiteContext]


def _sup_ratio(numers: list[float], denoms: list[float]) -> float:
    ratios = [a / b for a, b in zip(numers, denoms) if b > 0]
    return max(ratios) if ratios else math.nan


def _drift_check(cid: str, coarse: float, fine: float, config: SuiteConfig,
                 form: str = "bounded, refinement-stable") -> Check:
    """Passes when |fine / coarse - 1| is below the drift limit; the drift
    is infinite unless both values are finite and coarse is positive."""
    finite = math.isfinite(coarse) and math.isfinite(fine) and coarse > 0
    d = abs(fine / coarse - 1.0) if finite else math.inf
    return Check(
        id=cid, kind="report_only", values=(coarse, fine, d),
        verdict="pass" if d < config.drift_limit else "fail",
        tolerance=config.drift_limit, predicted_form=form,
    )


def _pass_fail(cid: str, measured: float, tolerance: float) -> Check:
    return Check(
        id=cid,
        kind="pass_fail",
        values=(measured,),
        verdict="pass" if measured <= tolerance else "fail",
        tolerance=tolerance,
    )


def _environment(config: SuiteConfig, extra: dict | None = None) -> dict:
    env = {
        "dim": config.dim,
        "sizes": list(config.sizes),
        "weight": f"PowerWeight({config.weight_alpha})",
        "coefficients": (
            "identity" if config.coeff_entries is None
            else f"diagonal{tuple(config.coeff_entries)}"
        ),
        "ladder": {
            "ratio": config.ladder_ratio,
            "t_max": config.ladder_t_max,
            "t_min": f"h/{LADDER_START_DIVISOR}",
        },
        "seed": config.seed,
        "bank_size": config.bank_size,
    }
    if extra:
        env.update(extra)
    return env


def _weighted_power_criticals(gamma: Fraction, alpha: Fraction, n: int) -> CriticalPair:
    """Critical pair of the power weight distance^gamma relative to the
    measure of distance^alpha: the homogeneous dimension is n + alpha."""
    dimension = Fraction(n) + alpha
    growth = 1 + gamma / dimension
    if growth <= 0:
        raise ValueError(f"gamma={gamma} is not a weight for alpha={alpha}, n={n}")
    r_v = max(Fraction(1), growth)
    s_v = max(Fraction(1), 1 / growth)
    return CriticalPair(ext(r_v), ext(s_v))


def _exact_alpha(config: SuiteConfig) -> Fraction:
    return Fraction(config.weight_alpha).limit_denominator(64)


def _refinement_checks(
    config: SuiteConfig, contexts: Contexts, measure: Callable[[SuiteContext], dict]
) -> list[Check]:
    """One drift check per entry of measure(context), coarse against fine."""
    coarse, fine = (measure(ctx) for ctx in contexts)
    return [_drift_check(cid, coarse[cid], fine[cid], config) for cid in coarse]


def _worst_excess(
    ctx: SuiteContext, pairs: list[tuple[str, str]], scale: float = 1.0
) -> float:
    """Largest value of lo - scale * hi over the bank, for each (lo, hi)
    kind pair."""
    return max(
        float(np.max(ctx.values(lo, i) - scale * ctx.values(hi, i)))
        for lo, hi in pairs for i in range(ctx.config.bank_size)
    )


def _constant_checks(ctx: SuiteContext, kinds: tuple[str, str]) -> list[Check]:
    """The kinds vanish on the constant function; their ratio is 0/0."""
    worst = max(float(np.max(ctx.values(k, "constant"))) for k in kinds)
    return [
        _pass_fail("constant-annihilated", worst, POINTWISE_TOL),
        Check(id="constant-ratio-undefined", kind="report_only", values=(),
              verdict="pass", predicted_form="0/0, reported undefined"),
    ]


def suite_heat_control(config: SuiteConfig, contexts: Contexts) -> SuiteReport:
    """Pointwise dominations between heat kinds plus ratio stability."""
    coarse = contexts[0]
    worst = _worst_excess(coarse, [("S_H1", "Gcal_H0")], scale=0.5)
    checks = [_pass_fail("pointwise-half-factor", worst, POINTWISE_TOL)]
    worst = _worst_excess(coarse, [("G_H0", "Gcal_H0"), ("G_H1", "Gcal_H1")])
    checks.append(_pass_fail("pointwise-grad-domination", worst, POINTWISE_TOL))

    def ratios(ctx: SuiteContext) -> dict[str, float]:
        ns1 = ctx.norms("S_H1")
        return {
            "ratio-gcal1-over-s1": _sup_ratio(ctx.norms("Gcal_H1"), ns1),
            "ratio-s2-over-s1": _sup_ratio(ctx.norms("S_H2"), ns1),
            "eigenmode-s2-over-s1": ctx.norm("S_H2", "phi") / ctx.norm("S_H1", "phi"),
        }

    checks += _refinement_checks(config, contexts, ratios)
    checks += _constant_checks(coarse, ("S_H1", "Gcal_H0"))
    return SuiteReport("heat_control", tuple(checks), _environment(config))


def _poisson_control_ranges(config: SuiteConfig) -> tuple[dict[str, ExponentRange], dict]:
    """The exact range that poisson_control's p must lie in, by name,
    and the exponents it is built from as the report records them."""
    n_dim = config.dim
    crit_w = power_weight_criticals(_exact_alpha(config), n_dim)
    p_minus, p_plus = surrogate_p_bounds(crit_w, n_dim)
    upper = poisson_upper(p_plus, 1, crit_w.r_w, n_dim)
    ranges = {"admissible": range_W(p_minus, upper if upper > p_minus else INF, crit_w)}
    return ranges, {
        "surrogate": {"p_minus": ext_to_json(p_minus), "p_plus": ext_to_json(p_plus)},
        "poisson_upper": ext_to_json(upper),
    }


def suite_poisson_control(config: SuiteConfig, contexts: Contexts) -> SuiteReport:
    """Poisson-vs-heat dominations, ratio stability, the modal oracle."""
    _, exponents = _poisson_control_ranges(config)
    coarse = contexts[0]
    worst = _worst_excess(coarse, [("G_P1", "Gcal_P1")])
    checks = [_pass_fail("pointwise-grad-domination-poisson", worst, POINTWISE_TOL)]

    def ratios(ctx: SuiteContext) -> dict[str, float]:
        nsh = ctx.norms("S_H1")
        return {
            "ratio-sp-over-sh": _sup_ratio(ctx.norms("S_P1"), nsh),
            "ratio-gcalp-over-gcalh": _sup_ratio(ctx.norms("Gcal_P0"), ctx.norms("Gcal_H0")),
            "ratio-gcalp-over-sh": _sup_ratio(ctx.norms("Gcal_P1"), nsh),
        }

    checks += _refinement_checks(config, contexts, ratios)

    worst = max(
        abs((ctx.norm("S_P1", "phi", wide=True) / ctx.norm("S_H1", "phi", wide=True))
            ** 2 - 3.0) / 3.0
        for ctx in contexts
    )
    checks.append(_pass_fail("eigenmode-ratio-three", worst, MODAL_RATIO_TOL))
    checks += _constant_checks(coarse, ("S_P1", "Gcal_P0"))

    env = _environment(config, {"p": 2.0, **exponents})
    return SuiteReport("poisson_control", tuple(checks), env)


def _boundedness_ranges(config: SuiteConfig) -> tuple[dict[str, ExponentRange], dict]:
    """The exact heat and Poisson ranges that boundedness's p must lie
    in for each v = w^gamma (1, 1/w, sqrt(w)), keyed "<v>-<family>", and
    their ends as the report records them."""
    n_dim = config.dim
    alpha = _exact_alpha(config)
    crit_w = power_weight_criticals(alpha, n_dim)
    p_minus, p_plus = surrogate_p_bounds(crit_w, n_dim)
    poisson_up = poisson_upper(p_plus, 1, crit_w.r_w, n_dim)
    poisson_q0 = poisson_up if poisson_up > p_minus else INF
    ranges = {}
    for label, gamma in (("one", Fraction(0)), ("w-inv", -alpha), ("w-half", alpha / 2)):
        crit_v = _weighted_power_criticals(gamma, alpha, n_dim)
        ranges[f"{label}-heat"] = range_W(p_minus, INF, crit_v)
        ranges[f"{label}-poisson"] = range_W(p_minus, poisson_q0, crit_v)
    ends = {key: {"lo": ext_to_json(r.lower), "hi": ext_to_json(r.upper)}
            for key, r in ranges.items()}
    return ranges, {"ranges": ends}


def suite_boundedness(config: SuiteConfig, contexts: Contexts) -> SuiteReport:
    """Operator-norm ratios in L^2(v dw), p = 2 inside the admissible ranges."""
    _, exponents = _boundedness_ranges(config)
    alpha = _exact_alpha(config)
    v_cases = [
        ("one", UNIT_WEIGHT),
        ("w-inv", PowerWeight(float(-alpha))),
        ("w-half", PowerWeight(float(alpha) / 2)),
    ]
    coarse = contexts[0]
    env_classes = {
        label: weighted_class_constant(
            v_model, coarse.op.weight, ClassKind("Ap", 2.0), coarse.op.grid
        )
        for label, v_model in v_cases
    }

    def ratios(ctx: SuiteContext) -> dict[str, float]:
        out = {}
        for label, v_model in v_cases:
            nf = ctx.norms(None, v_model)
            for family, kind in (("heat", "S_H1"), ("poisson", "S_P1")):
                out[f"operator-ratio-{family}-v-{label}"] = _sup_ratio(
                    ctx.norms(kind, v_model), nf
                )
        return out

    checks = _refinement_checks(config, contexts, ratios)

    ratio = coarse.norm("S_H1", "phi", wide=True) / coarse.norm(None, "phi")
    checks.append(_pass_fail(
        "modal-l2-one-eighth", abs(ratio**2 - 0.125) / 0.125, MODAL_L2_TOL
    ))

    min_norm = min(coarse.norms(None))
    checks.append(Check(
        id="bank-nonzero", kind="pass_fail", values=(min_norm,),
        verdict="pass" if min_norm > 0 else "fail", tolerance=0.0,
    ))

    env = _environment(config, {"p": 2.0, **exponents, "class_constants_A2_of_w": env_classes})
    return SuiteReport("boundedness", tuple(checks), env)


def suite_angles_carleson(config: SuiteConfig, contexts: Contexts) -> SuiteReport:
    """Cone aperture and Carleson functional checks.

    The fine grid's sampled S_{1,H} fields are read first, one at a time,
    so no fine field is alive beside the coarse ones."""
    coarse, fine = contexts
    sample = range(min(ANGLE_SAMPLE, config.bank_size))

    def norm_ratios(ctx, functionals):
        """Largest Carleson-over-cone norm ratio and largest measured over
        predicted change-of-angle ratio over the sampled bank fields;
        functionals(i) gives bank field i with its p0 = 1 Carleson
        functional and aperture-2 cone."""
        equiv, angle = [], []
        for i in sample:
            fld, carl, wide_area = functionals(i)
            na = ctx.norm("S_H1", i)
            nc = lp_norm(carl, 2.0, UNIT_WEIGHT, ctx.op.weight, ctx.op.grid)
            if na > 0:
                equiv.append(nc / na)
            rep = change_of_angle_report(
                fld, 1.0, 2.0, 2.0, UNIT_WEIGHT, r=2.0, r_tilde=2.0,
                cones={1.0: ctx.values("S_H1", i), 2.0: wide_area},
            )
            if rep.ratio is not None:
                angle.append(rep.ratio / rep.predicted_increase)
            # field i is dropped before field i + 1 is built
            del fld
        return max(equiv), max(angle)

    def fine_functionals(i):
        fld = fine.field("S_H1", i)
        return fld, carleson_p_all(fld, 1.0), cone_all(fld, 2.0)

    equiv_f, revalidated = norm_ratios(fine, fine_functionals)

    # three random fields, then the S_{1,H} fields of the sampled bank
    rng = np.random.default_rng(config.seed + 1)
    grid, ladder, weight = coarse.op.grid, coarse.ladder, coarse.op.weight
    shape = (ladder.count, grid.n_cells)
    fields = [HalfSpaceField(grid, ladder, weight, np.abs(rng.standard_normal(shape)))
              for _ in range(3)]
    areas = [cone_all(fld, 1.0) for fld in fields]
    fields += [coarse.field("S_H1", i) for i in sample]
    areas += [coarse.values("S_H1", i) for i in sample]
    wide_areas = [cone_all(fld, 2.0) for fld in fields]

    worst = max(
        max(float(np.max(cone_all(fld, 0.5) - area)), float(np.max(area - wide)))
        for fld, area, wide in zip(fields, areas, wide_areas)
    )
    checks = [_pass_fail("aperture-monotonicity", worst, 0.0)]

    worst = -math.inf
    for fld, area in zip(fields, areas):
        cone_sq = float(np.sum(area**2 * fld.weight_values * fld.grid.cell_volume))
        direct = fubini_norm_sq(fld)
        worst = max(worst, abs(cone_sq - direct) / direct)
    checks.append(_pass_fail("fubini-p2-identity", worst, FUBINI_TOL))

    carleson = {p0: [carleson_p_all(fld, p0) for fld in fields] for p0 in (1.0, 2.0)}
    worst = max(
        float(np.max(carl - maximal(area, fld.grid, p0, base=fld.weight)))
        for p0, carls in carleson.items()
        for fld, area, carl in zip(fields, areas, carls)
    )
    checks.append(_pass_fail("carleson-below-maximal", worst, POINTWISE_TOL))

    # the coarse bank fields follow the three random ones
    equiv_c, calibrated = norm_ratios(
        coarse, lambda i: (fields[3 + i], carleson[1.0][3 + i], wide_areas[3 + i]))
    checks.append(_drift_check(
        "carleson-vs-cone-norms", equiv_c, equiv_f,
        config, "norm equivalence, doubling-calibrated band",
    ))
    ok = revalidated <= calibrated * (1.0 + config.drift_limit)
    checks.append(Check(
        id="angle-ratio-vs-predicted", kind="report_only",
        values=(calibrated, revalidated),
        verdict="pass" if ok else "fail", tolerance=config.drift_limit,
        predicted_form="calibrated constant * (beta/alpha)^{n r rtilde / p}",
    ))

    zero = HalfSpaceField(grid, ladder, weight, np.zeros(shape))
    worst = max(
        float(np.max(cone_all(zero, 1.0))),
        float(np.max(carleson_p_all(zero, 1.0))),
    )
    checks.append(_pass_fail("zero-field", worst, 0.0))

    return SuiteReport("angles_carleson", tuple(checks), _environment(config))


def _g_alpha_functional(
    grid: Grid, w_values: NDArray, h_values: NDArray, alpha: float, t: float, q: float,
) -> float:
    """The dw integral of the q-th root of the alpha-aperture average
    of |h| against the normalized ball measure dw(y)/w(B(y, alpha t))."""
    radii = [alpha * t]
    whn = w_values * grid.cell_volume
    wball = grid.stencil.ball_reduce(whn, radii, strict=True)[0]
    payload = np.abs(h_values) * whn / wball
    g = grid.stencil.ball_reduce(payload, radii, strict=True)[0]
    return float(np.sum(g ** (1.0 / q) * whn))


def suite_appendix_q(config: SuiteConfig, contexts: Contexts) -> SuiteReport:
    """Small-aperture averaging inequality: measured alpha-power versus
    the predicted exponent n r (1/s - 1/q)."""
    rng = np.random.default_rng(config.seed + 2)
    checks = []
    op = contexts[0].op
    grid = op.grid
    w_values = op.weight_values
    h_values = np.abs(rng.standard_normal(grid.n_cells))
    t = 0.25

    # at q = 1 the ball normalizations cancel by symmetry of the
    # distance, so the functional equals the plain mass at every aperture
    mass = float(np.sum(np.abs(h_values) * w_values * grid.cell_volume))
    worst = max(
        abs(_g_alpha_functional(grid, w_values, h_values, a, t, 1.0) / mass - 1.0)
        for a in config.appendix_alphas
    )
    checks.append(_pass_fail("mass-identity-q1", worst, FUBINI_TOL))

    def slope(q: float, weight_values: NDArray) -> float:
        vals = [
            _g_alpha_functional(grid, weight_values, h_values, a, t, q)
            for a in config.appendix_alphas
        ]
        ref = vals[0]
        logs = np.log(np.array(vals) / ref)
        la = np.log(np.array(config.appendix_alphas))
        return float(np.polyfit(la, logs, 1)[0])

    flat_slope = slope(config.appendix_s, np.ones(grid.n_cells))
    checks.append(Check(
        id="flat-weight-slope", kind="report_only",
        values=(flat_slope, 0.0),
        verdict="pass" if abs(flat_slope) <= 0.5 else "fail", tolerance=0.5,
        predicted_form="alpha^0 for w = 1, q = s",
    ))

    predicted = (
        config.dim * config.appendix_r
        * (1.0 / config.appendix_s - 1.0 / config.appendix_q)
    )
    measured = slope(config.appendix_q, w_values)
    checks.append(Check(
        id="power-weight-slope", kind="report_only",
        values=(measured, predicted),
        verdict="pass" if measured >= predicted - 0.5 else "fail", tolerance=0.5,
        predicted_form="alpha^{n r (1/s - 1/q)}",
    ))

    env = _environment(config, {
        "r": config.appendix_r, "s": config.appendix_s, "q": config.appendix_q,
        "alphas": list(config.appendix_alphas), "t": t,
    })
    return SuiteReport("appendix_q", tuple(checks), env)


SUITES = {
    "heat_control": suite_heat_control,
    "poisson_control": suite_poisson_control,
    "boundedness": suite_boundedness,
    "angles_carleson": suite_angles_carleson,
    "appendix_q": suite_appendix_q,
}

# the suites whose p = 2 must lie inside exact ranges that the config
# alone fixes, each with the helper that gives those ranges
_P_RANGES = {
    "poisson_control": _poisson_control_ranges,
    "boundedness": _boundedness_ranges,
}


def _check_weight_alpha(config: SuiteConfig, names: list[str]):
    """Reject a weight_alpha at which a named suite's exact ranges exclude
    p = 2, before anything is assembled.  The ranges read weight_alpha
    as the nearest fraction with denominator at most 64."""
    for name in [n for n in names if n in _P_RANGES]:
        try:
            ranges, _ = _P_RANGES[name](config)
        except ValueError as exc:
            reason = str(exc)
        else:
            reason = next((f"p=2 outside its {label} range {rng}"
                           for label, rng in ranges.items() if not rng.contains(2)), None)
        if reason:
            raise ValueError(f"weight_alpha: suite {name} cannot run at weight power "
                             f"{config.weight_alpha}: {reason}")


def run_suites(
    config: SuiteConfig, names: list[str] | None = None
) -> list[SuiteReport]:
    """Run the named suites in the order named (all of them, in registry
    order, by default)."""
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    _check_weight_alpha(config, names)
    contexts = tuple(SuiteContext(config, n) for n in config.sizes)
    return [SUITES[n](config, contexts) for n in names]
