"""Muckenhoupt and reverse-Hölder class constants over a finite ball family.

A class is always taken relative to a measure w dx: the weight v under
test is averaged in it, avg_B g = (1/w(B)) sum_B g w h^dim, and the
defining products are

    A_p(w):   (avg_B v) (avg_B v^{-1/(p-1)})^{p-1},      p > 1,
    A_1(w):   (avg_B v) / (min_B v),
    RH_s(w):  (avg_B v^s)^{1/s} / (avg_B v),             1 < s < inf,
    RH_oo(w): (max_B v) / (avg_B v),

each >= 1 by Jensen.  The plain classes A_p and RH_s are those in the
measure w = UNIT_WEIGHT.  The class constant is the sup over balls,
realized here as the max over the finite family {all cell centers} x
{dyadic radii <= 1/4}.

Membership in a class is a statement about all balls at all scales, so no
single grid decides it.  It is diagnosed by refinement across N in
{16, 32, 64}: constants whose total growth stays within a factor 1.15 are
stable, and constants that still grow beyond that are accepted as
convergent only when the per-refinement increments decay geometrically.
A convergent estimate approaches its limit with shrinking steps; power
and logarithmic divergence both keep the steps from shrinking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .mesh import UNIT_WEIGHT, Grid, WeightModel

__all__ = [
    "ClassKind",
    "RefinementVerdict",
    "ap_constant",
    "rh_constant",
    "weighted_class_constant",
    "membership_by_refinement",
    "estimate_critical_index",
]

GROWTH_THRESHOLD = 1.15
INCREMENT_DECAY = 0.94
REFINEMENT_SIZES = (16, 32, 64)

_FAMILIES = ("Ap", "RHs")


@dataclass(frozen=True)
class ClassKind:
    """A weight class family, "Ap" or "RHs", with its index p or s; the
    measure it is taken in is an argument of the estimators."""

    family: str
    index: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown class family {self.family!r}")
        if isinstance(self.index, bool):
            raise ValueError(f"class index must be a number, got {self.index!r}")
        if self.family == "Ap":
            if not self.index >= 1:
                raise ValueError(f"A_p requires p >= 1, got {self.index}")
            if math.isinf(self.index):
                raise ValueError("A_p index must be finite")
        else:
            if not self.index > 1:
                raise ValueError(f"RH_s requires s > 1 (or inf), got {self.index}")


def _family_radii(grid: Grid) -> list[float]:
    return grid.dyadic_radii(0.25)


# exp overflows past ~709.8; the margin leaves room for the ball sums
_LOG_SAFE = 700.0


def _max_product(
    values: NDArray,
    base: NDArray,
    grid: Grid,
    kind: ClassKind,
) -> float:
    """Max over the ball family of the defining product for `kind`,
    with averages in the measure `base` (cell volumes cancel)."""
    p_or_s = kind.index
    is_ap = kind.family == "Ap"
    stencil = grid.stencil
    radii = _family_radii(grid)
    # the power of v averaged beside v: the dual -1/(p-1) for A_p, s for
    # RH_s; A_1 and RH_oo take the ball min / max instead
    if is_ap:
        power = None if p_or_s == 1 else -1.0 / (p_or_s - 1.0)
    else:
        power = None if math.isinf(p_or_s) else p_or_s
    log_pow = None if power is None else power * np.log(values)
    # p near 1 or a large s sends v^power out of float range: log path
    direct = log_pow is not None and float(np.abs(log_pow).max()) <= _LOG_SAFE
    rows = [base, values * base] + ([values**power * base] if direct else [])
    # one additive pass serves every average; rows reduce elementwise
    sums = stencil.ball_reduce(np.stack(rows), radii)
    mass = sums[:, 0]
    avg_v = sums[:, 1] / mass
    if log_pow is not None and not direct:
        # log of the ball average of v^power; np.logaddexp stays in range
        log_sums = stencil.ball_reduce(log_pow + np.log(base), radii, ufunc=np.logaddexp)
        log_avg = log_sums - np.log(mass)
    if is_ap:
        if power is None:
            per_ball = avg_v / stencil.ball_reduce(values, radii, ufunc=np.minimum)
        elif direct:
            per_ball = avg_v * (sums[:, 2] / mass) ** (p_or_s - 1.0)
        else:
            per_ball = avg_v * np.exp((p_or_s - 1.0) * log_avg)
    else:
        if power is None:
            per_ball = stencil.ball_reduce(values, radii, ufunc=np.maximum) / avg_v
        elif direct:
            per_ball = (sums[:, 2] / mass) ** (1.0 / p_or_s) / avg_v
        else:
            per_ball = np.exp(log_avg / p_or_s) / avg_v
    best = 0.0
    for row in per_ball:  # one radius at a time: a NaN row is skipped
        best = max(best, float(row.max()))
    return best


def ap_constant(w: WeightModel, p: float, grid: Grid) -> float:
    """[w]_{A_p} over the ball family; p = 1 uses the min form."""
    return weighted_class_constant(w, UNIT_WEIGHT, ClassKind("Ap", float(p)), grid)


def rh_constant(w: WeightModel, s: float, grid: Grid) -> float:
    """[w]_{RH_s} over the ball family; s = inf uses the max form."""
    return weighted_class_constant(w, UNIT_WEIGHT, ClassKind("RHs", float(s)), grid)


def weighted_class_constant(
    v: WeightModel,
    w: WeightModel,
    class_kind: ClassKind,
    grid: Grid,
) -> float:
    """Class constant of v in `class_kind` with every average taken in
    the measure w dx; raises if it falls below 1, which Jensen forbids."""
    c = _max_product(v.sample(grid), w.sample(grid), grid, class_kind)
    if not c >= 1.0 - 1e-12:
        raise ValueError(
            f"class constant {c} below 1; the defining products are >= 1 by Jensen"
        )
    return c


@dataclass(frozen=True)
class RefinementVerdict:
    """Outcome of a stability-vs-growth sweep across grid refinements:
    the verdict and the class constant at each swept size."""

    member: bool
    constants: tuple[float, ...]


def membership_by_refinement(
    v: WeightModel,
    class_kind: ClassKind,
    dim: int,
    w: WeightModel = UNIT_WEIGHT,
    sizes: tuple[int, ...] = REFINEMENT_SIZES,
) -> RefinementVerdict:
    """Diagnose membership of v in the class taken in the measure w dx
    by refining the grid.

    Member iff the constants are stable (total growth across the sweep
    within the factor GROWTH_THRESHOLD) or still settling (successive
    increments decay by at least the factor INCREMENT_DECAY, the
    signature of a convergent estimate whose limit merely sits above the
    stability band).  Divergence, whether power-like or logarithmic,
    keeps the increments from shrinking.  `sizes` are at least two
    increasing grid sides.
    """
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must be at least two increasing grid sides, got {sizes}")
    constants = [weighted_class_constant(v, w, class_kind, Grid(dim, n)) for n in sizes]
    increments = [b - a for a, b in zip(constants, constants[1:])]
    step_ratio = None
    if len(increments) >= 2 and increments[-2] > 0:
        step_ratio = increments[-1] / increments[-2]
    if constants[-1] / constants[0] <= GROWTH_THRESHOLD:
        member = True
    else:
        member = step_ratio is not None and step_ratio <= INCREMENT_DECAY
    return RefinementVerdict(member=member, constants=tuple(constants))


def estimate_critical_index(
    v: WeightModel,
    w: WeightModel,
    family: str,
    dim: int,
    lo: float,
    hi: float,
    iters: int = 10,
    sizes: tuple[int, ...] = REFINEMENT_SIZES,
) -> float:
    """Bisect for the boundary index of the class `family` ("Ap" or
    "RHs") of v in the measure w dx.

    Membership grows with p and shrinks with s, so the smaller index lo
    starts outside and hi inside the class for "Ap" (the reverse for
    "RHs"), and the member endpoint is returned.  lo < hi, both finite,
    is required; the endpoints themselves are not probed.  Finite-grid
    verdicts decide which side of the true index it lands on, and that
    side can differ between measures.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got lo={lo}, hi={hi}")
    is_ap = family == "Ap"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        verdict = membership_by_refinement(v, ClassKind(family, mid), dim, w=w, sizes=sizes)
        if verdict.member == is_ap:
            hi = mid
        else:
            lo = mid
    return hi if is_ap else lo
