"""Muckenhoupt and reverse-Hölder class constants over a finite ball family.

For a weight w and a ball B the two defining products are

    A_p:   (avg_B w) (avg_B w^{-1/(p-1)})^{p-1},      p > 1,
    A_1:   (avg_B w) / (min_B w),
    RH_s:  (avg_B w^s)^{1/s} / (avg_B w),             1 < s < inf,
    RH_oo: (max_B w) / (avg_B w),

each >= 1 by Jensen.  The class constant is the sup over balls, realized
here as the max over the finite family {all cell centers} x {dyadic radii
<= 1/4}.  Weighted variants A_p(w), RH_s(w) replace every average by the
dw-average avg_B^dw g = (1/w(B)) sum_B g w h^dim.

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

from .mesh import Grid, WeightModel

__all__ = [
    "ClassKind",
    "ClassEstimate",
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

_FAMILIES = ("Ap", "RHs", "Ap_of_w", "RHs_of_w")


@dataclass(frozen=True)
class ClassKind:
    """A weight class: A_p, RH_s, or their w-weighted versions."""

    family: str
    index: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown class family {self.family!r}")
        if self.family in ("Ap", "Ap_of_w"):
            if not self.index >= 1:
                raise ValueError(f"A_p requires p >= 1, got {self.index}")
            if math.isinf(self.index):
                raise ValueError("A_p index must be finite")
        else:
            if not self.index > 1:
                raise ValueError(f"RH_s requires s > 1 (or inf), got {self.index}")


@dataclass(frozen=True)
class ClassEstimate:
    class_kind: ClassKind
    constant_estimate: float

    def __post_init__(self):
        if not self.constant_estimate >= 1.0 - 1e-12:
            raise ValueError(
                f"class constant {self.constant_estimate} below 1; "
                "the defining products are >= 1 by Jensen"
            )


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
    is_ap = kind.family in ("Ap", "Ap_of_w")
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


def ap_constant(w: WeightModel, p: float, grid: Grid) -> ClassEstimate:
    """[w]_{A_p} over the ball family; p = 1 uses the min form."""
    kind = ClassKind("Ap", float(p))
    wv = w.sample(grid)
    c = _max_product(wv, np.ones(grid.n_cells), grid, kind)
    return ClassEstimate(kind, c)


def rh_constant(w: WeightModel, s: float, grid: Grid) -> ClassEstimate:
    """[w]_{RH_s} over the ball family; s = inf uses the max form."""
    kind = ClassKind("RHs", float(s))
    wv = w.sample(grid)
    c = _max_product(wv, np.ones(grid.n_cells), grid, kind)
    return ClassEstimate(kind, c)


def weighted_class_constant(
    v: WeightModel,
    w: WeightModel,
    class_kind: ClassKind,
    grid: Grid,
) -> ClassEstimate:
    """Class constant of v with every average taken in the measure dw.

    The plain families are accepted too and then ignore w, so one entry
    point covers all four kinds.
    """
    vv = v.sample(grid)
    if class_kind.family in ("Ap_of_w", "RHs_of_w"):
        base = w.sample(grid)
    else:
        base = np.ones(grid.n_cells)
    c = _max_product(vv, base, grid, class_kind)
    return ClassEstimate(class_kind, c)


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
    w: WeightModel | None = None,
    sizes: tuple[int, ...] = REFINEMENT_SIZES,
    threshold: float = GROWTH_THRESHOLD,
) -> RefinementVerdict:
    """Diagnose class membership by refining the grid.

    Member iff the constants are stable (total growth across the sweep
    within the threshold factor) or still settling (successive
    increments decay by at least the factor INCREMENT_DECAY, the
    signature of a convergent estimate whose limit merely sits above the
    stability band).  Divergence, whether power-like or logarithmic,
    keeps the increments from shrinking.  `sizes` are at least two
    increasing grid sides; `w` is required for the weighted families.
    """
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must be at least two increasing grid sides, got {sizes}")
    if class_kind.family in ("Ap_of_w", "RHs_of_w") and w is None:
        raise ValueError(f"family {class_kind.family} needs the base weight w")
    if w is None:
        w = v  # ignored by the plain families
    constants = []
    for n in sizes:
        est = weighted_class_constant(v, w, class_kind, Grid(dim, n))
        constants.append(est.constant_estimate)
    increments = [b - a for a, b in zip(constants, constants[1:])]
    step_ratio = None
    if len(increments) >= 2 and increments[-2] > 0:
        step_ratio = increments[-1] / increments[-2]
    if constants[-1] / constants[0] <= threshold:
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
    """Bisect for the boundary index of a weighted class.

    For "Ap_of_w" membership is monotone increasing in p and the value
    returned estimates inf{p : v in A_p(w)} from above; for "RHs_of_w"
    membership is decreasing in s and the estimate of sup{s : v in
    RH_s(w)} is from below.  Endpoints must bracket: lo outside (or at
    the boundary), hi inside for Ap; the reverse for RHs.
    """
    if family not in ("Ap_of_w", "RHs_of_w"):
        raise ValueError(f"bisection handles weighted families only, got {family!r}")

    def member(index: float) -> bool:
        verdict = membership_by_refinement(
            v, ClassKind(family, index), dim, w=w, sizes=sizes
        )
        return verdict.member

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if family == "Ap_of_w":
            if member(mid):
                hi = mid
            else:
                lo = mid
        else:
            if member(mid):
                lo = mid
            else:
                hi = mid
    return hi if family == "Ap_of_w" else lo
