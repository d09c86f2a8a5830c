"""Muckenhoupt and reverse-Hölder class constants over a finite ball family.

A class is always taken relative to a measure w dx: the weight v under
test is averaged in it, avg_B g = (1/w(B)) sum_B g w h^dim, and the
defining products are

    A_p(w):   (avg_B v) (avg_B v^{-1/(p-1)})^{p-1},      p > 1,
    A_1(w):   (avg_B v) / (min_B v),
    RH_s(w):  (avg_B v^s)^{1/s} / (avg_B v),             1 < s < inf,
    RH_oo(w): (max_B v) / (avg_B v),

each >= 1 by Jensen: avg_B v times or over a ball extreme of v, or a
ball average of v^power raised to the root p - 1 or 1/s.  The plain
classes A_p and RH_s are those in the measure w = UNIT_WEIGHT.  The
class constant is the sup over balls, realized here as the max over
the finite family {all cell centers} x {dyadic radii <= 1/4}.

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

from .mesh import UNIT_WEIGHT, Grid, WeightModel, number

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
        if self.family == "Ap":  # A_p for finite p >= 1, RH_s for 1 < s <= inf
            number("index", self.index, 1, open_hi=True)
        else:
            number("index", self.index, 1, open_lo=True)


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
    radii = grid.dyadic_radii(0.25)
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
    if power is None:
        extreme = stencil.ball_reduce(values, radii, ufunc=np.minimum if is_ap else np.maximum)
        per_ball = avg_v / extreme if is_ap else extreme / avg_v
    else:
        root = p_or_s - 1.0 if is_ap else 1.0 / p_or_s
        if direct:
            mean = (sums[:, 2] / mass) ** root
        else:
            # from the log of the ball average; np.logaddexp stays in range
            log_sums = stencil.ball_reduce(log_pow + np.log(base), radii, ufunc=np.logaddexp)
            mean = np.exp(root * (log_sums - np.log(mass)))
        per_ball = avg_v * mean if is_ap else mean / avg_v
    best = 0.0
    for row in per_ball:  # one radius at a time: a NaN row is skipped
        best = max(best, float(row.max()))
    return best


def ap_constant(w: WeightModel, p: float, grid: Grid) -> float:
    """[w]_{A_p} over the ball family; p = 1 uses the min form."""
    return weighted_class_constant(w, UNIT_WEIGHT, ClassKind("Ap", p), grid)


def rh_constant(w: WeightModel, s: float, grid: Grid) -> float:
    """[w]_{RH_s} over the ball family; s = inf uses the max form."""
    return weighted_class_constant(w, UNIT_WEIGHT, ClassKind("RHs", s), grid)


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
    number("lo", lo)
    number("hi", hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got lo={lo}, hi={hi}")
    number("iters", iters, 0, integer=True)
    is_ap = family == "Ap"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        verdict = membership_by_refinement(v, ClassKind(family, mid), dim, w=w, sizes=sizes)
        if verdict.member == is_ap:
            hi = mid
        else:
            lo = mid
    return hi if is_ap else lo
