"""Heat and Poisson semigroup families on a spectral operator.

All evaluations are functional calculus on the w-orthonormal spectrum:

    heat:     (t^2 L_w)^m e^{-t^2 L_w} f = sum_k (t^2 lam_k)^m e^{-t^2 lam_k} c_k phi_k,
    Poisson:  (t sqrt(L_w))^{2K} e^{-t sqrt(L_w)} f, with (t sqrt(L_w))^{2K}
              rewritten as (t^2 L_w)^K; half-integer powers are not offered.

Time derivatives are computed analytically on the spectrum,

    t d/dt [(t^2 lam)^m e^{-t^2 lam}] = (2m - 2 t^2 lam) (t^2 lam)^m e^{-t^2 lam},
    t d/dt [(t s)^{2K} e^{-t s}]      = (2K - t s) (t s)^{2K} e^{-t s},  s = sqrt(lam),

so the m = 0 heat identity t d_t e^{-t^2 L_w} f = -2 (t^2 L_w) e^{-t^2 L_w} f
holds at the coefficient level up to rounding.  `grad_eval` and
`poisson_grad_eval` return the pair [u, t d_t u]; the spatial part
t grad_y u is never stored, and `spatial_norm_sq` takes its squares from
centered periodic differences of u.

The factors above are the multiplier tables.  Every evaluator projects
f once into the operator's block coordinates and builds each table it
needs at a single time (M cells) or at a 1-D array of J times, such as
all ladder nodes ((J, M)), in one buffer and in place: -t^2 lam (or
-t sqrt(lam)) over the block-ordered eigenvalues, its exponential
(flushed to 0 past EXPONENT_FLOOR), the power as t^{2m} per row times
lam^m per column, then the coefficients.  A time table is the image
table times its bracket above.  Each image is one reconstruction, one
product per parity block, written over its table; no table or image
outlives its call.  `multiplier_tables` returns the tables themselves,
for norms that Parseval takes without a reconstruction.

The Poisson factors are taken in closed form.  `subordination_factors`
is their independent reference, the subordination formula

    e^{-t sqrt(lam)} = (1/sqrt(pi)) int_0^inf e^{-u} u^{1/2} e^{-(t^2/4u) lam} du/u,

integrated in v = log u (the du/u measure becomes dv) by a fixed
trapezoid rule: step SUBORDINATION_STEP on [-V, V] with
V = SUBORDINATION_HALF_WIDTH.  In v the integrand is analytic and decays
doubly exponentially as v -> +inf and like e^{v/2} as v -> -inf, so the
rule converges geometrically in the step and the half-width.  No
evaluator uses it: multiplied into the global coefficients `project(f)`
and reconstructed, it gives the Poisson image that `poisson_eval` must
match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .mesh import Grid
from .operator import SpectralOperator, _take

__all__ = [
    "TimeLadder",
    "ORDER_CAP",
    "LADDER_CAP",
    "LADDER_START_DIVISOR",
    "heat_eval",
    "grad_eval",
    "poisson_eval",
    "poisson_grad_eval",
    "multiplier_tables",
    "subordination_factors",
    "spatial_norm_sq",
]

ORDER_CAP = 4
# most time nodes a ladder may have; the longest ladder any suite uses has
# 209 (the modal ladder at N = 128 in dim 1)
LADDER_CAP = 4096
# the default ladder starts a quarter cell up, at h / LADDER_START_DIVISOR;
# suite reports name the rule as "h/<divisor>"
LADDER_START_DIVISOR = 4
# the subordination rule: 481 nodes v_k = k SUBORDINATION_STEP, |v_k| <= V.
# Its worst absolute error against e^{-t sqrt(lam)} is 9.9e-14 over
# lam in {0} and [1e-3, 1e9] and t in [1e-4, 100], set by the lam = 0 tail
# 2 e^{-V/2} / sqrt(pi) below -V (a step of 0.35 gives 3.1e-12; V = 40,
# 2.2e-9)
SUBORDINATION_STEP = 0.25
SUBORDINATION_HALF_WIDTH = 60.0
# nodes per block of the rule's exponentials, so a call holds a
# (SUBORDINATION_CHUNK, M) table and never one row per node
SUBORDINATION_CHUNK = 32
# values per block of the second axis's differences in spatial_norm_sq:
# 256 KB of scratch, which at N = 32 and 64 also runs about twice as fast
# as one difference over the whole (J, M) stack
SPATIAL_BLOCK_CELLS = 2**15
# semigroup factors e^{-s} with s past this are flushed to 0.  Below
# 1e-304, and below 1e-290 after any power and coefficient, they are
# invisible next to the leading terms of an image, while exp takes a slow
# path on them and the reconstruction products run about twice as slow on
# the subnormal numbers they leave in a table
EXPONENT_FLOOR = -700.0


@dataclass(frozen=True)
class TimeLadder:
    """Geometric time nodes t_j = t_min * ratio^j with dt/t weight ln(ratio)."""

    t_min: float
    t_max: float
    ratio: float

    def __post_init__(self):
        if not (0 < self.t_min <= self.t_max):
            raise ValueError(f"need 0 < t_min <= t_max, got ({self.t_min}, {self.t_max})")
        if not self.ratio > 1:
            raise ValueError(f"ratio must exceed 1, got {self.ratio}")
        if not self._span() < LADDER_CAP:
            raise ValueError(
                f"ladder ({self.t_min}, {self.t_max}, ratio {self.ratio}) needs "
                f"more than {LADDER_CAP} nodes"
            )

    @classmethod
    def default_for(
        cls, grid: Grid, ratio: float = 2 ** (1 / 16), t_max: float = 1.0
    ) -> "TimeLadder":
        """The ladder from h / LADDER_START_DIVISOR up to t_max."""
        return cls(grid.h / LADDER_START_DIVISOR, float(t_max), float(ratio))

    def _span(self) -> float:
        """log_ratio(t_max / t_min) plus a 1e-12 guard, so that count is
        floor(span) + 1; inf when the quotient overflows."""
        return math.log(self.t_max / self.t_min) / math.log(self.ratio) + 1e-12

    @property
    def count(self) -> int:
        return int(math.floor(self._span())) + 1

    @property
    def nodes(self) -> NDArray:
        return self.t_min * self.ratio ** np.arange(self.count)

    @property
    def node_weight(self) -> float:
        """Quadrature weight of each node for integrals against dt/t."""
        return math.log(self.ratio)


def _exp(table: NDArray) -> NDArray:
    """e^table in place, flushed to 0 where table < EXPONENT_FLOOR."""
    np.exp(table, out=table, where=table >= EXPONENT_FLOOR)
    return np.maximum(table, 0.0, out=table)


def _heat(lam: NDArray, t: NDArray) -> NDArray:
    """e^{-t^2 lam} in one buffer of shape t.shape + lam.shape."""
    return _exp(np.multiply.outer(-(t * t), lam))


def _heat_rate(lam: NDArray, t: NDArray) -> NDArray:
    """t d_t of the exponent -t^2 lam."""
    return np.multiply.outer(-2 * (t * t), lam)


def _poisson(lam: NDArray, t: NDArray) -> NDArray:
    return _exp(_poisson_rate(lam, t))


def _poisson_rate(lam: NDArray, t: NDArray) -> NDArray:
    """-t sqrt(lam), its own t d_t."""
    return np.multiply.outer(-t, np.sqrt(lam))


# semigroup: (its factor S over (t, lam), the t d_t of log S)
_SEMIGROUPS = {"heat": (_heat, _heat_rate), "poisson": (_poisson, _poisson_rate)}


def multiplier_tables(op: SpectralOperator, semigroup: str, order: int,
                      t: float | NDArray, f: NDArray, time: bool = False) -> list[NDArray]:
    """The coefficient table (t^2 lam_k)^order S_k(t) c_k of f, with S the
    factor of `semigroup`, "heat" or "poisson", and c = project(f), and
    with `time` also its t d_t table, the image table times
    2 order + t d_t log S.  Reconstructed, they are the pair that
    `grad_eval` or `poisson_grad_eval` returns, and the first alone is
    `heat_eval` or `poisson_eval`; by w-orthonormality a table's sum of
    squares at a node is its image's squared L^2(w) norm there.

    t is one time or a 1-D array of J times, so each table has shape (M,)
    or (J, M).  f is projected once; the tables and the coefficients stay
    in the operator's block order."""
    if semigroup not in _SEMIGROUPS:
        raise ValueError(f"unknown semigroup {semigroup!r}; expected 'heat' or 'poisson'")
    if isinstance(order, (bool, np.bool_)) or not (0 <= int(order) == order <= ORDER_CAP):
        raise ValueError(f"power must be an integer in [0, {ORDER_CAP}], got {order}")
    t = np.asarray(t, float)
    if t.ndim > 1:
        raise ValueError(f"times must be a scalar or a 1-D array, got shape {t.shape}")
    finite = (t >= 0) & (t < np.inf)
    if not np.all(finite):
        raise ValueError(f"time must be finite and nonnegative, got {t[~finite].flat[0]}")
    factor, rate = _SEMIGROUPS[semigroup]
    lam = op.block_eigenvalues
    coeffs = op.project_blocks(f)
    table = factor(lam, t)
    if order:  # no power at order 0: 0^0 = 1 keeps the kernel mode
        table *= (t * t)[..., None] ** order
        coeffs *= lam**order
    table *= coeffs
    tables = [table]
    if time:
        time_table = rate(lam, t)
        time_table += 2 * order
        time_table *= table
        tables.append(time_table)
    return tables


def _images(op: SpectralOperator, semigroup: str, order: int, t: float | NDArray,
            f: NDArray, time: bool = False) -> list[NDArray]:
    """The images of the `multiplier_tables` of f, each one reconstruction
    written over its own table."""
    return [op.reconstruct_blocks(x, out=x)
            for x in multiplier_tables(op, semigroup, order, t, f, time)]


def heat_eval(op: SpectralOperator, m: int, t: float | NDArray, f: NDArray) -> NDArray:
    """(t^2 L_w)^m e^{-t^2 L_w} f at one time (M,) or at each of J times (J, M)."""
    return _images(op, "heat", m, t, f)[0]


def _centered_difference(grid: Grid, u: NDArray, axis: int) -> NDArray:
    """u(x + h e_axis) - u(x - h e_axis), from periodic slices of u viewed
    as a grid stack, written along the axis with no transposed copy."""
    stack = u.shape[:-1] + (grid.n_side,) * grid.dim
    v = u.reshape(stack)
    out = np.empty(stack)
    ax = axis - grid.dim

    def at(x: NDArray, start: int | None, stop: int | None) -> NDArray:
        return _take(x, ax, slice(start, stop))

    np.subtract(at(v, 2, None), at(v, None, -2), out=at(out, 1, -1))
    np.subtract(at(v, 1, 2), at(v, -1, None), out=at(out, None, 1))
    np.subtract(at(v, None, 1), at(v, -2, -1), out=at(out, -1, None))
    return out.reshape(u.shape)


def spatial_norm_sq(grid: Grid, t: float | NDArray, u: NDArray) -> NDArray:
    """|t grad_y u|^2 by centered periodic differences, for u at one time
    (cells,) or at J times t (J, cells): the squared differences summed
    over the axes in one buffer, then scaled by (t / 2h)^2.  The first
    axis's differences are that buffer; the other axes' are taken a block
    of SPATIAL_BLOCK_CELLS values at a time, so no second (J, cells) array
    is held."""
    u = np.asarray(u, float)
    total = _centered_difference(grid, u, 0)
    np.square(total, out=total)
    rows, total_rows = u.reshape(-1, grid.n_cells), total.reshape(-1, grid.n_cells)
    step = max(1, SPATIAL_BLOCK_CELLS // grid.n_cells)
    for axis in range(1, grid.dim):
        for start in range(0, len(rows), step):
            block = slice(start, start + step)
            diff = _centered_difference(grid, rows[block], axis)
            total_rows[block] += np.square(diff, out=diff)
    total *= np.square(np.asarray(t, float) / (2 * grid.h))[..., None]
    return total


def grad_eval(op: SpectralOperator, m: int, t: float | NDArray, f: NDArray) -> list[NDArray]:
    """[u, t d_t u] for u = (t^2 L_w)^m e^{-t^2 L_w} f, at one time (M,) or
    at each of J times (J, M): the image and time parts of
    t grad_{y,t} u, whose spatial part `spatial_norm_sq` takes from u."""
    return _images(op, "heat", m, t, f, time=True)


def subordination_factors(lam: NDArray, t: float) -> NDArray:
    """e^{-t sqrt(lam)} computed from the subordination integral.

    The trapezoid rule in v = log u for
    (1/sqrt(pi)) int e^{-u + v/2 - (t^2/4u) lam} dv, with the exponentials
    of each chunk of nodes summed into one buffer of lam's shape."""
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    lam = np.atleast_1d(np.asarray(lam, float))
    if t == 0:
        return np.ones_like(lam)
    half = round(SUBORDINATION_HALF_WIDTH / SUBORDINATION_STEP)
    v = SUBORDINATION_STEP * np.arange(-half, half + 1)
    u = np.exp(v)
    log_weight = v / 2 - u + math.log(SUBORDINATION_STEP / math.sqrt(math.pi))
    rate = -(t * t / 4) / u
    total = np.zeros_like(lam)
    for k in range(0, v.size, SUBORDINATION_CHUNK):
        chunk = slice(k, k + SUBORDINATION_CHUNK)
        table = np.multiply.outer(rate[chunk], lam)
        table += log_weight[chunk, None]
        total += _exp(table).sum(axis=0)
    return total


def poisson_eval(op: SpectralOperator, big_k: int, t: float | NDArray, f: NDArray) -> NDArray:
    """(t sqrt(L_w))^{2K} e^{-t sqrt(L_w)} f at one time (M,) or at each of
    J times (J, M), from the closed-form spectrum."""
    return _images(op, "poisson", big_k, t, f)[0]


def poisson_grad_eval(
    op: SpectralOperator, big_k: int, t: float | NDArray, f: NDArray
) -> list[NDArray]:
    """[u, t d_t u] for u = (t sqrt(L_w))^{2K} e^{-t sqrt(L_w)} f, as `grad_eval`."""
    return _images(op, "poisson", big_k, t, f, time=True)
