"""Heat and Poisson semigroup families on a spectral operator.

All evaluations are functional calculus on the w-orthonormal spectrum:

    heat:     (t^2 L_w)^m e^{-t^2 L_w} f = sum_k (t^2 lam_k)^m e^{-t^2 lam_k} c_k phi_k,
    Poisson:  (t sqrt(L_w))^{2K} e^{-t sqrt(L_w)} f, with (t sqrt(L_w))^{2K}
              rewritten as (t^2 L_w)^K; half-integer powers are not offered.

Time derivatives are computed analytically on the spectrum,

    t d/dt [(t^2 lam)^m e^{-t^2 lam}] = (2m (t^2 lam)^m - 2 (t^2 lam)^{m+1}) e^{-t^2 lam},
    t d/dt [(t s)^{2K} e^{-t s}]      = (2K (t s)^{2K} - (t s)^{2K+1}) e^{-t s},  s = sqrt(lam),

so the m = 0 heat identity t d_t e^{-t^2 L_w} f = -2 (t^2 L_w) e^{-t^2 L_w} f
holds exactly at the coefficient level; spatial gradients use centered
periodic differences on the evaluated field.

The four factors above are the multiplier table.  Every evaluator projects
f once and applies each factor it needs in one reconstruction (one
product per parity block of the operator), at a single time (a field of
M cells) or at a 1-D array of J times, such as all ladder nodes (a (J, M)
block).

The Poisson semigroup also has a quadrature path through the subordination
formula

    e^{-t sqrt(L_w)} f = (1/sqrt(pi)) int_0^inf e^{-u} u^{1/2} e^{-(t^2/4u) L_w} f du/u,

integrated in v = log u (the du/u measure becomes dv) over a symmetric
interval that grows until the result stops moving at tolerance 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .mesh import Grid
from .operator import SpectralOperator

__all__ = [
    "TimeLadder",
    "GradField",
    "QuadratureError",
    "ORDER_CAP",
    "LADDER_CAP",
    "LADDER_START_DIVISOR",
    "heat_eval",
    "grad_eval",
    "poisson_eval",
    "poisson_grad_eval",
    "poisson_scalar",
    "subordination_factors",
    "centered_gradient",
]

ORDER_CAP = 4
# most time nodes a ladder may have; the longest ladder any suite uses has
# 209 (the modal ladder at N = 128 in dim 1)
LADDER_CAP = 4096
# the default ladder starts a quarter cell up, at h / LADDER_START_DIVISOR;
# suite reports name the rule as "h/<divisor>"
LADDER_START_DIVISOR = 4
SUBORDINATION_TOL = 1e-10


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
    def geometric(cls, t_min: float, t_max: float, ratio: float) -> "TimeLadder":
        return cls(float(t_min), float(t_max), float(ratio))

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


def heat_factor(lam: NDArray, m: int, t: float | NDArray) -> NDArray:
    """(t^2 lam)^m e^{-t^2 lam} (0^0 = 1, so m = 0 fixes the kernel mode)."""
    x = (t * t) * np.asarray(lam, float)
    return x**m * np.exp(-x)


def heat_time_factor(lam: NDArray, m: int, t: float | NDArray) -> NDArray:
    x = (t * t) * np.asarray(lam, float)
    return (2 * m * x**m - 2 * x ** (m + 1)) * np.exp(-x)


def poisson_factor(lam: NDArray, big_k: int, t: float | NDArray) -> NDArray:
    """(t sqrt(lam))^{2K} e^{-t sqrt(lam)} via (t^2 lam)^K."""
    lam = np.asarray(lam, float)
    y = t * np.sqrt(lam)
    return ((t * t) * lam) ** big_k * np.exp(-y)


def poisson_time_factor(lam: NDArray, big_k: int, t: float | NDArray) -> NDArray:
    lam = np.asarray(lam, float)
    y = t * np.sqrt(lam)
    y2k = ((t * t) * lam) ** big_k
    return (2 * big_k * y2k - y2k * y) * np.exp(-y)


def _multiplier_images(
    op: SpectralOperator, order: int, t: float | NDArray, f: NDArray, factors
) -> list[NDArray]:
    """sum_k factor(lam_k, order, t) c_k phi_k for each factor, c = project(f).

    f is projected once.  t is one time or a 1-D array of J times; each
    image is then one reconstruction of factor * c, of shape (M,) or (J, M)."""
    if not (0 <= int(order) == order and order <= ORDER_CAP):
        raise ValueError(f"power must be an integer in [0, {ORDER_CAP}], got {order}")
    t = np.asarray(t, float)
    if t.ndim > 1:
        raise ValueError(f"times must be a scalar or a 1-D array, got shape {t.shape}")
    if np.any(t < 0):
        raise ValueError(f"time must be nonnegative, got {np.min(t)}")
    coeffs = op.project(np.asarray(f, float))
    return [op.reconstruct(factor(op.eigenvalues, order, t[..., None]) * coeffs)
            for factor in factors]


def heat_eval(op: SpectralOperator, m: int, t: float | NDArray, f: NDArray) -> NDArray:
    """(t^2 L_w)^m e^{-t^2 L_w} f at one time (M,) or at each of J times (J, M)."""
    return _multiplier_images(op, m, t, f, (heat_factor,))[0]


@dataclass(frozen=True)
class GradField:
    """t grad_{y,t} of a semigroup power: spatial part (dim, cells) already
    scaled by t, time part t d_t as a scalar field (cells).  Evaluated at J
    times the shapes are (dim, J, cells) and (J, cells)."""

    spatial: NDArray = field(repr=False)
    time: NDArray = field(repr=False)

    def norm_sq(self) -> NDArray:
        return np.sum(self.spatial**2, axis=0) + self.time**2

    def norm(self) -> NDArray:
        return np.sqrt(self.norm_sq())


def centered_gradient(grid: Grid, u: NDArray) -> NDArray:
    """Centered periodic differences along the last (cell) axis, one
    leading row per grid axis: (cells,) -> (dim, cells), (J, cells) ->
    (dim, J, cells)."""
    u = np.asarray(u, float)
    return np.stack([
        (u[..., grid.shift_perm(axis, 1)] - u[..., grid.shift_perm(axis, -1)])
        / (2 * grid.h)
        for axis in range(grid.dim)
    ])


def _grad_field(op: SpectralOperator, t: float | NDArray, u: NDArray, du_t: NDArray
                ) -> GradField:
    t_col = np.asarray(t, float)[..., None]
    return GradField(spatial=t_col * centered_gradient(op.grid, u), time=du_t)


def grad_eval(op: SpectralOperator, m: int, t: float | NDArray, f: NDArray) -> GradField:
    u, du_t = _multiplier_images(op, m, t, f, (heat_factor, heat_time_factor))
    return _grad_field(op, t, u, du_t)


class QuadratureError(RuntimeError):
    """Subordination quadrature failed to settle; carries the residual."""

    def __init__(self, residual: float, message: str):
        super().__init__(f"{message} (achieved residual {residual:.3e})")
        self.residual = residual


def subordination_factors(
    lam: NDArray, t: float, tol: float = SUBORDINATION_TOL
) -> NDArray:
    """e^{-t sqrt(lam)} computed from the subordination integral.

    Integrates (1/sqrt(pi)) e^{-u} u^{1/2} e^{-(t^2/4u) lam} du/u in
    v = log u over [-V, V], doubling V until two consecutive answers
    agree within tol."""
    # imported on first use, so commands without subordination load no scipy
    import scipy.integrate

    lam = np.atleast_1d(np.asarray(lam, float))
    if t == 0:
        return np.ones_like(lam)

    def integrand(v: float) -> NDArray:
        u = math.exp(v)
        return np.exp(-u + 0.5 * v - (t * t / (4 * u)) * lam) / math.sqrt(math.pi)

    prev: NDArray | None = None
    residual = math.inf
    v_half = 24.0
    while v_half <= 120.0:
        val, err = scipy.integrate.quad_vec(
            integrand, -v_half, v_half, epsabs=tol, epsrel=tol
        )
        if prev is not None:
            residual = float(np.max(np.abs(val - prev)))
            if residual <= tol and err <= 10 * tol:
                return val
        prev = val
        v_half *= 2
    raise QuadratureError(residual, "subordination interval growth did not converge")


def _subordinated_factor(lam: NDArray, big_k: int, t: NDArray) -> NDArray:
    """poisson_factor with e^{-t sqrt(lam)} from one quadrature per time;
    t is (1,) or (J, 1) as the multiplier core passes it."""
    semigroup = np.stack([subordination_factors(lam, s) for s in t.ravel()])
    return ((t * t) * lam) ** big_k * semigroup.reshape(t.shape[:-1] + lam.shape)


_POISSON_METHODS = {"spectral": poisson_factor, "subordination": _subordinated_factor}


def poisson_eval(
    op: SpectralOperator,
    big_k: int,
    t: float | NDArray,
    f: NDArray,
    method: str = "spectral",
) -> NDArray:
    """(t sqrt(L_w))^{2K} e^{-t sqrt(L_w)} f at one time (M,) or at each of
    J times (J, M), by the closed-form spectrum or by subordination."""
    if method not in _POISSON_METHODS:
        raise ValueError(f"unknown method {method!r}")
    return _multiplier_images(op, big_k, t, f, (_POISSON_METHODS[method],))[0]


def poisson_grad_eval(
    op: SpectralOperator, big_k: int, t: float | NDArray, f: NDArray
) -> GradField:
    u, du_t = _multiplier_images(op, big_k, t, f, (poisson_factor, poisson_time_factor))
    return _grad_field(op, t, u, du_t)


def poisson_scalar(lam: float, t: float, tol: float = SUBORDINATION_TOL) -> float:
    """Scalar subordination value, the quadrature's closed-form cross-check."""
    return float(subordination_factors(np.array([lam]), t, tol)[0])

