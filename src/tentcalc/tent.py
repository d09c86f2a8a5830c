"""Upper-half-space fields, cone and Carleson functionals, change of angle.

A field lives on grid cells x ladder nodes, F(y_i, t_j), and the measure
element at a node is w(y) h^dim ln(rho) (the dt/t weight of the geometric
ladder).  The aperture-alpha cone functional is

    A_w^alpha F(x)^2 = sum_{j, y : d(x,y) < alpha t_j} |F(y,t_j)|^2
                         w(y) h^dim ln(rho) / w(B(y, t_j)),

with the aperture-independent normalizing measure w(B(y,t_j)).  Cone
membership and the normalizing ball are both strict balls, d < t
(1 + 1e-9), which makes the p = 2 Fubini identity

    ||A_w F||^2_{L^2(w)} = sum_{j,y} |F(y,t_j)|^2 w(y) h^dim ln(rho)

hold termwise: summing w(x) h^dim over the cone slice at (y,t_j)
reproduces w(B(y,t_j)) exactly, so the normalizers cancel.

Both are evaluated on the grid's ball stencil (see mesh).  The normalizing
measures come from one `BallStencil.ball_reduce` whose row pass serves
every ladder node; divided into w(y) h^dim ln(rho), they are cached per
(grid, weight, ladder) as the field-independent factor of the integrand.
The cone sum is one `BallStencil.nested_reduce` of the integrand over the
radii alpha t_j: offset o adds the ladder suffix sum from the first node
whose strict alpha-cone contains o, and the offsets are summed by rows
and columns in an order fixed by the grid alone.  The integrand |F|^2
times the cached factor is written into one (J, M) buffer, and the
reduction takes its suffix sums in that buffer, so a cone holds one
ladder-sized array beyond its field.  `cone_from_squares` takes that
buffer of |F|^2 from its caller, who then needs no field at all;
`cone_all` squares a field's values into it.  That order is the same
for every aperture and every term is non-negative, so A^alpha <= A^beta
for alpha <= beta holds exactly in floating point.  For that reason no
FFT and no difference of prefix sums is used: either would let rounding
reverse the order.

The Carleson functional runs over the same closed ball family as the
maximal operator (all centers, dyadic radii up to 1/2), with the t-range
0 < t < r_B realized as ladder nodes strictly below r_B:

    C_{w,p0}F(x) = sup_{B contains x} ( (1/w(B)) sum_{x' in B}
                     (truncated cone at x')^{p0} w(x') h^dim )^{1/p0}.

The truncated cone at each cut is its own reverse sum over the nodes below
the cut, built from the field in its own buffer of those nodes, and the
sup over balls containing x is an exact max over the stencil offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from .mesh import TIE_SLACK, Grid, WeightModel, lp_norm, number
from .semigroup import TimeLadder

__all__ = [
    "HalfSpaceField",
    "cone_all",
    "cone_from_squares",
    "carleson_p_all",
    "fubini_norm_sq",
    "AngleReport",
    "change_of_angle_report",
]

@dataclass(frozen=True)
class HalfSpaceField:
    """F(y_i, t_j) on grid x ladder, with the weight of the half-space
    measure; values indexed (time, cell)."""

    grid: Grid
    ladder: TimeLadder
    weight: WeightModel
    values: NDArray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, float)
        expected = (self.ladder.count, self.grid.n_cells)
        if v.shape != expected:
            raise ValueError(f"field shape {v.shape}, expected {expected}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def weight_values(self) -> NDArray:
        return self.weight.sample(self.grid)

    def node_measures(self) -> NDArray:
        """w(y) h^dim ln(rho) per cell, shared by every ladder node."""
        return self.weight_values * self.grid.cell_volume * self.ladder.node_weight


@lru_cache(maxsize=16)
def _cone_factors(grid: Grid, weight: WeightModel, ladder: TimeLadder) -> NDArray:
    """(J, M) read-only array of w(y) h^dim ln(rho) / w(B(y, t_j)) over
    strict balls: the part of the cone integrand that does not depend on
    the field."""
    whn = weight.sample(grid) * grid.cell_volume
    out = grid.stencil.ball_reduce(whn, ladder.nodes, strict=True)
    np.divide(whn * ladder.node_weight, out, out=out)
    out.flags.writeable = False
    return out


def _cone_sq(grid: Grid, weight: WeightModel, ladder: TimeLadder, squares: NDArray,
             alpha: float) -> NDArray:
    """Squared aperture-alpha cone sum over the first len(squares) ladder
    nodes of the field whose |F|^2 they are: `squares` times the cached
    factors is the integrand, in that buffer, which the nested reduction
    then works in."""
    count = len(squares)
    squares *= _cone_factors(grid, weight, ladder)[:count]
    return grid.stencil.nested_reduce(squares, alpha * ladder.nodes[:count], strict=True)


def cone_from_squares(grid: Grid, weight: WeightModel, ladder: TimeLadder,
                      squares: NDArray, alpha: float = 1.0) -> NDArray:
    """A_w^alpha F at every cell, from |F|^2 on grid x ladder, (J, M); the
    sum takes `squares` as its buffer and overwrites it."""
    number("alpha", alpha, 0, open_lo=True, open_hi=True)
    return np.sqrt(_cone_sq(grid, weight, ladder, squares, alpha))


def cone_all(fld: HalfSpaceField, alpha: float = 1.0) -> NDArray:
    """A_w^alpha F at every cell."""
    return cone_from_squares(fld.grid, fld.weight, fld.ladder, np.square(fld.values), alpha)


def fubini_norm_sq(fld: HalfSpaceField) -> float:
    """sum |F|^2 w h^dim ln(rho); equals ||A_w F||^2_{L^2(w)} exactly."""
    return float(np.sum(fld.values**2 * fld.node_measures()[None, :]))


def _truncation_index(ladder: TimeLadder, r: float) -> int:
    """Number of ladder nodes with t_j strictly below r."""
    return int(np.sum(ladder.nodes < r * (1.0 - TIE_SLACK)))


def carleson_p_all(fld: HalfSpaceField, p0: float) -> NDArray:
    """C_{w,p0} F at every cell over the mesh ball family; p0 must be
    finite and > 0."""
    number("p0", p0, 0, open_lo=True, open_hi=True)
    grid = fld.grid
    whn = fld.weight_values * grid.cell_volume
    radii, vals = [], []
    for r in grid.dyadic_radii(0.5):
        j_cut = _truncation_index(fld.ladder, r)
        if j_cut == 0:
            continue
        trunc_sq = _cone_sq(grid, fld.weight, fld.ladder, np.square(fld.values[:j_cut]), 1.0)
        wb, mass = grid.stencil.ball_reduce(
            np.stack([whn, trunc_sq ** (p0 / 2) * whn]), [r]
        )[0]
        radii.append(r)
        vals.append((mass / wb) ** (1.0 / p0))
    # at each cell, the max of vals[i](c) over the closed balls B(c, radii[i])
    # containing it; 0 when no radius contributes
    if not radii:
        return np.zeros(grid.n_cells)
    return grid.stencil.nested_reduce(np.array(vals), radii, ufunc=np.maximum)


@dataclass(frozen=True)
class AngleReport:
    """Measured aperture-growth ratio with the predicted power bound."""

    ratio: float | None
    predicted_increase: float


def change_of_angle_report(
    fld: HalfSpaceField,
    alpha: float,
    beta: float,
    p: float,
    v: WeightModel,
    r: float,
    r_tilde: float,
    cones: dict[float, NDArray] | None = None,
) -> AngleReport:
    """Compare ||A^beta F|| / ||A^alpha F|| in L^p(v dw), dw the field's
    weight, with the class prediction (beta/alpha)^{n r_tilde r / p} for
    apertures 0 < alpha <= beta and class indices r, r_tilde >= 1.
    `cones` holds cone values of F already computed, by aperture."""
    number("alpha", alpha, 0, open_lo=True, open_hi=True)
    number("beta", beta, alpha, open_hi=True)
    number("r", r, 1, open_hi=True)
    number("r_tilde", r_tilde, 1, open_hi=True)
    grid = fld.grid
    cones = cones or {}

    def cone(aperture: float) -> NDArray:
        return cones[aperture] if aperture in cones else cone_all(fld, aperture)

    norm_a = lp_norm(cone(alpha), p, v, fld.weight, grid)
    norm_b = lp_norm(cone(beta), p, v, fld.weight, grid)
    ratio = norm_b / norm_a if norm_a > 0 else None
    return AngleReport(
        ratio=ratio, predicted_increase=(beta / alpha) ** (grid.dim * r_tilde * r / p)
    )
