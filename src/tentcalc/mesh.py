"""Periodic grid geometry, weights, discrete measures and maximal operators.

The domain is the unit torus [0,1)^dim (dim 1 or 2) split into N equal cells
per side, with cell centers offset by h/2 = 1/(2N) so that no center sits on
the origin.  Distances are periodic:

    d(x, y) = min over integer shifts of |x - y + k|,    d <= sqrt(dim)/2.

Balls are sets of cells selected by center distance only, which keeps the
membership relation exactly symmetric: x in B(y, r) iff y in B(x, r).  That
symmetry is what later makes the tent-space Fubini identities exact rather
than approximate.  Closed balls use d <= r, strict balls d < r; both get a
relative tie slack of 1e-9 toward inclusion.

On the torus d(x, y) depends only on the offset y - x, so every ball family
is one translation-invariant stencil: the M cell offsets with their
distances (`BallStencil`, one per grid size per process).  Distances are
mirror-symmetric per axis, so in every column of offsets a ball holds a
symmetric interval of rows, and every ball reduction runs as a row step
and a column step over those intervals.  Ball sums run in orders fixed by
the grid, never as FFT convolutions or differences of prefix sums: with
non-negative terms, a fixed order makes every sum over a larger ball at
least the sum over a smaller one in floating point too, which the
tolerance-0 aperture-monotonicity check relies on.  Geometry memory is
O(M); no pairwise distance matrix is formed.

Weighted measures and norms use the cell quadrature

    w(S) = sum_{cells in S} w(cell) h^dim,
    ||f||_{L^p(v dw)} = (sum |f|^p v w h^dim)^{1/p},

and the maximal operator takes the sup of p0-mean ball averages over the
dyadic ball family {all centers} x {h, 2h, 4h, ..., 1/2}.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "Grid",
    "BallStencil",
    "WeightModel",
    "PowerWeight",
    "UNIT_WEIGHT",
    "lp_norm",
    "maximal",
]

# relative slack used everywhere a continuum radius meets the discrete grid;
# breaks exact ties deterministically (toward inclusion)
TIE_SLACK = 1e-9


@dataclass(frozen=True)
class Grid:
    """Periodic cell-centered grid on the unit torus; immutable."""

    dim: int
    n_side: int

    def __post_init__(self):
        for name in ("dim", "n_side"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n_side < 4:
            raise ValueError(f"need at least 4 cells per side, got {self.n_side}")

    @property
    def h(self) -> float:
        return 1.0 / self.n_side

    @property
    def n_cells(self) -> int:
        return self.n_side ** self.dim

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    @property
    def centers(self) -> NDArray:
        """Cell centers, shape (n_cells, dim); flat index is row-major."""
        return self._per_cell((np.arange(self.n_side) + 0.5) / self.n_side)

    def _per_cell(self, axis: NDArray) -> NDArray:
        """Per-axis values at every cell, (n_cells, dim), row-major."""
        if self.dim == 1:
            return axis[:, None]
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])

    def shift_perm(self, axis: int, step: int) -> NDArray:
        """Permutation p with p[i] = flat index of the cell shifted by
        `step` cells along `axis` (periodic); used for stencil assembly."""
        idx = np.arange(self.n_cells)
        if self.dim == 1:
            return (idx + step) % self.n_side
        i0, i1 = np.divmod(idx, self.n_side)
        if axis == 0:
            i0 = (i0 + step) % self.n_side
        elif axis == 1:
            i1 = (i1 + step) % self.n_side
        else:
            raise ValueError(f"axis out of range: {axis}")
        return i0 * self.n_side + i1

    def distances_to(self, point) -> NDArray:
        """Periodic distances from every cell center to `point`, (M,)."""
        delta = np.abs(self.centers - np.asarray(point, float))
        delta = np.minimum(delta, 1.0 - delta)
        return np.sqrt(np.sum(delta**2, axis=1))

    @property
    def origin_distances(self) -> NDArray:
        """Periodic distances from every cell center to the origin, (M,),
        read-only, one array per grid size per process.  Each axis offset
        is taken from integer indices, min(2i+1, 2N-2i-1)/(2N), so the
        distances are exactly mirror-symmetric (i -> N-1-i) at every side;
        at sides that are powers of two they equal `distances_to(0)` bit
        for bit."""
        return _origin_distances(self)

    @property
    def stencil(self) -> "BallStencil":
        """The ball stencil of this grid size, shared by every Grid of
        the same (dim, n_side) in the process."""
        return _stencil(self)

    def dyadic_radii(self, cap: float = 0.5) -> list[float]:
        """The radii {h, 2h, 4h, ...} up to and including `cap`."""
        radii = []
        r = self.h
        while r <= cap * (1.0 + TIE_SLACK):
            radii.append(r)
            r *= 2.0
        return radii


# Grids hash and compare by (dim, n_side), so each cache below holds one
# entry per grid size; the bound keeps a long session's geometry small.
@lru_cache(maxsize=16)
def _origin_distances(grid: Grid) -> NDArray:
    i = np.arange(grid.n_side)
    delta = grid._per_cell(np.minimum(2 * i + 1, 2 * grid.n_side - 2 * i - 1)
                           / (2 * grid.n_side))
    dist = np.sqrt(np.sum(delta**2, axis=1))
    dist.flags.writeable = False
    return dist


@lru_cache(maxsize=16)
def _stencil(grid: Grid) -> "BallStencil":
    return BallStencil(grid)


# the reductions the stencil runs, each with its identity: the value a
# ball_reduce ball starts from and nested_reduce's outside layer holds
_IDENTITY = {np.add: 0.0, np.minimum: np.inf, np.maximum: -np.inf, np.logaddexp: -np.inf}


class BallStencil:
    """The M cell offsets of a Grid with their periodic distances, and
    the two ball reductions over them.

    Offset k carries the periodic distance from cell 0 to cell k, taken
    per axis from integer indices as min(i, N-i)/N, so it is exactly
    mirror-symmetric (i -> N-i) and transpose-symmetric at every side; at
    sides that are powers of two it equals `Grid.distances_to` of cell 0
    bit for bit.  The ball B(x, r) is x plus the offsets whose distance
    is at most r (below r for strict balls), with the 1e-9 tie slack
    toward inclusion.

    Both reductions see a field as a plane of rows x columns (a 1-D field
    as one row).  A row step reduces over the row offsets a for each
    column offset b <= N/2, and `_column_step` takes those row reductions
    at column offsets b and N-b, equal by mirror symmetry.  Each
    reduction tree is fixed by the grid alone, so for non-negative values
    a larger radius only grows leaves, or fills leaves that held the
    identity; since rounding is monotone, sums are monotone in the radii
    exactly in floating point, and an all-zero input gives exact zeros.

    `Grid.stencil` holds one stencil per grid size per process, shared by
    every Grid of that size, so `offset_distances` is read-only.
    """

    def __init__(self, grid: Grid):
        n = grid.n_side
        i = np.arange(n)
        dist = np.sqrt(np.sum(grid._per_cell(np.minimum(i, n - i) / n) ** 2, axis=1))
        dist.flags.writeable = False
        self.offset_distances: NDArray = dist
        self._plane = (1, n) if grid.dim == 1 else (n, n)
        # by mirror symmetry the reductions need only the columns 0..N/2
        self._half_distances = dist.reshape(self._plane)[:, : n // 2 + 1]

    def _bounds(self, radii) -> NDArray:
        radii = np.atleast_1d(np.asarray(radii, float))
        if radii.size == 0 or not np.all(radii > 0):
            raise ValueError(f"ball radii must be positive, got {radii}")
        if np.any(np.diff(radii) < 0):
            raise ValueError("ball radii must be non-decreasing")
        return radii * (1.0 + TIE_SLACK)

    def _column_step(self, out: NDArray, part: NDArray, b: int, ufunc):
        """out = ufunc(out, part at column offset b), and at N-b too when
        that is another column; `part` is doubled along the columns so
        that each column offset is a slice."""
        n = self._plane[1]
        ufunc(out, part[..., b : b + n], out=out)
        if 0 < 2 * b < n:
            ufunc(out, part[..., n - b : 2 * n - b], out=out)

    def ball_reduce(
        self, values: NDArray, radii, strict: bool = False, ufunc=np.add
    ) -> NDArray:
        """out[i](x) = ufunc over y in B(x, radii[i]) of values(y), for
        ufunc np.add, np.minimum, np.maximum or np.logaddexp.

        `values` has shape (..., M) and the result (len(radii), ..., M).
        In column b a ball holds the row offsets |a| <= e(b), an extent
        that falls as b grows.  So one running row reduction T_k over
        a = 0, +-1, ..., +-k (rows k and N-k in one step) serves every
        radius: after step k, each ball takes T_k at its columns of
        extent k, outermost first, starting from the identity of ufunc.
        Radii with the same extents in every column share one result.
        """
        values = np.asarray(values, float)
        if ufunc not in _IDENTITY:
            raise ValueError(f"ball_reduce does not support {ufunc}")
        n_rows, n = self._plane
        # extents[i, b]: the row extent of column b in ball i, -1 outside
        bounds = self._bounds(radii)[:, None, None]
        quarter = self._half_distances[: n_rows // 2 + 1]
        inside = quarter < bounds if strict else quarter <= bounds
        extents = inside.sum(axis=1) - 1
        # radii are sorted, so radii with equal extents are neighbours
        fresh = np.r_[True, np.any(extents[1:] != extents[:-1], axis=1)]
        out = np.empty((len(extents), *values.shape))
        out[fresh] = _IDENTITY[ufunc]
        balls = out.reshape(out.shape[:-1] + self._plane)
        plane = values.reshape(values.shape[:-1] + self._plane)
        rows = np.concatenate([plane, plane], axis=-2)
        acc = np.concatenate([plane, plane], axis=-1)  # T_k, doubled
        now = acc[..., :n]
        for k in range(extents[-1, 0] + 1):
            if k:
                ufunc(now, rows[..., k : k + n_rows, :], out=now)
                if 2 * k != n_rows:
                    ufunc(now, rows[..., n_rows - k : 2 * n_rows - k, :], out=now)
                acc[..., n:] = now
            pairs = np.nonzero(fresh[:, None] & (extents == k))
            for i, b in zip(pairs[0][::-1].tolist(), pairs[1][::-1].tolist()):
                self._column_step(balls[i], acc, b, ufunc)
        for i in np.flatnonzero(~fresh).tolist():
            out[i] = out[i - 1]
        return out

    def nested_reduce(
        self, values: NDArray, radii, strict: bool = False, ufunc=np.add
    ) -> NDArray:
        """out(x) = ufunc over i and y in B(x, radii[i]) of values[i](y),
        for ufunc np.add or np.maximum.

        `values` has shape (len(radii), M).  Offset o lies in the balls
        of radii[i] for i >= layer(o), so the suffix reductions S over i
        are taken first and o contributes S[layer(o)](x + o); offsets
        outside the largest ball get an extra layer holding the identity
        (0, or -inf for np.maximum).  The row sums

            R_b(y) = ufunc over a of S[layer(a, b)](y_1 + a, y_2)

        take one gather per row offset a over all columns b at once.
        Rows and columns wholly outside the largest ball hold only the
        identity and are skipped, which leaves every result exactly as if
        they were reduced too.  For non-negative values a suffix only grows
        as its layer falls, so growing the radii grows every leaf.  By
        ball symmetry, ufunc = np.maximum gives at each x the sup of
        values[i](c) over all balls B(c, radii[i]) that contain x.
        """
        values = np.asarray(values, float)
        bounds = self._bounds(radii)
        if values.shape != (bounds.size, self.offset_distances.size):
            raise ValueError(f"values shape {values.shape}: need one row per radius")
        if ufunc not in (np.add, np.maximum):
            raise ValueError(f"nested_reduce supports np.add and np.maximum, got {ufunc}")
        layer = np.searchsorted(
            bounds, self._half_distances, side="right" if strict else "left"
        )
        inside = layer < bounds.size
        rows = np.flatnonzero(inside.any(axis=1)).tolist()
        n_cols = int(np.flatnonzero(inside.any(axis=0))[-1]) + 1
        n_rows, n_side = self._plane
        # suffix[i] = ufunc over i' >= i of values[i'], doubled along the
        # rows so that each row offset is a slice
        suffix = np.empty((bounds.size + 1, 2 * n_rows, n_side))
        suffix[-1] = _IDENTITY[ufunc]
        planes = values.reshape((bounds.size, n_rows, n_side))
        for i in range(bounds.size - 1, -1, -1):
            ufunc(suffix[i + 1, :n_rows], planes[i], out=suffix[i, :n_rows])
        suffix[:, n_rows:] = suffix[:, :n_rows]
        # the largest ball holds offset 0, so rows[0] == 0
        acc = suffix[layer[0, :n_cols], :n_rows]
        for a in rows[1:]:
            ufunc(acc, suffix[layer[a, :n_cols], a : a + n_rows], out=acc)
        doubled = np.concatenate([acc, acc], axis=-1)
        out = acc[0].copy()
        for b in range(1, n_cols):
            self._column_step(out, doubled[b], b, ufunc)
        return out.reshape(values.shape[1:])


class WeightModel:
    """A strictly positive weight sampled at cell centers."""

    def sample(self, grid: Grid) -> NDArray:
        raise NotImplementedError


@dataclass(frozen=True)
class PowerWeight(WeightModel):
    """w(x) = d(x, origin)^alpha with the periodic distance to the origin
    (`Grid.origin_distances`, so the samples are exactly mirror-symmetric).

    Centers are offset by h/2, so the value is finite and positive for any
    alpha.  Weights used to define measures and operators should keep
    alpha in (-dim, dim) (enforced at config ingestion); the class
    estimators deliberately probe values outside that interval.
    """

    alpha: float

    def sample(self, grid: Grid) -> NDArray:
        return grid.origin_distances ** float(self.alpha)


UNIT_WEIGHT = PowerWeight(0.0)


def lp_norm(
    f: NDArray,
    p: float,
    v: WeightModel,
    w: WeightModel,
    grid: Grid,
) -> float:
    """(sum |f|^p v w h^dim)^{1/p}; rejects p that is not positive (NaN too)."""
    if not p > 0:
        raise ValueError(f"lp_norm requires p > 0, got {p}")
    f = np.asarray(f, float)
    if f.shape != (grid.n_cells,):
        raise ValueError(f"expected {grid.n_cells} cell values, got shape {f.shape}")
    dens = v.sample(grid) * w.sample(grid) * grid.cell_volume
    return float(np.sum(np.abs(f) ** p * dens) ** (1.0 / p))


def maximal(
    f: NDArray,
    grid: Grid,
    p0: float = 1.0,
    base: WeightModel | None = None,
) -> NDArray:
    """Discrete maximal operator over the dyadic ball family.

    At each cell x the value is sup over balls containing x of the p0-mean
    (avg_B |f|^{p0} d(base))^{1/p0}; base None means Lebesgue measure,
    otherwise the weighted measure of the supplied WeightModel.
    """
    if not p0 > 0:
        raise ValueError(f"maximal requires p0 > 0, got {p0}")
    f = np.asarray(f, float)
    mu = np.full(grid.n_cells, grid.cell_volume)
    if base is not None:
        mu = base.sample(grid) * grid.cell_volume
    g = np.abs(f) ** p0 * mu
    radii = grid.dyadic_radii(0.5)
    sums = grid.stencil.ball_reduce(np.stack([g, mu]), radii)
    avg = sums[:, 0] / sums[:, 1]
    return grid.stencil.nested_reduce(avg, radii, ufunc=np.maximum) ** (1.0 / p0)
