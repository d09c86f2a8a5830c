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
is one translation-invariant stencil: the M cell offsets sorted by distance
(`BallStencil`, one per grid size per process).  A ball of any radius is a
prefix of that order, and a ball sum at x is the sum of the field shifted
by each offset in the prefix.  Ball sums run in orders fixed by the grid,
never as FFT convolutions or differences of prefix sums: with
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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "Grid",
    "BallStencil",
    "WeightModel",
    "PowerWeight",
    "TabulatedWeight",
    "UNIT_WEIGHT",
    "lp_norm",
    "maximal",
]

# relative slack used everywhere a continuum radius meets the discrete grid;
# breaks exact ties deterministically (toward inclusion)
TIE_SLACK = 1e-9


class Grid:
    """Periodic cell-centered grid on the unit torus; immutable."""

    def __init__(self, dim: int, n_side: int):
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        if n_side < 4:
            raise ValueError(f"need at least 4 cells per side, got {n_side}")
        self._dim = int(dim)
        self._n = int(n_side)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def n_side(self) -> int:
        return self._n

    @property
    def h(self) -> float:
        return 1.0 / self._n

    @property
    def n_cells(self) -> int:
        return self._n ** self._dim

    @property
    def cell_volume(self) -> float:
        return self.h ** self._dim

    @property
    def centers(self) -> NDArray:
        """Cell centers, shape (n_cells, dim); flat index is row-major."""
        return self._per_cell((np.arange(self._n) + 0.5) / self._n)

    def _per_cell(self, axis: NDArray) -> NDArray:
        """Per-axis values at every cell, (n_cells, dim), row-major."""
        if self._dim == 1:
            return axis[:, None]
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])

    def shift_perm(self, axis: int, step: int) -> NDArray:
        """Permutation p with p[i] = flat index of the cell shifted by
        `step` cells along `axis` (periodic); used for stencil assembly."""
        idx = np.arange(self.n_cells)
        if self._dim == 1:
            return (idx + step) % self._n
        i0, i1 = np.divmod(idx, self._n)
        if axis == 0:
            i0 = (i0 + step) % self._n
        elif axis == 1:
            i1 = (i1 + step) % self._n
        else:
            raise ValueError(f"axis out of range: {axis}")
        return i0 * self._n + i1

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

    def __repr__(self) -> str:
        return f"Grid(dim={self._dim}, n_side={self._n})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and other._dim == self._dim
            and other._n == self._n
        )

    def __hash__(self):
        return hash((self._dim, self._n))


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


# the value that nested_reduce gives offsets outside the largest ball
_IDENTITY = {np.add: 0.0, np.maximum: -np.inf}


class BallStencil:
    """The M cell offsets of a Grid sorted by periodic center distance.

    Offset k carries the periodic distance from cell 0 to cell k, taken
    per axis from integer indices as min(i, N-i)/N, so it is exactly
    mirror-symmetric (i -> N-i) and transpose-symmetric at every side; at
    sides that are powers of two it equals `Grid.distances_to` of cell 0
    bit for bit.  The sort is stable, so equal distances keep flat-index
    order.  The ball B(x, r) is x plus the offsets whose distance is at
    most r (below r for strict balls), with the 1e-9 tie slack toward
    inclusion, and is always a prefix of the order.

    `ball_reduce` and `shifts` visit offsets in this order and accumulate
    sequentially, shifting fields through a periodically doubled copy so
    that each shifted field is a strided view rather than a gather.
    `nested_reduce` sums by rows and columns of offsets instead (see
    there).

    `Grid.stencil` holds one stencil per grid size per process, shared by
    every Grid of that size, so `distances` is read-only.
    """

    def __init__(self, grid: Grid):
        n = grid.n_side
        i = np.arange(n)
        dist = np.sqrt(np.sum(grid._per_cell(np.minimum(i, n - i) / n) ** 2, axis=1))
        order = np.argsort(dist, kind="stable")
        self.distances: NDArray = dist[order]
        self.distances.flags.writeable = False
        self._shape = (n,) * grid.dim
        # nested_reduce sees a field as a plane of rows x columns, a 1-D
        # field as one row; by mirror symmetry it needs only the columns
        # 0..N/2 of the offset distances
        self._plane = (1, n) if grid.dim == 1 else (n, n)
        self._half_distances = dist.reshape(self._plane)[:, : n // 2 + 1]
        # one tuple of per-axis slices per offset; map and zip iterate in
        # C, with no Python frame per offset
        starts = np.unravel_index(order, self._shape)
        self._windows = list(
            zip(*(map(slice, a.tolist(), (a + n).tolist()) for a in starts))
        )

    def _bounds(self, radii) -> NDArray:
        radii = np.atleast_1d(np.asarray(radii, float))
        if radii.size == 0 or radii[0] <= 0:
            raise ValueError(f"ball radii must be positive, got {radii}")
        if np.any(np.diff(radii) < 0):
            raise ValueError("ball radii must be non-decreasing")
        return radii * (1.0 + TIE_SLACK)

    def counts(self, radii, strict: bool = False) -> NDArray:
        """Number of offsets in the ball of each radius (a prefix length)."""
        side = "left" if strict else "right"
        return np.searchsorted(self.distances, self._bounds(radii), side=side)

    def _tile(self, values: NDArray) -> NDArray:
        """Values reshaped to the grid and doubled along each grid axis."""
        tiled = values.reshape(values.shape[:-1] + self._shape)
        for axis in range(-len(self._shape), 0):
            tiled = np.concatenate([tiled, tiled], axis=axis)
        return tiled

    def shifts(self, values: NDArray, radius: float, strict: bool = False):
        """Yield values(x + o), shaped like values, for each offset o in
        the ball of `radius`, in stencil order."""
        values = np.asarray(values, float)
        tiled = self._tile(values)
        stop = int(self.counts(radius, strict)[0])
        for window in self._windows[:stop]:
            yield tiled[(Ellipsis, *window)].reshape(values.shape)

    def ball_reduce(
        self, values: NDArray, radii, strict: bool = False, ufunc=np.add
    ) -> NDArray:
        """out[i](x) = ufunc over y in B(x, radii[i]) of values(y).

        `values` has shape (..., M) and the result (len(radii), ..., M).
        One pass over the offsets serves every radius: the reduction for
        a larger ball continues the one for the smaller ball.
        """
        values = np.asarray(values, float)
        stops = self.counts(radii, strict)
        tiled = self._tile(values)
        acc = tiled[(Ellipsis, *self._windows[0])].copy()
        out = np.empty((stops.size, *values.shape))
        done = 1
        for i, stop in enumerate(stops.tolist()):
            for window in self._windows[done:stop]:
                ufunc(acc, tiled[(Ellipsis, *window)], out=acc)
            done = stop
            out[i] = acc.reshape(values.shape)
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
        (0, or -inf for np.maximum).  With offsets o = (a, b) in rows and
        columns of the plane, the row sums

            R_b(y) = ufunc over a of S[layer(a, b)](y_1 + a, y_2)

        take one gather per row offset a over all columns b at once, and
        out(x) = ufunc over b of R_b(x_1, x_2 + b) takes one step per
        column offset.  Ball symmetry gives R_{N-b} = R_b, so only
        b <= N/2 is built.  Rows and columns wholly outside the largest
        ball hold only the identity and are skipped, which leaves every
        result exactly as if they were reduced too.

        So the reduction tree is fixed by the grid alone, whatever the
        radii, and every leaf is one suffix value.  For non-negative
        values a suffix only grows as the layer falls, so growing the
        radii grows every leaf and, since rounding is monotone, every
        sum: monotonicity in the radii holds exactly in floating point,
        and an all-zero payload gives exact zeros.  By ball symmetry,
        ufunc = np.maximum gives at each x the sup of values[i](c) over
        all balls B(c, radii[i]) that contain x.
        """
        values = np.asarray(values, float)
        bounds = self._bounds(radii)
        if values.shape != (bounds.size, self.distances.size):
            raise ValueError(f"values shape {values.shape}: need one row per radius")
        if ufunc not in _IDENTITY:
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
            ufunc(out, doubled[b, :, b : b + n_side], out=out)
            if 2 * b != n_side:
                ufunc(out, doubled[b, :, n_side - b : 2 * n_side - b], out=out)
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


@dataclass(frozen=True)
class TabulatedWeight(WeightModel):
    """Per-cell positive samples, tied to a grid size."""

    values: tuple[float, ...]

    def __post_init__(self):
        v = np.asarray(self.values, float)
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ValueError("tabulated weight values must be finite and positive")

    def sample(self, grid: Grid) -> NDArray:
        v = np.asarray(self.values, float)
        if v.size != grid.n_cells:
            raise ValueError(
                f"tabulated weight has {v.size} values, grid has {grid.n_cells} cells"
            )
        return v.copy()


UNIT_WEIGHT = PowerWeight(0.0)


def lp_norm(
    f: NDArray,
    p: float,
    v: WeightModel,
    w: WeightModel,
    grid: Grid,
) -> float:
    """(sum |f|^p v w h^dim)^{1/p}; rejects p <= 0."""
    if p <= 0:
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
    if p0 <= 0:
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
