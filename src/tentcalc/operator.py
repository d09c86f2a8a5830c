"""Finite-volume assembly and spectral decomposition of L_w.

The operator is L_w f = -(1/w) div(w A grad f) on the periodic grid, with
A a constant positive diagonal, a two-point flux per face and the
arithmetic mean of w*A at the face:

    (L_w f)(x) = -(1/w(x)) sum_faces c_face (f(nb) - f(x)) / h^2,
    c_face = (w(x) A_dd + w(nb) A_dd) / 2.

With that face coefficient the stencil is exactly self-adjoint for
<f, g>_w = sum f g w h^dim and positive semidefinite, with kernel the
constants.  Writing K for the stiffness matrix (so L = diag(1/w) K / h^2),
the substitution psi = sqrt(w) h^{dim/2} phi turns the generalized problem
K phi = lambda W phi into a standard symmetric one,

    S psi = lambda psi,    S = diag(w^{-1/2}) (K / h^2) diag(w^{-1/2}),

and phi_k = psi_k / (sqrt(w) h^{dim/2}) is then exactly w-orthonormal.

Reflection-parity blocks.  The sampled weight must equal its mirror
image i -> N-1-i along every axis, exactly, and `assemble` rejects any
other; every `PowerWeight` does, since `Grid.origin_distances` is taken
from integer indices.  S then commutes with each of those reflections
(A is a constant diagonal, so only w could break the symmetry).  Each
axis gets the orthogonal parity transform: even part
(u_i + u_{N-1-i})/sqrt(2), odd part (u_i - u_{N-1-i})/sqrt(2), for
i < N/2; for odd N the middle cell joins the even part unscaled.  Their
Kronecker product splits S into 2^dim blocks, each assembled straight
from the stencil's O(M) nonzeros and decomposed by its own `eigh`; no
M x M array is formed.

Mode groups.  `assemble` solves S one `ModeGroup` at a time: a whole
parity block, one axis-swap part of a square block, or a block read as
the transpose of another (below).  sqrt(w) is one value on each mirror
orbit, so the
1/sqrt(w h^dim) of phi and the fold factors (1/sqrt(2), or 1 for the
middle cell) are folded into the rows of each stored basis once, at
assembly.  `project` is then the unscaled fold (u_i + u_{N-1-i},
u_i - u_{N-1-i}) of f w h^dim and one product per group, and
`reconstruct` one product per group and the unscaled sum/difference
butterflies, which may write over the coefficients.  The semigroup works
in block order throughout; only the public `project`, `reconstruct` and
`mode` use the global order.

Axis-swap split.  In dim 2, when also A = a I and the sampled weight
equals its transpose exactly, S commutes with the swap (x, y) -> (y, x).
The swap carries the (even, odd) block onto the (odd, even) block, which
therefore takes the former's eigenvalues and its basis read in
transposed local coordinates, and needs no `eigh` of its own.  The
square (even, even) and (odd, odd) blocks each split once more: the
symmetric part holds the diagonal cells u_ii and (u_ij + u_ji)/sqrt(2),
the antisymmetric part (u_ij - u_ji)/sqrt(2), for i < j, each assembled
from the stencil nonzeros, decomposed by its own `eigh` and stored as
`eigh` returns it; the block's transform takes one more unscaled fold,
over the mirror pairs (`_SwapSplit`).  The sign rule weights each part
row by its |coefficient| and reads the rows in the order of their first
cells, which is the rule of the parity block scanned in its own
coordinates, so a simple mode keeps its sign whichever way its block was
solved.  At N = 64 that is one 1024^2 and four ~512^2 `eigh`s instead
of four 1024^2, and 16 MiB of stored bases instead of 24.

Global modes are ordered by eigenvalue.  Eigenvalues whose adjacent gaps
stay within CLUSTER_RTOL * lambda_max form a cluster, and inside a cluster
modes are ordered by group, then by index within the group, so the order
and `mode(k)` do not depend on how `eigh` rounds a degenerate pair that
two blocks or two parts share.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.typing import NDArray

from .mesh import Grid, WeightModel, number

__all__ = [
    "CoefficientField",
    "ModeGroup",
    "SpectralOperator",
    "assemble",
    "check_dense_budget",
]

# floors relative to the largest eigenvalue of the block solved, so that
# assembly does not depend on the scale of A: eigenvalues below
# EIG_ERROR_FLOOR times it are an assembly bug, and those of magnitude
# below EIG_ZERO_BAND times it are roundoff in the kernel and get clamped
# to 0.  Over the grids, powers and coefficients that configs admit, the
# kernel's roundoff stays below 3.2e-16 of the largest eigenvalue and
# every other eigenvalue above 1.7e-9 of it
EIG_ERROR_FLOOR = -1e-11
EIG_ZERO_BAND = 1e-12

ORTHO_TOL = 1e-10

# adjacent eigenvalues closer than this times lambda_max share a cluster
CLUSTER_RTOL = 1e-10
# a mode's sign makes its first entry within this relative distance of
# its largest magnitude positive, so rounding cannot pick another entry
SIGN_RTOL = 1e-8

# the grid budget that configs document; no parity block has more than 1024 rows
MAX_SIDE = 128
MAX_CELLS = 4096

_HALF_SQRT = 1.0 / math.sqrt(2.0)


def check_dense_budget(dim: int, n: int):
    """Reject grids outside the dense-operator budget before allocating:
    dim in {1, 2}, 4 <= n <= MAX_SIDE and n^dim <= MAX_CELLS."""
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if not 4 <= n <= MAX_SIDE or n**dim > MAX_CELLS:
        raise ValueError(f"grid size out of range: dim={dim}, n={n}")


@dataclass(frozen=True)
class CoefficientField:
    """Constant diagonal coefficients A = diag(entries), one positive
    entry per axis; the ellipticity bounds are their min and max."""

    entries: tuple[float, ...]

    def __post_init__(self):
        text = (str, bytes)
        # a string would be read one character per axis; text entries, a
        # scalar and None are named alike
        try:
            raw = () if isinstance(self.entries, text) else tuple(self.entries)
        except TypeError:
            raw = ()
        if not raw or any(isinstance(e, text) for e in raw):
            raise ValueError(f"entries must be numbers, one per axis, got {self.entries!r}")
        d = tuple(float(number("entries", e, 0, open_lo=True, open_hi=True)) for e in raw)
        object.__setattr__(self, "entries", d)

    @classmethod
    def identity(cls, grid: Grid) -> "CoefficientField":
        return cls((1.0,) * grid.dim)

    @property
    def dim(self) -> int:
        return len(self.entries)


def _take(x: NDArray, axis: int, s: slice) -> NDArray:
    """x sliced by s along the negative axis `axis`."""
    return x[(Ellipsis, s) + (slice(None),) * (-axis - 1)]


def _fold(x: NDArray, axis: int) -> tuple[NDArray, NDArray]:
    """The unscaled (even, odd) parity parts of x along the negative axis
    `axis`: u_i + u_{N-1-i} and u_i - u_{N-1-i} for i < N/2, and for odd
    N the middle cell last in the even part."""
    n = x.shape[axis]
    h = n // 2
    lo = _take(x, axis, slice(0, h))
    hi = _take(x, axis, slice(n - 1, n - 1 - h, -1))
    shape = list(x.shape)
    shape[axis] = n - h
    even = np.empty(shape)
    np.add(lo, hi, out=_take(even, axis, slice(0, h)))
    if n % 2:
        _take(even, axis, slice(h, h + 1))[...] = _take(x, axis, slice(h, h + 1))
    return even, lo - hi


def _to_blocks(values: NDArray, n: int, dim: int) -> list[NDArray]:
    """The unscaled parity fold of a (..., M) stack: one array per block,
    a stack of grids in the block's local coordinates.  Blocks run over
    the parities of the axes, even first, axis 0 major."""
    parts = [values.reshape(values.shape[:-1] + (n,) * dim)]
    for axis in range(-dim, 0):
        parts = [half for p in parts for half in _fold(p, axis)]
    return parts


def _unfold_pair_into(even: NDArray, odd: NDArray, region: NDArray):
    """Inverse of the unscaled fold along the last axis: the grid stack
    `region` (..., n) whose last-axis parts are the grids `even` and
    `odd`, each already divided by its fold factors, written by one
    sum/difference butterfly with the odd part reversed onto its mirror
    cells; for odd n the middle cell is the even part's last."""
    n = region.shape[-1]
    h = n // 2
    lo, hi = slice(0, h), slice(n - 1, n - 1 - h, -1)
    np.add(even[..., lo], odd, out=region[..., lo])
    np.subtract(even[..., lo], odd, out=region[..., hi])
    region[..., h:n - h] = even[..., h:n - h]


def _unfold_leading(out: NDArray, dim: int, scratch: NDArray):
    """Inverse of the unscaled fold along every leading axis of `out`, a
    (..., n, ..., n) grid stack already unfolded along its last axis: one
    butterfly in place per axis, its differences held in `scratch`, a
    flat buffer of at least half of `out`."""
    n = out.shape[-1]
    h = n // 2
    lo, hi = slice(0, h), slice(n - 1, n - 1 - h, -1)
    for axis in range(-dim, -1):
        x, y = _take(out, axis, lo), _take(out, axis, hi)
        diff = np.subtract(x, y, out=scratch[: x.size].reshape(x.shape))
        x += y
        y[...] = diff


def _block_maps(n: int, dim: int) -> list[tuple[NDArray, NDArray, int]]:
    """(coefficient, block-local index) of every cell in each block, and
    the block size: row r of block b is the sum over cells x with
    local[x] = r of coefficient[x] u(x), the orthonormal parity transform.
    Read off `_fold` applied to the 1-D identity, each local index scaled
    by its fold factor (1/sqrt(2), or 1 for the middle cell), so the
    assembly and the transform share one definition."""
    maps = []
    for part in _fold(np.eye(n), -1):  # part[i, q]: weight of cell i in local index q
        part = part / np.linalg.norm(part, axis=0)
        local = np.argmax(np.abs(part), axis=1)
        maps.append((part[np.arange(n), local], local, part.shape[1]))
    out = []
    for combo in itertools.product(maps, repeat=dim):
        coef, local, size = np.ones(1), np.zeros(1, dtype=int), 1
        for c, q, m in combo:
            coef = np.multiply.outer(coef, c).ravel()
            local = np.add.outer(local * m, q).ravel()
            size *= m
        out.append((coef, local, size))
    return out


def _scaled_stencil(grid: Grid, coeff: CoefficientField, wv: NDArray):
    """Nonzeros (rows, cols, values) of S = W^{-1/2} (K / h^2) W^{-1/2}."""
    idx = np.arange(grid.n_cells)
    isw = 1.0 / np.sqrt(wv)
    rows, cols, vals = [], [], []
    for axis, a in enumerate(coeff.entries):
        nb = grid.shift_perm(axis, 1)
        c_face = 0.5 * (wv * a + wv[nb] * a) / grid.h**2
        off = -c_face * isw * isw[nb]
        rows += [idx, nb, idx, nb]
        cols += [idx, nb, nb, idx]
        vals += [c_face * isw * isw, c_face * isw[nb] * isw[nb], off, off]
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _swap_maps(m: int) -> list[tuple[NDArray, NDArray, int]]:
    """(coefficient, sub-block index) of every cell of an m x m block grid
    in its axis-swap parts, and their sizes: the symmetric part holds u_ii
    and (u_ij + u_ji)/sqrt(2), the antisymmetric part (u_ij - u_ji)/sqrt(2),
    for i < j, each numbered row-major over (i, j).  Diagonal cells have
    coefficient 0 in the antisymmetric part."""
    i, j = np.divmod(np.arange(m * m), m)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    # pairs whose first index is below lo: sum over k < lo of (m - k) or (m - k - 1)
    before = lo * (lo - 1) // 2
    sym = (np.where(i == j, 1.0, _HALF_SQRT), lo * m - before + hi - lo, m * (m + 1) // 2)
    anti = (np.sign(j - i) * _HALF_SQRT,
            np.maximum(lo * (m - 1) - before + hi - lo - 1, 0), m * (m - 1) // 2)
    return [sym, anti]


class _Whole:
    """The layout of a group that is a whole parity block: its stored rows
    run row-major over `shape` and are read as the block's grid with the
    axes `axes` swapped.  (-1, -1) swaps none; the transposed copy of a
    block swaps the last two."""

    def __init__(self, shape: tuple[int, ...], axes: tuple[int, int] = (-1, -1)):
        self.shape, self.axes, self.size = shape, axes, math.prod(shape)

    def fold(self, grid: NDArray) -> list[NDArray]:
        """The group's rows of a stack of the block's grids."""
        return [grid.swapaxes(*self.axes).reshape(grid.shape[:-len(self.shape)] + (self.size,))]

    def products_into(self, coeffs: NDArray, bases: list[NDArray], out: NDArray) -> NDArray:
        """The products with the group's basis into `out`, read as grids."""
        np.matmul(coeffs, bases[0].T, out=out)
        return out.reshape(out.shape[:-1] + self.shape).swapaxes(*self.axes)


class _SwapSplit:
    """The layout of a square m x m block grid in its two axis-swap
    groups, read off `_swap_maps`; one per side per process.  The rows of
    each part run in the row-major order of their first cells, `firsts`,
    where the coefficient is positive: the cells i <= j, then the pairs'
    cells (i, j), i < j.  `lower` holds the pairs' cells (j, i),
    `pair_rows` their symmetric rows, and `unfold` each cell's column in
    [symmetric rows, pair sums, pair differences]."""

    def __init__(self, m: int):
        (_, sym_q, self.n_sym), (_, _, self.n_pairs) = _swap_maps(m)
        i, j = np.divmod(np.arange(m * m), m)
        upper = np.flatnonzero(i < j)
        self.firsts = (np.flatnonzero(i <= j), upper)
        self.lower = (upper % m) * m + upper // m
        self.pair_rows = sym_q[upper]
        self.unfold = sym_q.copy()
        self.unfold[upper] = self.n_sym + np.arange(self.n_pairs)
        self.unfold[self.lower] = self.n_sym + self.n_pairs + np.arange(self.n_pairs)
        self.shape, self.size = (m, m), m * m

    def fold(self, grid: NDArray) -> list[NDArray]:
        """The unscaled axis-swap fold of a stack of block grids: the rows
        (g_ii, g_ij + g_ji) of the symmetric part and g_ij - g_ji."""
        g = grid.reshape(grid.shape[:-2] + (self.size,))
        cells, upper = self.firsts
        sym = g[..., cells]
        low = g[..., self.lower]
        sym[..., self.pair_rows] += low
        anti = g[..., upper]
        anti -= low
        return [sym, anti]

    def products_into(self, coeffs: NDArray, bases: list[NDArray], out: NDArray) -> NDArray:
        """One product per part, symmetric modes first, then u_ii = s_ii,
        u_ij = s_ij + a_ij, u_ji = s_ij - a_ij into `out`, read as grids:
        the symmetric products, the pair sums and the pair differences lie
        side by side in one buffer, and one gather puts each cell in place."""
        sym, anti = bases
        n_sym, n_pairs = self.n_sym, self.n_pairs
        packed = np.empty(coeffs.shape[:-1] + (n_sym + 2 * n_pairs,))
        s = np.matmul(coeffs[..., :n_sym], sym.T, out=packed[..., :n_sym])
        a = np.matmul(coeffs[..., n_sym:], anti.T, out=packed[..., n_sym:n_sym + n_pairs])
        pairs = s[..., self.pair_rows]
        np.subtract(pairs, a, out=packed[..., n_sym + n_pairs:])
        a += pairs
        del pairs
        np.take(packed, self.unfold, axis=-1, out=out, mode="clip")
        return out.reshape(out.shape[:-1] + self.shape)


_swap_split = lru_cache(maxsize=8)(_SwapSplit)


def _block_matrix(stencil, coef: NDArray, local: NDArray, m: int) -> NDArray:
    """The m x m block of S whose row r is the sum over cells x with
    local[x] = r of coef[x] u(x), from the stencil nonzeros."""
    rows, cols, vals = stencil
    cr, cc = coef[rows], coef[cols]
    keep = (cr != 0) & (cc != 0)
    block = np.bincount(
        local[rows[keep]] * m + local[cols[keep]],
        weights=cr[keep] * vals[keep] * cc[keep],
        minlength=m * m,
    ).reshape(m, m)
    sym = np.add(block, block.T)
    sym *= 0.5
    return sym


def _block_eigh(block: NDArray) -> tuple[NDArray, NDArray]:
    """Eigenpairs of one symmetric block with every assembly check: the
    error floor, the zero band clamp (both relative to the block's largest
    eigenvalue) and orthonormality.  numpy's `eigh` is LAPACK's
    divide-and-conquer ?syevd."""
    eigvals, psi = np.linalg.eigh(block)
    top = eigvals[-1]
    if eigvals[0] < EIG_ERROR_FLOOR * top:
        raise ValueError(
            f"assembly produced eigenvalue {eigvals[0]} < {EIG_ERROR_FLOOR} "
            f"times the largest, {top}"
        )
    eigvals[np.abs(eigvals) < EIG_ZERO_BAND * top] = 0.0

    # psi is orthonormal exactly when the modes it gives are w-orthonormal
    gram = psi.T @ psi
    gram.flat[:: psi.shape[1] + 1] -= 1.0
    resid = np.max(np.abs(gram, out=gram))
    if resid > ORTHO_TOL:
        raise ValueError(f"w-orthonormalization residual {resid} exceeds {ORTHO_TOL}")
    return eigvals, psi


def _lead_rows(psi: NDArray, scale: NDArray | None = None,
               orders: tuple[NDArray | None, ...] = (None,)) -> list[NDArray]:
    """The lead row of each column of psi once per row order in `orders`:
    its first row of near-largest magnitude, the magnitudes weighted by
    the row factors `scale` (unweighted when None) and the rows read in
    the order (stored order when None).  One |psi| pass and one near-max
    mask serve every order."""
    mag = np.abs(psi)
    if scale is not None:
        mag *= scale[:, None]
    near = mag >= (1.0 - SIGN_RTOL) * mag.max(axis=0)
    del mag
    return [np.argmax(near, axis=0) if order is None
            else order[np.argmax(near[order], axis=0)] for order in orders]


def _signs(psi: NDArray, lead: NDArray) -> NDArray:
    """The deterministic sign of each column of psi: the one that makes
    its entry in its lead row positive."""
    signs = np.sign(psi[lead, np.arange(psi.shape[1])])
    signs[signs == 0] = 1.0
    return signs


@dataclass(frozen=True, eq=False)
class ModeGroup:
    """One mode group of parity block `block`: the whole block (`part`
    "block"), its swap-symmetric or antisymmetric part ("sym", "anti"), or
    the transposed copy of the block of `source` ("transposed").

    `basis` holds one column per mode, the orthonormal eigenbasis psi of
    the group's block of S with row r scaled by `rows[r]`: its fold
    factors, its |coefficient| in a swap part and 1 / sqrt(w h^dim) at its
    first cell.  The transposed copy shares its source's basis and rows.
    `eigenvalues` are a view of the operator's `block_eigenvalues`, and
    `modes` and `signs` give each column's global mode and the +-1 by which
    they differ.  `layout` maps the block's grid to its groups' rows."""

    block: int
    part: str
    eigenvalues: NDArray = field(repr=False)
    basis: NDArray = field(repr=False)
    rows: NDArray = field(repr=False)
    modes: NDArray = field(repr=False)
    signs: NDArray = field(repr=False)
    layout: _Whole | _SwapSplit = field(repr=False)
    source: ModeGroup | None = None


@dataclass(frozen=True)
class SpectralOperator:
    """L_w with its w-orthonormal eigendecomposition, kept per mode group;
    immutable.

    `eigenvalues` are in global mode order.  `groups` are the mode groups
    in block order: the parity blocks run over the parities of the axes,
    even first, axis 0 major, and a square block under the axis-swap split
    gives its symmetric, then its antisymmetric group.
    `block_eigenvalues` holds the groups' eigenvalues one group after the
    other, each in its group's column order."""

    grid: Grid
    weight: WeightModel
    coeff: CoefficientField
    eigenvalues: NDArray = field(repr=False)  # >= 0, ascending up to clusters
    weight_values: NDArray = field(repr=False)
    block_eigenvalues: NDArray = field(repr=False)
    groups: tuple[ModeGroup, ...] = field(repr=False)

    @cached_property
    def _blocks(self) -> list[tuple[_Whole | _SwapSplit, list[NDArray]]]:
        """Each parity block's layout and its groups' bases, in block order."""
        blocks = [list(gs) for _, gs in itertools.groupby(self.groups, lambda g: g.block)]
        return [(gs[0].layout, [g.basis for g in gs]) for gs in blocks]

    def project_blocks(self, f: NDArray) -> NDArray:
        """Coefficients <f, phi_k>_w of a (..., M) stack in block order,
        as `block_eigenvalues`: the unscaled fold of f w h^dim, then one
        product per group of its block's layout's fold."""
        f = np.asarray(f, float)
        grids = _to_blocks(f * (self.weight_values * self.grid.cell_volume),
                           self.grid.n_side, self.grid.dim)
        coeffs = []
        for grid, (layout, bases) in zip(grids, self._blocks):
            coeffs += map(np.matmul, layout.fold(grid), bases)
        return np.concatenate(coeffs, axis=-1)

    def reconstruct_blocks(self, coeffs: NDArray, out: NDArray | None = None) -> NDArray:
        """sum_k c_k phi_k of a (..., M) stack of coefficients in block
        order, into `out`, a new (..., M) array when None.

        The blocks are taken in pairs (2r, 2r+1) that differ in the
        last-axis parity alone: one product per group, and its block's
        layout's unfold, into one buffer as wide as the pair, then the
        last-axis butterfly straight into the pair's own grid rows of
        `out`.  Those rows are the pair's own coefficient columns, so
        `out` may be `coeffs` itself.  The leading-axis butterflies then
        take the same buffer as their scratch: in dim 2 it is about half
        of `out`."""
        coeffs = np.asarray(coeffs, float)
        n, dim = self.grid.n_side, self.grid.dim
        out = np.empty(coeffs.shape) if out is None else out
        grid_out = out.reshape(out.shape[:-1] + (n,) * dim)
        blocks = self._blocks
        stack = coeffs.shape[:-1]
        n_stack = math.prod(stack)
        buf = np.empty(n_stack * (blocks[0][0].size + blocks[1][0].size))
        # the grid rows of pair r along the leading axes: the even half
        # first, the odd half reversed onto its mirror rows
        a = n - n // 2
        halves = (slice(0, a), slice(n - 1, a - 1, -1))
        start = 0
        for r, rest in enumerate(itertools.product((0, 1), repeat=dim - 1)):
            grids, used = [], 0
            for layout, bases in blocks[2 * r:2 * r + 2]:
                v = buf[used:used + n_stack * layout.size].reshape(stack + (layout.size,))
                c = coeffs[..., start:start + layout.size]
                grids.append(layout.products_into(c, bases, v))
                start += layout.size
                used += n_stack * layout.size
            region = grid_out[(Ellipsis,) + tuple(halves[p] for p in rest) + (slice(None),)]
            _unfold_pair_into(*grids, region)
        _unfold_leading(grid_out, dim, buf)
        return out

    def _mode_order(self) -> tuple[NDArray, NDArray]:
        """The global index and the sign of every mode in block order."""
        return (np.concatenate([g.modes for g in self.groups]),
                np.concatenate([g.signs for g in self.groups]))

    def project(self, f: NDArray) -> NDArray:
        """Coefficients c_k = <f, phi_k>_w of a (..., M) stack, in global
        mode order."""
        blocks = self.project_blocks(f)
        modes, signs = self._mode_order()
        coeffs = np.empty(blocks.shape)
        coeffs[..., modes] = blocks * signs
        return coeffs

    def reconstruct(self, coeffs: NDArray) -> NDArray:
        """sum_k c_k phi_k of a (..., M) stack of coefficients in global
        mode order."""
        modes, signs = self._mode_order()
        return self.reconstruct_blocks(np.asarray(coeffs, float)[..., modes] * signs)

    def mode(self, k: int) -> NDArray:
        """The eigenmode phi_k at every cell, for an integer k in [0, M)."""
        number("k", k, 0, self.grid.n_cells - 1, integer=True)
        unit = np.zeros(self.grid.n_cells)
        unit[k] = 1.0
        return self.reconstruct(unit)


def assemble(grid: Grid, coeff: CoefficientField, w: WeightModel) -> SpectralOperator:
    """Assemble L_w and its w-orthonormal eigendecomposition, one `eigh`
    per mode group that is not a transposed copy.  A grid outside
    `check_dense_budget` is rejected before anything is allocated."""
    check_dense_budget(grid.dim, grid.n_side)
    if coeff.dim != grid.dim:
        raise ValueError(f"coefficient dim {coeff.dim} does not match grid dim {grid.dim}")
    n = grid.n_side
    wv = w.sample(grid)
    w_grid = wv.reshape((n,) * grid.dim)
    if not all(np.array_equal(w_grid, np.flip(w_grid, axis=a)) for a in range(grid.dim)):
        raise ValueError("weight samples must be mirror-symmetric along every axis")

    # A = a I and w(x, y) = w(y, x) make S commute with the axis swap too
    swap = grid.dim == 2 and len(set(coeff.entries)) == 1 and np.array_equal(w_grid, w_grid.T)
    stencil = _scaled_stencil(grid, coeff, wv)
    h = n // 2
    density_root = np.sqrt(wv * grid.cell_volume)
    parts = []  # (block, part, eigenvalues, basis, rows, signs, layout) per group
    for b, (coef, local, m) in enumerate(_block_maps(n, grid.dim)):
        if swap and b == 2:
            continue  # the transposed copy of block 1, added with it
        # to block coordinates of the unscaled fold: every cell of a mirror
        # orbit gives its row the same factor, since w is equal on the orbit
        rows = np.empty(m)
        rows[local] = np.abs(coef) / density_root
        if swap and b in (0, 3):
            split = _swap_split(n - h if b == 0 else h)
            maps = zip(("sym", "anti"), _swap_maps(split.shape[0]), split.firsts)
            for part, (c, q, size), first in maps:
                scale = np.abs(c[first])
                eigvals, psi = _block_eigh(_block_matrix(stencil, coef * c[local], q[local], size))
                psi *= _signs(psi, *_lead_rows(psi, scale))
                part_rows = scale * rows[first]
                psi *= part_rows[:, None]
                parts.append((b, part, eigvals, psi, part_rows, np.broadcast_to(1.0, size), split))
            continue
        shape = tuple(h if b >> (grid.dim - 1 - k) & 1 else n - h for k in range(grid.dim))
        eigvals, psi = _block_eigh(_block_matrix(stencil, coef, local, m))
        # the swap carries (even, odd) onto (odd, even): the same spectrum
        # and basis, in transposed local coordinates; only the sign rule,
        # read in that block's row order, is its own
        orders = (None, np.arange(m).reshape(shape).T.ravel()) if swap else (None,)
        lead, *transposed_lead = _lead_rows(psi, orders=orders)
        psi *= _signs(psi, lead)
        psi *= rows[:, None]
        parts.append((b, "block", eigvals, psi, rows, np.broadcast_to(1.0, m), _Whole(shape)))
        if swap:
            parts.append((2, "transposed", eigvals, psi, rows, _signs(psi, transposed_lead[0]),
                          _Whole(shape, (-1, -2))))

    sizes = [eigvals.size for _, _, eigvals, *_ in parts]
    lam = np.concatenate([eigvals for _, _, eigvals, *_ in parts])
    group_id = np.repeat(np.arange(len(parts)), sizes)
    local_id = np.concatenate([np.arange(size) for size in sizes])
    order = np.lexsort((local_id, group_id, lam))
    gaps = np.diff(lam[order])
    cluster = np.concatenate([[0], np.cumsum(gaps > CLUSTER_RTOL * lam.max())])
    order = order[np.lexsort((local_id[order], group_id[order], cluster))]
    position = np.empty(lam.size, dtype=int)
    position[order] = np.arange(lam.size)
    # the records hold views of the block-order eigenvalues and positions
    groups, starts = [], np.cumsum([0] + sizes)
    for (block, part, _, basis, rows, signs, layout), s, e in zip(parts, starts, starts[1:]):
        source = groups[-1] if part == "transposed" else None
        groups.append(ModeGroup(block, part, lam[s:e], basis, rows, position[s:e], signs,
                                layout, source))

    return SpectralOperator(grid=grid, weight=w, coeff=coeff, eigenvalues=lam[order],
                            weight_values=wv, block_eigenvalues=lam, groups=tuple(groups))
