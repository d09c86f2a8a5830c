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

Block coordinates.  sqrt(w) is one value on each mirror orbit, so the
1/sqrt(w h^dim) of phi and the fold factors (1/sqrt(2), or 1 for the
middle cell) are folded into each block's rows once, at assembly.
`project` is then the unscaled fold (u_i + u_{N-1-i}, u_i - u_{N-1-i})
of f w h^dim and one product per block, and `reconstruct` one product
per block and the unscaled sum/difference butterflies into one array.
The semigroup works in block order throughout; only the public
`project`, `reconstruct` and `mode` use the global order.

Axis-swap split.  In dim 2, when also A = a I and the sampled weight
equals its transpose exactly, S commutes with the swap (x, y) -> (y, x).
The swap carries the (even, odd) block onto the (odd, even) block, which
therefore takes the former's eigenvalues and its basis with the rows
permuted by the local transpose, and needs no `eigh` of its own; the
basis is stored once and read in transposed coordinates.  The
square (even, even) and (odd, odd) blocks each split once more: the
symmetric part holds the diagonal cells u_ii and (u_ij + u_ji)/sqrt(2),
the antisymmetric part (u_ij - u_ji)/sqrt(2), for i < j.  Each part is
assembled from the stencil nonzeros and decomposed by its own `eigh`, and
its modes are scattered back to block coordinates, so the stored bases
stay per parity block.  The sign rule runs once per parity block in its
coordinates, so a simple mode keeps its sign whichever way its block was
solved.  At N = 64 that is one 1024^2 and four ~512^2 `eigh`s instead of
four 1024^2.  Every `eigh` is numpy's, LAPACK's divide-and-conquer
driver.

Global modes are ordered by eigenvalue.  Eigenvalues whose adjacent gaps
stay within CLUSTER_RTOL * lambda_max form a cluster, and inside a cluster
modes are ordered by block, then swap-symmetric before antisymmetric, then
by index within the block, so the order and `mode(k)` do not depend on how
`eigh` rounds a degenerate pair that two blocks or two parts share.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .mesh import Grid, WeightModel, number

__all__ = [
    "CoefficientField",
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
    _take(even, axis, slice(h, n - h))[...] = _take(x, axis, slice(h, n - h))
    return even, lo - hi


def _to_blocks(values: NDArray, n: int, dim: int) -> list[NDArray]:
    """The unscaled parity fold of a (..., M) stack: one array per block,
    a stack of grids in the block's local coordinates.  Blocks run over
    the parities of the axes, even first, axis 0 major."""
    parts = [values.reshape(values.shape[:-1] + (n,) * dim)]
    for axis in range(-dim, 0):
        parts = [half for p in parts for half in _fold(p, axis)]
    return parts


def _unfold_into(parts: list[NDArray], n: int, out: NDArray, scratch: NDArray):
    """Inverse of the unscaled fold along every axis of `out`, a
    (..., n, ..., n) grid stack: the field whose block parts are `parts`,
    grids in their blocks' local coordinates each already divided by its
    fold factors, written into `out` by sum/difference butterflies.

    The last (contiguous) axis is combined from the parts straight into
    `out`, the odd part of every leading axis reversed onto its mirror
    cells; each leading axis then takes one butterfly in place, its
    differences held in `scratch`, a flat buffer of at least half of
    `out` that the parts may share."""
    dim = len(parts).bit_length() - 1
    h = n // 2
    a = n - h
    lo, hi = slice(0, h), slice(n - 1, n - 1 - h, -1)
    halves = (slice(0, a), slice(n - 1, a - 1, -1))
    for r, rest in enumerate(itertools.product((0, 1), repeat=dim - 1)):
        even, odd = parts[2 * r], parts[2 * r + 1]
        region = out[(Ellipsis,) + tuple(halves[p] for p in rest) + (slice(None),)]
        np.add(even[..., lo], odd, out=region[..., lo])
        np.subtract(even[..., lo], odd, out=region[..., hi])
        region[..., h:a] = even[..., h:a]
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
    return 0.5 * (block + block.T)


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
    resid = np.max(np.abs(psi.T @ psi - np.eye(psi.shape[1])))
    if resid > ORTHO_TOL:
        raise ValueError(f"w-orthonormalization residual {resid} exceeds {ORTHO_TOL}")
    return eigvals, psi


def _swap_eigh(stencil, coef: NDArray, local: NDArray, side: int):
    """Eigenpairs of a square parity block (side x side local grid) from
    one `_block_eigh` per axis-swap part, with the modes scattered back to
    block coordinates: the symmetric part's modes first, each part in
    ascending order."""
    lams, psis = [], []
    for c, q, size in _swap_maps(side):
        lam, psi = _block_eigh(_block_matrix(stencil, coef * c[local], q[local], size))
        lams.append(lam)
        psis.append(c[:, None] * psi[q])
    return np.concatenate(lams), np.hstack(psis)


def _signs(psi: NDArray) -> NDArray:
    """The deterministic sign of each column of psi: the one that makes
    its first entry of near-largest magnitude positive."""
    mag = np.abs(psi)
    lead = np.argmax(mag >= (1.0 - SIGN_RTOL) * mag.max(axis=0), axis=0)
    signs = np.sign(psi[lead, np.arange(psi.shape[1])])
    signs[signs == 0] = 1.0
    return signs


@dataclass(frozen=True)
class SpectralOperator:
    """L_w with its w-orthonormal eigendecomposition, kept per parity
    block; immutable.

    `eigenvalues` are in global mode order.  Block b holds its modes in
    block coordinates, `block_vectors[b]`, one column per mode: the
    orthonormal eigenbasis psi_b of its block of S with each row r scaled
    by fold_r / sqrt(w_r h^dim), where fold_r is the product of the fold
    factors (1/sqrt(2), or 1 for the middle cell at odd N).  w is exactly
    mirror-symmetric, so it is one value on each mirror orbit, and the
    unscaled fold maps a field to these coordinates.  `block_eigenvalues`
    holds the blocks' eigenvalues one block after the other, each in its
    block's column order, and `block_modes[b]` gives the global index of
    each mode of block b.  With the axis-swap split (`swap`), the
    (odd, even) block holds the (even, odd) basis itself, read in
    transposed local coordinates, and its modes differ from that basis
    by `mode_signs` (+-1 per mode in block order, 1 outside that block),
    which only the global-order methods apply."""

    grid: Grid
    weight: WeightModel
    coeff: CoefficientField
    eigenvalues: NDArray = field(repr=False)  # >= 0, ascending up to clusters
    weight_values: NDArray = field(repr=False)
    swap: bool
    block_vectors: tuple[NDArray, ...] = field(repr=False)
    block_eigenvalues: NDArray = field(repr=False)
    block_modes: tuple[NDArray, ...] = field(repr=False)
    mode_signs: NDArray = field(repr=False)

    def _grids(self, parts: list[NDArray]) -> list[NDArray]:
        """Block parts (..., m_b) as grids in each block's local
        coordinates; the (odd, even) part of a swap split is transposed
        from the (even, odd) layout."""
        n, h = self.grid.n_side, self.grid.n_side // 2
        shapes = itertools.product((n - h, h), repeat=self.grid.dim)
        grids = [p.reshape(p.shape[:-1] + shape) for p, shape in zip(parts, shapes)]
        if self.swap:
            grids[2] = parts[2].reshape(parts[2].shape[:-1] + (n - h, h)).swapaxes(-1, -2)
        return grids

    def project_blocks(self, f: NDArray) -> NDArray:
        """Coefficients <f, phi_k>_w of a (..., M) stack in block order,
        as `block_eigenvalues`: the unscaled fold of f w h^dim, then one
        product per block."""
        f = np.asarray(f, float)
        grids = _to_blocks(f * (self.weight_values * self.grid.cell_volume),
                           self.grid.n_side, self.grid.dim)
        if self.swap:
            grids[2] = grids[2].swapaxes(-1, -2)
        return np.concatenate([g.reshape(f.shape[:-1] + (-1,)) @ phi
                               for g, phi in zip(grids, self.block_vectors)], axis=-1)

    def reconstruct_blocks(self, coeffs: NDArray, out: NDArray | None = None) -> NDArray:
        """sum_k c_k phi_k of a (..., M) stack of coefficients in block
        order: one product per block into one buffer, then the unscaled
        butterflies into `out`, a new (..., M) array when None.  `out` may
        be `coeffs` itself, which the products have read by then."""
        coeffs = np.asarray(coeffs, float)
        cuts = np.cumsum([phi.shape[1] for phi in self.block_vectors])[:-1]
        values = np.empty(coeffs.shape)
        parts = [np.matmul(c, phi.T, out=v) for c, v, phi in zip(
            np.split(coeffs, cuts, axis=-1), np.split(values, cuts, axis=-1),
            self.block_vectors)]
        out = np.empty(coeffs.shape) if out is None else out
        n = self.grid.n_side
        _unfold_into(self._grids(parts), n, out.reshape(out.shape[:-1] + (n,) * self.grid.dim),
                     values.reshape(-1))
        return out

    def project(self, f: NDArray) -> NDArray:
        """Coefficients c_k = <f, phi_k>_w of a (..., M) stack, in global
        mode order."""
        blocks = self.project_blocks(f)
        coeffs = np.empty(blocks.shape)
        coeffs[..., np.concatenate(self.block_modes)] = blocks * self.mode_signs
        return coeffs

    def reconstruct(self, coeffs: NDArray) -> NDArray:
        """sum_k c_k phi_k of a (..., M) stack of coefficients in global
        mode order."""
        coeffs = np.asarray(coeffs, float)
        return self.reconstruct_blocks(
            coeffs[..., np.concatenate(self.block_modes)] * self.mode_signs)

    def mode(self, k: int) -> NDArray:
        """The eigenmode phi_k at every cell."""
        unit = np.zeros(self.grid.n_cells)
        unit[k] = 1.0
        return self.reconstruct(unit)


def assemble(grid: Grid, coeff: CoefficientField, w: WeightModel) -> SpectralOperator:
    """Assemble L_w and its w-orthonormal eigendecomposition, one `eigh`
    per reflection-parity block or axis-swap part of one.  A grid outside
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
    swap = (grid.dim == 2 and len(set(coeff.entries)) == 1
            and np.array_equal(w_grid, w_grid.T))
    stencil = _scaled_stencil(grid, coeff, wv)
    h = n // 2
    maps = _block_maps(n, grid.dim)
    eigs, vectors, signs = [], [], []
    for b, (coef, local, m) in enumerate(maps):
        if swap and b == 2:
            # the swap carries (even, odd) onto (odd, even): the same
            # spectrum and basis, in transposed local coordinates; only
            # the sign rule, applied in this block's row order, is its own
            eigs.append(eigs[1])
            vectors.append(vectors[1])
            signs.append(_signs(vectors[1].reshape(n - h, h, m).transpose(1, 0, 2)
                                .reshape(m, m)))
            continue
        if swap and b in (0, 3):
            lam, psi = _swap_eigh(stencil, coef, local, n - h if b == 0 else h)
        else:
            lam, psi = _block_eigh(_block_matrix(stencil, coef, local, m))
        psi *= _signs(psi)
        eigs.append(lam)
        vectors.append(psi)
        signs.append(np.ones(m))
    # to block coordinates of the unscaled fold: every cell of a mirror
    # orbit gives its row the same factor, since w is equal on the orbit
    density_root = np.sqrt(wv * grid.cell_volume)
    for b, ((coef, local, m), phi) in enumerate(zip(maps, vectors)):
        if not (swap and b == 2):
            rows = np.empty(m)
            rows[local] = np.abs(coef) / density_root
            phi *= rows[:, None]

    lam = np.concatenate(eigs)
    block_id = np.concatenate([np.full(e.size, b) for b, e in enumerate(eigs)])
    local_id = np.concatenate([np.arange(e.size) for e in eigs])
    order = np.lexsort((local_id, block_id, lam))
    gaps = np.diff(lam[order])
    cluster = np.concatenate([[0], np.cumsum(gaps > CLUSTER_RTOL * lam.max())])
    order = order[np.lexsort((local_id[order], block_id[order], cluster))]
    position = np.empty(lam.size, dtype=int)
    position[order] = np.arange(lam.size)

    return SpectralOperator(
        grid=grid,
        weight=w,
        coeff=coeff,
        eigenvalues=lam[order],
        weight_values=wv,
        swap=swap,
        block_vectors=tuple(vectors),
        block_eigenvalues=lam,
        mode_signs=np.concatenate(signs),
        block_modes=tuple(position[block_id == b] for b in range(len(eigs))),
    )
