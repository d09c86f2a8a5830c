"""Finite-volume assembly and spectral decomposition of L_w.

The operator is L_w f = -(1/w) div(w A grad f) on the periodic grid, with
a two-point flux per face and the arithmetic mean of w*A at the face:

    (L_w f)(x) = -(1/w(x)) sum_faces c_face (f(nb) - f(x)) / h^2,
    c_face = (w(x) A_dd(x) + w(nb) A_dd(nb)) / 2.

With that face coefficient the stencil is exactly self-adjoint for
<f, g>_w = sum f g w h^dim and positive semidefinite, with kernel the
constants.  Writing K for the stiffness matrix (so L = diag(1/w) K / h^2),
the substitution psi = sqrt(w) h^{dim/2} phi turns the generalized problem
K phi = lambda W phi into a standard symmetric one,

    diag(w^{-1/2}) (K / h^2) diag(w^{-1/2}) psi = lambda psi,

and phi_k = psi_k / (sqrt(w) h^{dim/2}) is then exactly w-orthonormal.
Only the eigendecomposition is kept; the dense L itself is never stored.

Two-point fluxes only see the diagonal of A, so `assemble` rejects
coefficient fields with off-diagonal entries rather than silently dropping
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .mesh import Grid, WeightModel

__all__ = [
    "CoefficientField",
    "SpectralOperator",
    "assemble",
    "check_dense_budget",
]

# eigenvalues below this are an assembly bug, between this and zero they
# are roundoff in the kernel and get clamped to 0
EIG_ERROR_FLOOR = -1e-8
EIG_ZERO_BAND = 1e-9

ORTHO_TOL = 1e-10

# budget of the dense eigendecomposition: M x M matrices, M <= 4096
MAX_SIDE = 128
MAX_CELLS = 4096

_N_DIRECTIONS = 16


def check_dense_budget(dim: int, n: int):
    """Reject grids outside the dense-operator budget before allocating:
    dim in {1, 2}, 4 <= n <= MAX_SIDE and n^dim <= MAX_CELLS."""
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if not 4 <= n <= MAX_SIDE or n**dim > MAX_CELLS:
        raise ValueError(f"grid size out of range: dim={dim}, n={n}")


def _unit_vectors(dim: int) -> NDArray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    theta = 2 * np.pi * np.arange(_N_DIRECTIONS) / _N_DIRECTIONS
    return np.column_stack([np.cos(theta), np.sin(theta)])


@dataclass(frozen=True)
class CoefficientField:
    """Per-cell symmetric coefficient matrices with ellipticity bounds."""

    matrices: NDArray  # (n_cells, dim, dim)
    lam_ell: float
    big_lam_ell: float

    def __post_init__(self):
        a = np.asarray(self.matrices, float)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ValueError(f"expected (cells, dim, dim) matrices, got {a.shape}")
        if not (0 < self.lam_ell <= self.big_lam_ell):
            raise ValueError(
                f"need 0 < lam_ell <= big_lam_ell, got ({self.lam_ell}, {self.big_lam_ell})"
            )
        if not np.allclose(a, np.swapaxes(a, 1, 2), atol=1e-12):
            raise ValueError("coefficient matrices must be symmetric")
        xi = _unit_vectors(a.shape[1])
        # lower bound xi.A xi >= lam |xi|^2 on the direction sample
        quad = np.einsum("kd,cde,ke->ck", xi, a, xi)
        if quad.min() < self.lam_ell - 1e-12:
            raise ValueError(
                f"ellipticity violated: min quadratic form {quad.min()} < {self.lam_ell}"
            )
        # upper bound |A xi . zeta| <= Lam for all sampled unit pairs
        bil = np.abs(np.einsum("kd,cde,je->ckj", xi, a, xi))
        if bil.max() > self.big_lam_ell + 1e-12:
            raise ValueError(
                f"boundedness violated: max bilinear form {bil.max()} > {self.big_lam_ell}"
            )
        object.__setattr__(self, "matrices", a)

    @classmethod
    def identity(cls, grid: Grid) -> "CoefficientField":
        eye = np.broadcast_to(np.eye(grid.dim), (grid.n_cells, grid.dim, grid.dim))
        return cls(eye.copy(), 1.0, 1.0)

    @classmethod
    def diagonal(cls, grid: Grid, entries) -> "CoefficientField":
        """Constant diagonal coefficients, one entry per axis."""
        d = np.asarray(entries, float)
        if d.shape != (grid.dim,):
            raise ValueError(f"need {grid.dim} diagonal entries, got shape {d.shape}")
        if np.any(d <= 0):
            raise ValueError("diagonal entries must be positive")
        mats = np.broadcast_to(np.diag(d), (grid.n_cells, grid.dim, grid.dim))
        return cls(mats.copy(), float(d.min()), float(d.max()))

    @classmethod
    def from_values(cls, matrices, lam_ell: float, big_lam_ell: float) -> "CoefficientField":
        return cls(np.asarray(matrices, float), lam_ell, big_lam_ell)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def is_diagonal(self) -> bool:
        mask = ~np.eye(self.dim, dtype=bool)
        return bool(np.all(np.abs(self.matrices[:, mask]) < 1e-14))

    def diag_entries(self) -> NDArray:
        """(n_cells, dim) array of diagonal entries."""
        return np.diagonal(self.matrices, axis1=1, axis2=2).copy()


def _stiffness(grid: Grid, coeff: CoefficientField, wv: NDArray) -> NDArray:
    """K with (K f)(x) = sum_faces c_face (f(x) - f(nb)) / h^2."""
    m = grid.n_cells
    k = np.zeros((m, m))
    diag = coeff.diag_entries()
    idx = np.arange(m)
    for axis in range(grid.dim):
        nb = grid.shift_perm(axis, 1)
        c_face = 0.5 * (wv * diag[:, axis] + wv[nb] * diag[nb, axis])
        k[idx, idx] += c_face
        k[nb, nb] += c_face
        k[idx, nb] -= c_face
        k[nb, idx] -= c_face
    return k / grid.h**2


@dataclass(frozen=True)
class SpectralOperator:
    """L_w with its w-orthonormal eigendecomposition; immutable."""

    grid: Grid
    weight: WeightModel
    coeff: CoefficientField
    eigenvalues: NDArray = field(repr=False)  # ascending, >= 0
    eigenvectors: NDArray = field(repr=False) # columns phi_k, w-orthonormal
    weight_values: NDArray = field(repr=False)

    def inner_w(self, f: NDArray, g: NDArray) -> float:
        dens = self.weight_values * self.grid.cell_volume
        return float(np.sum(f * g * dens))

    def project(self, f: NDArray) -> NDArray:
        """Coefficients c_k = <f, phi_k>_w."""
        dens = self.weight_values * self.grid.cell_volume
        return self.eigenvectors.T @ (f * dens)

    def reconstruct(self, coeffs: NDArray) -> NDArray:
        return self.eigenvectors @ coeffs


def assemble(grid: Grid, coeff: CoefficientField, w: WeightModel) -> SpectralOperator:
    """Assemble L_w and its dense w-orthonormal eigendecomposition."""
    if coeff.dim != grid.dim:
        raise ValueError(f"coefficient dim {coeff.dim} does not match grid dim {grid.dim}")
    if not coeff.is_diagonal:
        raise ValueError(
            "two-point flux assembly needs diagonal coefficients; "
            "off-diagonal entries of A are not supported"
        )
    wv = w.sample(grid)
    k = _stiffness(grid, coeff, wv)

    inv_sqrt_w = 1.0 / np.sqrt(wv)
    m_std = inv_sqrt_w[:, None] * k * inv_sqrt_w[None, :]
    m_std = 0.5 * (m_std + m_std.T)
    # imported on first use, so commands that assemble nothing load no scipy
    import scipy.linalg

    eigvals, psi = scipy.linalg.eigh(m_std)

    if eigvals.min() < EIG_ERROR_FLOOR:
        raise ValueError(
            f"assembly produced eigenvalue {eigvals.min()} < {EIG_ERROR_FLOOR}"
        )
    eigvals = eigvals.copy()
    eigvals[np.abs(eigvals) < EIG_ZERO_BAND] = 0.0

    # deterministic sign: largest-magnitude entry of each mode positive
    lead = np.argmax(np.abs(psi), axis=0)
    signs = np.sign(psi[lead, np.arange(psi.shape[1])])
    signs[signs == 0] = 1.0
    psi = psi * signs[None, :]

    phi = psi * inv_sqrt_w[:, None] / grid.cell_volume**0.5

    gram = phi.T @ (phi * (wv * grid.cell_volume)[:, None])
    resid = np.max(np.abs(gram - np.eye(grid.n_cells)))
    if resid > ORTHO_TOL:
        raise ValueError(f"w-orthonormalization residual {resid} exceeds {ORTHO_TOL}")

    return SpectralOperator(
        grid=grid,
        weight=w,
        coeff=coeff,
        eigenvalues=eigvals,
        eigenvectors=phi,
        weight_values=wv,
    )
