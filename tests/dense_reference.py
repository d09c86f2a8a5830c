"""Dense O(M^2) reference implementations of the ball-family sums and
of the operator L_w.

Independent of the ball stencil: every ball is a boolean row of the full
pairwise periodic distance matrix, and every ball sum is a matrix-vector
product.  Independent of the parity blocks: the operator is the dense
stiffness matrix K and its spectrum one dense `eigh` of
W^{-1/2} K W^{-1/2}.  Independent of the library's slice differences:
centered gradients are taken with `np.roll`.  Tests compare the library
functions against these.  Only for small grids: the matrices have M^2
entries.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from tentcalc.mesh import UNIT_WEIGHT, WeightModel

SLACK = 1e-9
LOG_SAFE = 700.0


def distance_matrix(grid) -> np.ndarray:
    """Pairwise periodic distances between cell centers, (M, M)."""
    c = grid.centers
    d2 = np.zeros((grid.n_cells, grid.n_cells))
    for d in range(grid.dim):
        delta = np.abs(c[:, None, d] - c[None, :, d])
        delta = np.minimum(delta, 1.0 - delta)
        d2 += delta**2
    return np.sqrt(d2)


def stiffness(grid, coeff, wv) -> np.ndarray:
    """K with (K f)(x) = sum_faces c_face (f(x) - f(nb)) / h^2, (M, M)."""
    m = grid.n_cells
    k = np.zeros((m, m))
    idx = np.arange(m)
    for axis, a in enumerate(coeff.entries):
        nb = grid.shift_perm(axis, 1)
        c_face = 0.5 * (wv * a + wv[nb] * a)
        k[idx, idx] += c_face
        k[nb, nb] += c_face
        k[idx, nb] -= c_face
        k[nb, idx] -= c_face
    return k / grid.h**2


def operator_matrix(op) -> np.ndarray:
    """The dense L_w = diag(1/w) K of an assembled operator, (M, M)."""
    wv = op.weight_values
    return stiffness(op.grid, op.coeff, wv) / wv[:, None]


def scaled_stiffness(grid, coeff, wv) -> np.ndarray:
    """S = W^{-1/2} K W^{-1/2}, symmetrized, (M, M): the standard symmetric
    form of L_w in the coordinates psi = sqrt(w h^dim) phi."""
    inv_sqrt_w = 1.0 / np.sqrt(wv)
    m_std = inv_sqrt_w[:, None] * stiffness(grid, coeff, wv) * inv_sqrt_w[None, :]
    return 0.5 * (m_std + m_std.T)


def dense_spectrum(grid, coeff, wv) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of L_w and the (M, M) w-orthonormal modes,
    columns phi_k, from one dense `eigh` of W^{-1/2} K W^{-1/2}."""
    lam, psi = scipy.linalg.eigh(scaled_stiffness(grid, coeff, wv))
    return lam, psi * (1.0 / np.sqrt(wv))[:, None] / grid.cell_volume**0.5


class TabulatedWeight(WeightModel):
    """A weight given by its samples on one grid size, for tests that need
    weights that are not powers."""

    def __init__(self, values):
        self.values = np.asarray(values, float)

    def sample(self, grid) -> np.ndarray:
        return self.values.copy()


def centered_gradient(grid, u) -> np.ndarray:
    """(u(x + h e_d) - u(x - h e_d)) / 2h of a (..., M) stack along each
    grid axis d, periodic by `np.roll`, (dim, ..., M)."""
    u = np.asarray(u, float)
    v = u.reshape(u.shape[:-1] + (grid.n_side,) * grid.dim)
    return np.stack([
        ((np.roll(v, -1, axis=a) - np.roll(v, 1, axis=a)) / (2 * grid.h)).reshape(u.shape)
        for a in range(-grid.dim, 0)
    ])


def spatial_part(grid, t, u) -> np.ndarray:
    """t grad_y u of an image u at one time (M,) or at J times t (J, M),
    (dim, ..., M)."""
    return np.asarray(t, float)[..., None] * centered_gradient(grid, u)


def inner_w(op, f, g) -> float:
    """<f, g>_w = sum f g w h^dim."""
    return float(np.sum(f * g * op.weight_values * op.grid.cell_volume))


def modes(op) -> np.ndarray:
    """All eigenmodes of an assembled operator as columns, (M, M)."""
    return op.reconstruct(np.eye(op.grid.n_cells)).T


def ball_mask(grid, radius: float, strict: bool = False) -> np.ndarray:
    """mask[c, y] = y in B(center c, radius), closed unless strict."""
    bound = radius * (1.0 + SLACK)
    dist = distance_matrix(grid)
    return dist < bound if strict else dist <= bound


def scatter_max(masks, vals, n_cells: int) -> np.ndarray:
    """max of vals[i][c] over the (mask i, center c) balls containing x."""
    out = np.zeros(n_cells)
    for mask, v in zip(masks, vals):
        np.maximum(out, np.where(mask, v[:, None], 0.0).max(axis=0), out=out)
    return out


def scatter_sum(masks, vals) -> np.ndarray:
    """sum over i of the ball sums of vals[i], mask i centered at x."""
    return sum(mask @ v for mask, v in zip(masks, vals))


def ball_min(values, mask) -> np.ndarray:
    return np.where(mask, values[None, :], np.inf).min(axis=1)


def ball_max(values, mask) -> np.ndarray:
    return np.where(mask, values[None, :], -np.inf).max(axis=1)


def _cone_layers(fld, alpha: float) -> np.ndarray:
    grid = fld.grid
    whn = fld.weight_values * grid.cell_volume
    layers = np.empty_like(fld.values)
    for j, t in enumerate(fld.ladder.nodes):
        norm_mask = ball_mask(grid, t, strict=True)
        payload = fld.values[j] ** 2 * whn * fld.ladder.node_weight / (norm_mask @ whn)
        layers[j] = ball_mask(grid, alpha * t, strict=True) @ payload
    return layers


def cone_all(fld, alpha: float = 1.0) -> np.ndarray:
    return np.sqrt(_cone_layers(fld, alpha).sum(axis=0))


def _cuts(fld):
    """(radius, number of nodes strictly below it) over the dyadic family."""
    for r in fld.grid.dyadic_radii(0.5):
        j_cut = int(np.sum(fld.ladder.nodes < r * (1.0 - SLACK)))
        if j_cut:
            yield r, j_cut


def carleson_p_all(fld, p0: float) -> np.ndarray:
    grid = fld.grid
    whn = fld.weight_values * grid.cell_volume
    cum = np.cumsum(_cone_layers(fld, 1.0), axis=0)
    masks, vals = [], []
    for r, j_cut in _cuts(fld):
        mask = ball_mask(grid, r)
        avg = (mask @ (cum[j_cut - 1] ** (p0 / 2) * whn)) / (mask @ whn)
        masks.append(mask)
        vals.append(avg ** (1.0 / p0))
    return scatter_max(masks, vals, grid.n_cells)


def maximal(f, grid, p0: float = 1.0, base: WeightModel = UNIT_WEIGHT) -> np.ndarray:
    mu = base.sample(grid) * grid.cell_volume
    g = np.abs(np.asarray(f, float)) ** p0 * mu
    masks = [ball_mask(grid, r) for r in grid.dyadic_radii(0.5)]
    vals = [(m @ g) / (m @ mu) for m in masks]
    return scatter_max(masks, vals, grid.n_cells) ** (1.0 / p0)


def ball_logsumexp(log_terms, mask) -> np.ndarray:
    """log of the ball sums of exp(log_terms), shifted by the ball max so
    that no exp overflows."""
    row = np.where(mask, log_terms[None, :], -np.inf)
    shift = row.max(axis=1)
    return shift + np.log(np.exp(row - shift[:, None]).sum(axis=1))


def _log_masked_avg(log_terms, mask, mass):
    return ball_logsumexp(log_terms, mask) - np.log(mass)


def class_constant(values, base, grid, family: str, index: float) -> float:
    """Max over centers x dyadic radii <= 1/4 of the defining product."""
    best = 0.0
    for r in grid.dyadic_radii(0.25):
        mask = ball_mask(grid, r)
        mass = mask @ base
        avg_v = (mask @ (values * base)) / mass
        if family == "Ap":
            if index == 1:
                per_ball = avg_v / ball_min(values, mask)
            else:
                dual = -1.0 / (index - 1.0)
                log_sigma = dual * np.log(values)
                if float(np.abs(log_sigma).max()) <= LOG_SAFE:
                    per_ball = avg_v * ((mask @ (values**dual * base)) / mass) ** (index - 1.0)
                else:
                    log_avg = _log_masked_avg(log_sigma + np.log(base), mask, mass)
                    per_ball = avg_v * np.exp((index - 1.0) * log_avg)
        elif math.isinf(index):
            per_ball = ball_max(values, mask) / avg_v
        else:
            log_pow = index * np.log(values)
            if float(np.abs(log_pow).max()) <= LOG_SAFE:
                per_ball = ((mask @ (values**index * base)) / mass) ** (1.0 / index) / avg_v
            else:
                log_avg = _log_masked_avg(log_pow + np.log(base), mask, mass)
                per_ball = np.exp(log_avg / index) / avg_v
        best = max(best, float(per_ball.max()))
    return best


def g_alpha_functional(grid, w_values, h_values, v_values, alpha, t, q) -> float:
    mask = ball_mask(grid, alpha * t, strict=True)
    whn = w_values * grid.cell_volume
    payload = np.abs(h_values) * whn / (mask @ whn)
    return float(np.sum((mask @ payload) ** (1.0 / q) * v_values * whn))
