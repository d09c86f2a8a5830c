"""Tests for finite-volume assembly and the spectral decomposition."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import operator_matrix
from tentcalc.mesh import Grid, PowerWeight, UNIT_WEIGHT
from tentcalc.operator import CoefficientField, assemble

# generalized-eigenproblem oracle, dim 1, N=8, w = |x|, A = I
# (explicit-loop stiffness, scipy.linalg.eigh(K, W))
ORACLE_EIGS_D1N8_A1 = [
    0.0,
    35.23501774071231,
    54.35917778922312,
    132.7934107310757,
    151.17648270317187,
    230.4162642364828,
    233.32148236474777,
    296.4124501488721,
]


def grad_norm_sq_w(f, grid, wv):
    """Forward-difference gradient energy with face-averaged weight,
    sum_faces 0.5(w(x)+w(nb)) ((f(nb)-f(x))/h)^2 h^dim."""
    total = 0.0
    for axis in range(grid.dim):
        nb = grid.shift_perm(axis, 1)
        w_face = 0.5 * (wv + wv[nb])
        total += np.sum(w_face * ((f[nb] - f) / grid.h) ** 2) * grid.cell_volume
    return total


class TestCoefficientField:
    def test_identity(self):
        g = Grid(2, 4)
        c = CoefficientField.identity(g)
        assert c.dim == 2
        assert c.is_diagonal
        npt.assert_allclose(c.diag_entries(), 1.0)

    def test_diagonal_bounds(self):
        g = Grid(2, 4)
        c = CoefficientField.diagonal(g, [2.0, 3.0])
        assert c.lam_ell == 2.0
        assert c.big_lam_ell == 3.0

    def test_rejects_nonsymmetric(self):
        g = Grid(2, 4)
        mats = np.tile(np.array([[1.0, 0.5], [0.2, 1.0]]), (g.n_cells, 1, 1))
        with pytest.raises(ValueError):
            CoefficientField.from_values(mats, 0.1, 2.0)

    def test_rejects_ellipticity_violation(self):
        g = Grid(2, 4)
        # eigenvalues 0.5 and 1.5, so claiming lam_ell = 1 must fail
        mats = np.tile(np.diag([0.5, 1.5]), (g.n_cells, 1, 1))
        with pytest.raises(ValueError):
            CoefficientField.from_values(mats, 1.0, 1.5)

    def test_rejects_bad_bounds(self):
        g = Grid(1, 4)
        with pytest.raises(ValueError):
            CoefficientField.diagonal(g, [-1.0])

    def test_full_symmetric_accepted_but_not_diagonal(self):
        g = Grid(2, 4)
        mats = np.tile(np.array([[2.0, 0.5], [0.5, 2.0]]), (g.n_cells, 1, 1))
        c = CoefficientField.from_values(mats, 1.0, 3.0)
        assert not c.is_diagonal


class TestAssemble:
    def test_flat_dim1_closed_form(self):
        for n in (8, 16):
            g = Grid(1, n)
            op = assemble(g, CoefficientField.identity(g), UNIT_WEIGHT)
            expected = np.sort(4 / g.h**2 * np.sin(np.pi * np.arange(n) / n) ** 2)
            npt.assert_allclose(op.eigenvalues, expected, rtol=1e-10, atol=1e-8)

    def test_weighted_dim1_frozen_oracle(self):
        g = Grid(1, 8)
        op = assemble(g, CoefficientField.identity(g), PowerWeight(1.0))
        npt.assert_allclose(op.eigenvalues, ORACLE_EIGS_D1N8_A1, rtol=1e-9, atol=1e-8)

    def test_kernel_is_constant(self):
        g = Grid(2, 8)
        op = assemble(g, CoefficientField.diagonal(g, [1.0, 2.0]), PowerWeight(0.5))
        assert op.eigenvalues[0] == 0.0
        phi0 = op.eigenvectors[:, 0]
        assert np.ptp(phi0) <= 1e-10 * np.abs(phi0).max()
        npt.assert_allclose(operator_matrix(op) @ np.ones(g.n_cells), 0.0, atol=1e-9)

    def test_orthonormality_residual(self):
        g = Grid(1, 16)
        op = assemble(g, CoefficientField.identity(g), PowerWeight(1.0))
        dens = (op.weight_values * g.cell_volume)[:, None]
        gram = op.eigenvectors.T @ (op.eigenvectors * dens)
        assert np.max(np.abs(gram - np.eye(16))) <= 1e-10

    def test_eigenvalues_nonnegative_sorted(self):
        g = Grid(2, 8)
        op = assemble(g, CoefficientField.identity(g), PowerWeight(-0.5))
        assert np.all(op.eigenvalues >= 0)
        assert np.all(np.diff(op.eigenvalues) >= -1e-9)

    def test_rejects_offdiagonal(self):
        g = Grid(2, 4)
        mats = np.tile(np.array([[2.0, 0.5], [0.5, 2.0]]), (g.n_cells, 1, 1))
        c = CoefficientField.from_values(mats, 1.0, 3.0)
        with pytest.raises(ValueError, match="diagonal"):
            assemble(g, c, UNIT_WEIGHT)

    def test_rejects_dim_mismatch(self):
        c = CoefficientField.identity(Grid(1, 8))
        with pytest.raises(ValueError):
            assemble(Grid(2, 8), c, UNIT_WEIGHT)


class TestApply:
    def test_eigenpair(self):
        g = Grid(1, 16)
        op = assemble(g, CoefficientField.identity(g), PowerWeight(1.0))
        k = 5
        got = operator_matrix(op) @ op.eigenvectors[:, k]
        npt.assert_allclose(got, op.eigenvalues[k] * op.eigenvectors[:, k], atol=1e-6)

    def test_spectral_reconstruction_matches_direct(self):
        g = Grid(1, 16)
        op = assemble(g, CoefficientField.identity(g), PowerWeight(0.5))
        rng = np.random.default_rng(42)
        f = rng.normal(size=16)
        direct = operator_matrix(op) @ f
        spectral = op.reconstruct(op.eigenvalues * op.project(f))
        npt.assert_allclose(spectral, direct, rtol=1e-8, atol=1e-8)

    def test_project_reconstruct_roundtrip(self):
        g = Grid(2, 6)
        op = assemble(g, CoefficientField.identity(g), PowerWeight(1.0))
        rng = np.random.default_rng(1)
        f = rng.normal(size=36)
        npt.assert_allclose(op.reconstruct(op.project(f)), f, rtol=1e-9, atol=1e-10)


class TestBilinearProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_symmetry(self, seed):
        g = Grid(1, 12)
        op = assemble(g, CoefficientField.identity(g), PowerWeight(0.7))
        rng = np.random.default_rng(seed)
        f, h = rng.normal(size=(2, 12))
        lmat = operator_matrix(op)
        lhs = op.inner_w(lmat @ f, h)
        rhs = op.inner_w(f, lmat @ h)
        scale = np.linalg.norm(f) * np.linalg.norm(h)
        assert abs(lhs - rhs) <= 1e-10 * max(scale, 1.0) * op.eigenvalues.max()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_nonnegativity(self, seed):
        g = Grid(2, 6)
        op = assemble(g, CoefficientField.diagonal(g, [1.0, 3.0]), PowerWeight(0.5))
        rng = np.random.default_rng(seed)
        f = rng.normal(size=36)
        assert op.inner_w(operator_matrix(op) @ f, f) >= -1e-10

    def test_garding_equality_identity_coeff(self):
        # A = I makes the flux-form energy equal the weighted gradient energy
        g = Grid(2, 8)
        w = PowerWeight(1.0)
        op = assemble(g, CoefficientField.identity(g), w)
        rng = np.random.default_rng(3)
        f = rng.normal(size=64)
        energy = op.inner_w(operator_matrix(op) @ f, f)
        grad = grad_norm_sq_w(f, g, op.weight_values)
        assert energy == pytest.approx(grad, rel=1e-10)

    def test_garding_lower_bound(self):
        g = Grid(2, 8)
        w = PowerWeight(-0.5)
        coeff = CoefficientField.diagonal(g, [2.0, 5.0])
        op = assemble(g, coeff, w)
        rng = np.random.default_rng(4)
        f = rng.normal(size=64)
        f -= f.mean()
        energy = op.inner_w(operator_matrix(op) @ f, f)
        grad = grad_norm_sq_w(f, g, op.weight_values)
        assert energy >= coeff.lam_ell * grad * (1 - 1e-10)
