"""Tests for finite-volume assembly and the spectral decomposition."""

from __future__ import annotations

import functools
import itertools
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from dense_reference import (
    TabulatedWeight,
    dense_spectrum,
    inner_w,
    modes,
    operator_matrix,
    scaled_stiffness,
)
from tentcalc import operator as operator_module
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
        assert c.entries == (1.0, 1.0)

    def test_diagonal_bounds(self):
        c = CoefficientField([2.0, 3.0])
        assert c.entries == (2.0, 3.0)

    def test_rejects_ellipticity_violation(self):
        # a zero entry leaves no lower ellipticity bound
        with pytest.raises(ValueError):
            CoefficientField([0.0, 1.5])

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            CoefficientField([-1.0])
        # the entry count is checked against the grid at assembly
        g = Grid(1, 4)
        with pytest.raises(ValueError, match="coefficient dim 2 does not match grid dim 1"):
            assemble(g, CoefficientField([1.0, 2.0]), UNIT_WEIGHT)

    @pytest.mark.parametrize("entries", ["12", b"12", ["1", "2"], [1.0, b"2"]],
                             ids=["str", "bytes", "str-items", "bytes-item"])
    def test_rejects_text_entries(self, entries):
        # a string would be read one character per axis
        with pytest.raises(ValueError, match="entries must be numbers"):
            CoefficientField(entries)

    @pytest.mark.parametrize("entries", [5, 2.0, None, np.float64(2.0)],
                             ids=["int", "float", "none", "numpy-scalar"])
    def test_rejects_non_iterable_entries(self, entries):
        with pytest.raises(ValueError, match="entries must be numbers, one per axis"):
            CoefficientField(entries)


class TestAssemble:
    @pytest.mark.parametrize("dim, n", [(1, 129), (2, 72)])
    def test_rejects_grid_past_budget_before_any_block(self, dim, n, monkeypatch):
        def refuse(*args):
            raise AssertionError("block assembled")

        monkeypatch.setattr(operator_module, "_block_matrix", refuse)
        g = Grid(dim, n)
        with pytest.raises(ValueError, match="grid size out of range"):
            assemble(g, CoefficientField.identity(g), UNIT_WEIGHT)

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
        op = assemble(g, CoefficientField([1.0, 2.0]), PowerWeight(0.5))
        assert op.eigenvalues[0] == 0.0
        phi0 = op.mode(0)
        assert np.ptp(phi0) <= 1e-10 * np.abs(phi0).max()
        npt.assert_allclose(operator_matrix(op) @ np.ones(g.n_cells), 0.0, atol=1e-9)

    def test_orthonormality_residual(self):
        g = Grid(1, 16)
        op = assemble(g, CoefficientField.identity(g), PowerWeight(1.0))
        dens = (op.weight_values * g.cell_volume)[:, None]
        phi = modes(op)
        gram = phi.T @ (phi * dens)
        assert np.max(np.abs(gram - np.eye(16))) <= 1e-10

    def test_eigenvalues_nonnegative_sorted(self):
        g = Grid(2, 8)
        op = assemble(g, CoefficientField.identity(g), PowerWeight(-0.5))
        assert np.all(op.eigenvalues >= 0)
        assert np.all(np.diff(op.eigenvalues) >= -1e-9)

    def test_rejects_dim_mismatch(self):
        c = CoefficientField.identity(Grid(1, 8))
        with pytest.raises(ValueError):
            assemble(Grid(2, 8), c, UNIT_WEIGHT)


class TestApply:
    def test_eigenpair(self):
        g = Grid(1, 16)
        op = assemble(g, CoefficientField.identity(g), PowerWeight(1.0))
        k = 5
        got = operator_matrix(op) @ op.mode(k)
        npt.assert_allclose(got, op.eigenvalues[k] * op.mode(k), atol=1e-6)

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
        lhs = inner_w(op, lmat @ f, h)
        rhs = inner_w(op, f, lmat @ h)
        scale = np.linalg.norm(f) * np.linalg.norm(h)
        assert abs(lhs - rhs) <= 1e-10 * max(scale, 1.0) * op.eigenvalues.max()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_nonnegativity(self, seed):
        g = Grid(2, 6)
        op = assemble(g, CoefficientField([1.0, 3.0]), PowerWeight(0.5))
        rng = np.random.default_rng(seed)
        f = rng.normal(size=36)
        assert inner_w(op, operator_matrix(op) @ f, f) >= -1e-10

    def test_garding_equality_identity_coeff(self):
        # A = I makes the flux-form energy equal the weighted gradient energy
        g = Grid(2, 8)
        w = PowerWeight(1.0)
        op = assemble(g, CoefficientField.identity(g), w)
        rng = np.random.default_rng(3)
        f = rng.normal(size=64)
        energy = inner_w(op, operator_matrix(op) @ f, f)
        grad = grad_norm_sq_w(f, g, op.weight_values)
        assert energy == pytest.approx(grad, rel=1e-10)

    def test_garding_lower_bound(self):
        g = Grid(2, 8)
        w = PowerWeight(-0.5)
        coeff = CoefficientField([2.0, 5.0])
        op = assemble(g, coeff, w)
        rng = np.random.default_rng(4)
        f = rng.normal(size=64)
        f -= f.mean()
        energy = inner_w(op, operator_matrix(op) @ f, f)
        grad = grad_norm_sq_w(f, g, op.weight_values)
        assert energy >= min(coeff.entries) * grad * (1 - 1e-10)


def mirrored_weight(grid, seed, axes):
    """A random tabulated weight equal to its mirror image along `axes`
    exactly (each pair of mirrored cells holds one shared value)."""
    n = grid.n_side
    w = np.random.default_rng(seed).uniform(0.5, 2.0, size=(n,) * grid.dim)
    for axis in axes:
        w = 0.5 * (w + np.flip(w, axis=axis))
    return TabulatedWeight(w.ravel())


def swap_symmetric_weight(grid, seed):
    """A random tabulated weight, mirrored along both axes and equal to
    its transpose, exactly."""
    n = grid.n_side
    w = mirrored_weight(grid, seed, [0, 1]).values.reshape(n, n)
    return TabulatedWeight((0.5 * (w + w.T)).ravel())


def blocks(op):
    """The number of parity blocks that the operator's mode groups cover."""
    return len({g.block for g in op.groups})


def swapped(op):
    """Whether the operator took the axis-swap split."""
    return any(g.part == "transposed" for g in op.groups)


def cluster_bounds(lam, rtol):
    """(start, stop) of each run of eigenvalues with gaps <= rtol * max."""
    cuts = np.flatnonzero(np.diff(lam) > rtol * lam.max()) + 1
    edges = [0, *cuts.tolist(), lam.size]
    return list(zip(edges[:-1], edges[1:]))


def assert_matches_dense(op):
    """Eigenvalues within 1e-12 lambda_max of one dense `eigh`, and equal
    spectral projectors on every group of eigenvalues cut at gaps above
    1e-6 lambda_max.

    The projector of a group is determined only to about
    eps * lambda_max / gap, in the dense `eigh` as well as in the blocks:
    a cut at 1e-8 lambda_max would let a gap of 1.65e-8 lambda_max split
    a pair whose single projectors differ by ~2e-8 between two correct
    solvers.  At a 1e-6 cut the bound is ~2e-10, well inside the 1e-8
    tolerance."""
    grid = op.grid
    lam, phi = dense_spectrum(grid, op.coeff, op.weight_values)
    scale = lam.max()
    assert np.max(np.abs(np.sort(op.eigenvalues) - lam)) <= 1e-12 * scale
    # projectors in the orthonormal coordinates psi = sqrt(w h^dim) phi
    root = np.sqrt(op.weight_values * grid.cell_volume)[:, None]
    ours = modes(op)[:, np.argsort(op.eigenvalues, kind="stable")] * root
    theirs = phi * root
    for start, stop in cluster_bounds(lam, 1e-6):
        a, b = ours[:, start:stop], theirs[:, start:stop]
        assert np.max(np.abs(a @ a.T - b @ b.T)) <= 1e-8, (start, stop)


SYMMETRIC_CASES = [
    (1, 8, PowerWeight(1.0), None),
    (1, 16, PowerWeight(-0.5), None),
    (1, 9, UNIT_WEIGHT, None),
    (2, 8, PowerWeight(1.0), None),
    (2, 8, PowerWeight(1.5), (1.0, 3.0)),
    (2, 16, PowerWeight(-1.2), (2.0, 0.5)),
    (2, 16, PowerWeight(0.0), None),
    (2, 9, UNIT_WEIGHT, (1.0, 2.0)),
]


class TestParityBlocks:
    @pytest.mark.parametrize("dim,n,weight,entries", SYMMETRIC_CASES)
    def test_symmetric_weight_splits_and_matches_dense(self, dim, n, weight, entries):
        g = Grid(dim, n)
        coeff = CoefficientField.identity(g) if entries is None \
            else CoefficientField(entries)
        op = assemble(g, coeff, weight)
        assert blocks(op) == 2**dim
        assert_matches_dense(op)

    @pytest.mark.parametrize("dim,n", [(1, 8), (1, 9), (2, 8), (2, 9)])
    def test_odd_and_even_mirrored_tabulated_weight(self, dim, n):
        g = Grid(dim, n)
        op = assemble(g, CoefficientField([1.5] * dim),
                      mirrored_weight(g, n, range(dim)))
        assert blocks(op) == 2**dim
        assert_matches_dense(op)

    @pytest.mark.parametrize("n", [8, 9])
    def test_nonsymmetric_weight_is_rejected(self, n):
        g = Grid(2, n)
        w = np.random.default_rng(5).uniform(0.5, 2.0, size=g.n_cells)
        with pytest.raises(ValueError, match="mirror-symmetric along every axis"):
            assemble(g, CoefficientField([1.0, 2.0]), TabulatedWeight(w))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_power_weight_off_power_of_two_splits(self, dim):
        # origin distances come from integer indices, so the sampled |x|
        # is exactly mirror-symmetric at N = 9 too
        g = Grid(dim, 9)
        op = assemble(g, CoefficientField([1.0, 2.0][:dim]),
                      PowerWeight(1.0))
        assert blocks(op) == 2**dim
        assert_matches_dense(op)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_weight_mirrored_along_one_axis_is_rejected(self, axis):
        g = Grid(2, 8)
        with pytest.raises(ValueError, match="mirror-symmetric along every axis"):
            assemble(g, CoefficientField.identity(g), mirrored_weight(g, 3, [axis]))

    @pytest.mark.parametrize("n", [8, 9])
    def test_project_reconstruct_stacks(self, n):
        g = Grid(2, n)
        op = assemble(g, CoefficientField.identity(g), mirrored_weight(g, 1, [0, 1]))
        f = np.random.default_rng(2).normal(size=(3, 2, g.n_cells))
        coeffs = op.project(f)
        assert coeffs.shape == f.shape
        npt.assert_allclose(op.reconstruct(coeffs), f, atol=1e-12)
        npt.assert_allclose(coeffs[1, 0], op.project(f[1, 0]), atol=1e-13)
        # c_k = <f, phi_k>_w
        phi = modes(op)
        dens = op.weight_values * g.cell_volume
        npt.assert_allclose(coeffs[0, 1], phi.T @ (f[0, 1] * dens), atol=1e-12)

    def test_clusters_ordered_by_block(self):
        # A = I in dim 2: the (even, odd) and (odd, even) blocks share
        # their spectrum, so every such pair is one cluster, in block order
        g = Grid(2, 8)
        op = assemble(g, CoefficientField.identity(g), PowerWeight(1.0))
        block_of = np.empty(g.n_cells, dtype=int)
        for group in op.groups:
            block_of[group.modes] = group.block
        lam = op.eigenvalues
        pairs = 0
        for start, stop in cluster_bounds(lam, 1e-10):
            assert np.all(np.diff(block_of[start:stop]) >= 0)
            pairs += stop - start == 2 and set(block_of[start:stop]) == {1, 2}
        assert pairs == g.n_cells // 4  # the size of each of the two blocks
        assert np.all(np.diff(lam) >= -1e-10 * lam.max())

    def test_mode_is_first_nonconstant_eigenpair(self):
        g = Grid(2, 8)
        op = assemble(g, CoefficientField.identity(g), PowerWeight(1.0))
        phi = op.mode(1)
        npt.assert_allclose(operator_matrix(op) @ phi, op.eigenvalues[1] * phi,
                            atol=1e-9 * op.eigenvalues.max())
        assert inner_w(op, phi, phi) == pytest.approx(1.0, rel=1e-12)

    @given(
        dim=st.sampled_from([1, 2]),
        n=st.sampled_from([4, 7, 8, 9, 16]),
        alpha_frac=st.floats(-0.95, 0.95),
        entries=st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
        equal=st.booleans(),
        tabulated=st.none() | st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    # two eigenvalues 1.65e-8 lambda_max apart
    @example(dim=1, n=4, alpha_frac=0.00033042853970111086, entries=(1.0, 1.0),
             equal=False, tabulated=None)
    def test_symmetric_power_weights_match_dense(self, dim, n, alpha_frac, entries, equal,
                                                 tabulated):
        # equal entries in dim 2 take the axis-swap split as well; a
        # tabulated seed draws a random weight in place of the power, with
        # the same symmetries: mirrored along every axis, and transposed
        # too when the entries are equal
        g = Grid(dim, n)
        if equal:
            entries = (entries[0],) * 2
        weight = PowerWeight(alpha_frac * dim)
        if tabulated is not None:
            weight = swap_symmetric_weight(g, tabulated) if equal and dim == 2 \
                else mirrored_weight(g, tabulated, range(dim))
        op = assemble(g, CoefficientField(entries[:dim]), weight)
        assert blocks(op) == 2**dim
        assert swapped(op) or not (equal and dim == 2)
        assert_matches_dense(op)

    @given(
        dim=st.sampled_from([1, 2]),
        n=st.sampled_from([4, 7, 8, 16]),
        alpha_frac=st.floats(-0.95, 0.95),
        entries=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
        log_scale=st.floats(-4.0, 3.5),
    )
    @settings(max_examples=30, deadline=None)
    # absolute floors failed here: eigenvalue -1.2e-8 < -1e-8 at 10^3.5 I
    @example(dim=2, n=64, alpha_frac=0.0, entries=(1.0, 1.0), log_scale=3.5)
    def test_floors_scale_with_the_operator(self, dim, n, alpha_frac, entries,
                                            log_scale):
        # A s has the eigenvalues s lam and clamps the same ones to 0
        g = Grid(dim, n)
        w = PowerWeight(alpha_frac * dim)
        s = 10.0**log_scale
        base = assemble(g, CoefficientField(entries[:dim]), w)
        scaled = assemble(g, CoefficientField([e * s for e in entries[:dim]]), w)
        lam, lam_s = np.sort(base.eigenvalues), np.sort(scaled.eigenvalues)
        assert np.max(np.abs(lam_s - s * lam)) <= 1e-12 * lam_s[-1]
        assert np.sum(lam_s == 0) == np.sum(lam == 0) == 1

    def test_assembly_allocates_no_m_by_m_array(self):
        # one float64 M x M array at M = 4096 takes 128 MiB
        g = Grid(2, 64)
        coeff = CoefficientField.identity(g)
        tracemalloc.start()
        try:
            op = assemble(g, coeff, PowerWeight(1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert blocks(op) == 4
        assert peak < 8 * g.n_cells**2


@pytest.fixture
def eigh_sizes(monkeypatch):
    """The sizes of the blocks `assemble` passes to `_block_eigh`, in order."""
    sizes = []
    real = operator_module._block_eigh

    def counted(block):
        sizes.append(block.shape[0])
        return real(block)

    monkeypatch.setattr(operator_module, "_block_eigh", counted)
    return sizes


def sign_rule(psi):
    """The sign rule on a basis read in its own row order: each column's
    first entry of near-largest magnitude is made positive."""
    mag = np.abs(psi)
    lead = np.argmax(mag >= (1.0 - operator_module.SIGN_RTOL) * mag.max(axis=0), axis=0)
    signs = np.sign(psi[lead, np.arange(psi.shape[1])])
    signs[signs == 0] = 1.0
    return signs


def scattered_swap_reference(op):
    """The square blocks of a swap-split operator as square bases in block
    coordinates, and the (odd, even) mode signs: each part solved by the
    same `eigh`, its modes scattered to the block's cells by `_swap_maps`,
    the sign rule applied to the scattered block in its row order, then
    each row scaled by its fold factors over sqrt(w h^dim).  Returns
    {block: (eigenvalues, basis)} and the (odd, even) signs, taken from the
    (even, odd) basis with its rows in transposed order."""
    g, om = op.grid, operator_module
    n, h = g.n_side, g.n_side // 2
    stencil = om._scaled_stencil(g, op.coeff, op.weight_values)
    density_root = np.sqrt(op.weight_values * g.cell_volume)
    blocks = {}
    for b, (coef, local, m) in enumerate(om._block_maps(n, 2)):
        if b == 1:
            _, psi = om._block_eigh(om._block_matrix(stencil, coef, local, m))
            psi *= sign_rule(psi)
            mirror = sign_rule(psi.reshape(n - h, h, m).transpose(1, 0, 2).reshape(m, m))
        if b not in (0, 3):
            continue
        lams, psis = [], []
        for c, q, size in om._swap_maps(n - h if b == 0 else h):
            lam, psi = om._block_eigh(om._block_matrix(stencil, coef * c[local], q[local], size))
            lams.append(lam)
            psis.append(c[:, None] * psi[q])
        psi = np.hstack(psis)
        psi *= sign_rule(psi)
        rows = np.empty(m)
        rows[local] = np.abs(coef) / density_root
        blocks[b] = np.concatenate(lams), psi * rows[:, None]
    return blocks, mirror


class TestSwapSplit:
    @pytest.fixture(scope="class")
    def traced_n64(self):
        g = Grid(2, 64)
        tracemalloc.start()
        try:
            op = assemble(g, CoefficientField.identity(g), PowerWeight(1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return op, peak

    def test_stored_bases_at_n64(self, traced_n64):
        # (odd, even) reads the (even, odd) basis; each square block keeps
        # its symmetric and antisymmetric parts, 528^2 and 496^2, and no
        # 1024^2 scatter of them
        op, _ = traced_n64
        stored = {id(g.basis): g.basis for g in op.groups}
        assert sum(p.size for p in stored.values()) <= 2 * (528**2 + 496**2) + 1024**2

    def test_assembly_traced_peak_at_n64(self, traced_n64):
        assert traced_n64[1] <= 34 * 2**20

    @pytest.mark.parametrize("n", [8, 9, 16])
    def test_parts_match_scattered_reference(self, n):
        g = Grid(2, n)
        op = assemble(g, CoefficientField.identity(g), PowerWeight(1.0))
        blocks, mirror = scattered_swap_reference(op)
        groups = {(group.block, group.part): group for group in op.groups}
        npt.assert_array_equal(groups[2, "transposed"].signs, mirror)
        n_side = {0: n - n // 2, 3: n // 2}
        for b, (lam, ref) in blocks.items():
            parts = groups[b, "sym"], groups[b, "anti"]
            npt.assert_array_equal(np.concatenate([part.eigenvalues for part in parts]), lam)
            ours = np.hstack([np.sign(c)[:, None] * part.basis[q] for (c, q, _), part in
                              zip(operator_module._swap_maps(n_side[b]), parts)])
            # the same signs, and every entry within rounding of the reference
            npt.assert_array_equal(np.sign(ours), np.sign(ref))
            npt.assert_allclose(ours, ref, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("n", [8, 9, 16])
    @pytest.mark.parametrize("a", [1.0, 2.0])
    @pytest.mark.parametrize("alpha", [-1.2, 0.0, 1.0, 1.5])
    def test_power_weights_match_dense(self, n, a, alpha, eigh_sizes):
        g = Grid(2, n)
        op = assemble(g, CoefficientField([a, a]), PowerWeight(alpha))
        assert swapped(op)
        # (even, even) and (odd, odd) in two parts each, (odd, even) derived
        assert len(eigh_sizes) == 5
        assert sum(eigh_sizes) + (n - n // 2) * (n // 2) == g.n_cells
        assert_matches_dense(op)

    @pytest.mark.parametrize("n,sizes", [(8, [10, 6, 16, 10, 6]),
                                         (9, [15, 10, 20, 10, 6])])
    def test_sub_block_sizes(self, n, sizes, eigh_sizes):
        g = Grid(2, n)
        assemble(g, CoefficientField.identity(g), PowerWeight(1.0))
        assert eigh_sizes == sizes

    @pytest.mark.parametrize("n", [7, 9])
    def test_tabulated_weight_at_odd_side(self, n, eigh_sizes):
        g = Grid(2, n)
        op = assemble(g, CoefficientField([1.5, 1.5]),
                      swap_symmetric_weight(g, n))
        assert len(eigh_sizes) == 5
        assert_matches_dense(op)

    @pytest.mark.parametrize("n", [8, 9])
    def test_odd_even_modes_are_transposed_even_odd_modes(self, n):
        g = Grid(2, n)
        op = assemble(g, CoefficientField.identity(g), PowerWeight(1.0))
        transposed = next(group for group in op.groups if group.part == "transposed")
        eo, oe = transposed.source.modes, transposed.modes
        npt.assert_array_equal(op.eigenvalues[eo], op.eigenvalues[oe])
        for k, j in zip(eo.tolist(), oe.tolist()):
            moved = op.mode(k).reshape(n, n).T.ravel()
            phi = op.mode(j)
            sign = np.sign(phi @ moved)
            npt.assert_allclose(phi, sign * moved, rtol=0,
                                atol=1e-13 * np.abs(phi).max())

    @pytest.mark.parametrize("coeff_entries,transposed", [((1.0, 2.0), True),
                                                          ((1.5, 1.5), False)])
    def test_without_swap_symmetry_four_blocks(self, coeff_entries, transposed,
                                               eigh_sizes):
        g = Grid(2, 8)
        w = swap_symmetric_weight(g, 4) if transposed \
            else mirrored_weight(g, 4, [0, 1])
        op = assemble(g, CoefficientField(coeff_entries), w)
        assert eigh_sizes == [16] * 4
        assert_matches_dense(op)


BLOCK_CASES = [
    # (dim, n, weight, entries): even and odd sides, the axis-swap split
    # (A = a I in dim 2), four plain parity blocks, and (None) a random
    # tabulated weight with the symmetries of a power weight
    (1, 8, PowerWeight(0.7), (1.0,)),
    (1, 9, PowerWeight(-0.4), (2.0,)),
    (2, 8, PowerWeight(1.0), (1.0, 1.0)),
    (2, 9, PowerWeight(1.2), (1.5, 1.5)),
    (2, 8, PowerWeight(-0.6), (1.0, 2.0)),
    (2, 9, PowerWeight(0.5), (2.0, 1.0)),
    (2, 8, None, (1.0, 2.0)),
    (2, 9, None, (1.0, 1.0)),
]


class TestBlockCoordinates:
    """`project`, `reconstruct` and `mode(k)` of the block-coordinate
    store against one dense `eigh` of the same operator."""

    @pytest.mark.parametrize("dim,n,weight,entries", BLOCK_CASES)
    def test_match_dense(self, dim, n, weight, entries):
        g = Grid(dim, n)
        if weight is None:
            weight = swap_symmetric_weight(g, n) if len(set(entries)) == 1 \
                else mirrored_weight(g, n, range(dim))
        op = assemble(g, CoefficientField(entries), weight)
        assert blocks(op) == 2**dim
        lam, phi = dense_spectrum(g, op.coeff, op.weight_values)
        scale = lam.max()
        dens = op.weight_values * g.cell_volume

        # mode(k): w-orthonormal eigenpairs of the dense operator
        ours = np.column_stack([op.mode(k) for k in range(g.n_cells)])
        npt.assert_allclose(operator_matrix(op) @ ours, ours * op.eigenvalues,
                            rtol=0, atol=1e-9 * scale)
        npt.assert_allclose(ours.T @ (ours * dens[:, None]), np.eye(g.n_cells),
                            rtol=0, atol=1e-12)

        # project then reconstruct on each spectral group equals the dense
        # spectral projector of that group applied to f
        f = np.random.default_rng(7).normal(size=(2, g.n_cells))
        coeffs = op.project(f)
        npt.assert_allclose(coeffs, f * dens @ ours, rtol=0, atol=1e-12)
        order = np.argsort(op.eigenvalues, kind="stable")
        for start, stop in cluster_bounds(lam, 1e-6):
            kept = np.zeros_like(coeffs)
            kept[:, order[start:stop]] = coeffs[:, order[start:stop]]
            group = phi[:, start:stop]
            npt.assert_allclose(op.reconstruct(kept), (f * dens) @ group @ group.T,
                                rtol=0, atol=1e-9)
        npt.assert_allclose(op.reconstruct(coeffs), f, rtol=0, atol=1e-12)


def full_buffer_reconstruct(op, coeffs):
    """sum_k c_k phi_k of a (..., M) stack in block order by the
    full-buffer route: every block's products into one (..., M) buffer,
    then the last-axis butterfly of every pair of blocks and one
    butterfly per leading axis."""
    n, dim = op.grid.n_side, op.grid.dim
    h = n // 2
    a = n - h
    stack = coeffs.shape[:-1]
    cuts = np.cumsum([g.modes.size for g in op.groups])[:-1]
    products = {}
    for g, c in zip(op.groups, np.split(coeffs, cuts, axis=-1)):
        products.setdefault(g.block, {})[g.part] = c @ g.basis.T
    grids = []
    for b, parts in sorted(products.items()):
        if "sym" in parts:
            s, d = parts["sym"], parts["anti"]
            m = math.isqrt(s.shape[-1] + d.shape[-1])
            iu, ju = np.triu_indices(m)
            ip, jp = np.triu_indices(m, 1)
            sym_row = np.zeros((m, m), dtype=int)
            sym_row[iu, ju] = np.arange(iu.size)
            grid = np.empty(stack + (m, m))
            grid[..., iu, ju] = s
            grid[..., ip, jp] = d + s[..., sym_row[ip, jp]]
            grid[..., jp, ip] = s[..., sym_row[ip, jp]] - d
            grids.append(grid)
            continue
        if "transposed" in parts:
            grids.append(parts["transposed"].reshape(stack + (a, h)).swapaxes(-1, -2))
        else:
            shape = tuple((a, h)[p] for p in list(itertools.product((0, 1), repeat=dim))[b])
            grids.append(parts["block"].reshape(stack + shape))
    out = np.empty(stack + (n,) * dim)
    lo, hi = slice(0, h), slice(n - 1, n - 1 - h, -1)
    halves = (slice(0, a), slice(n - 1, a - 1, -1))
    for r, rest in enumerate(itertools.product((0, 1), repeat=dim - 1)):
        even, odd = grids[2 * r], grids[2 * r + 1]
        region = out[(Ellipsis,) + tuple(halves[p] for p in rest) + (slice(None),)]
        region[..., lo] = even[..., lo] + odd
        region[..., hi] = even[..., lo] - odd
        region[..., h:a] = even[..., h:a]
    if dim == 2:
        x, y = out[..., lo, :], out[..., hi, :]
        diff = x - y
        x += y
        y[...] = diff
    return out.reshape(coeffs.shape)


@given(
    dim=st.sampled_from([1, 2]), n=st.integers(4, 17),
    alpha=st.sampled_from([-0.8, 0.0, 0.5, 1.3]), isotropic=st.booleans(),
    rows=st.sampled_from([None, 1, 3, 97]), in_place=st.booleans(), seed=st.integers(0, 999),
)
@settings(max_examples=60, deadline=None)
def test_reconstruct_blocks_equals_full_buffer_route(dim, n, alpha, isotropic, rows, in_place,
                                                     seed):
    # the pair-wide buffer changes where the products are held, not one
    # operation on any value: bit-equal to the full-buffer route for
    # even and odd sides, the swap split and plain blocks, a single
    # (M,) row and (J, M) stacks, written into a new array or over coeffs
    grid = Grid(dim, n)
    coeff = CoefficientField([1.0] * dim if isotropic else [1.0, 2.0][:dim])
    op = assemble(grid, coeff, PowerWeight(alpha))
    shape = (grid.n_cells,) if rows is None else (rows, grid.n_cells)
    coeffs = np.random.default_rng(seed).standard_normal(shape)
    want = full_buffer_reconstruct(op, coeffs)
    if in_place:
        got = op.reconstruct_blocks(coeffs, out=coeffs)
        assert got is coeffs
    else:
        got = op.reconstruct_blocks(coeffs)
    assert np.array_equal(got, want)


def group_transform(op, g):
    """The (M, m) orthonormal map from a mode group's rows to the cells, by
    the definitions in the operator module's docstring and not by its
    maps: the Kronecker product of the 1-D parity transforms (even part
    first, the middle cell of an odd side unscaled in it), then for a swap
    part its combination of the cells (i, j) and (j, i), numbered
    row-major over i <= j or i < j, and for the transposed copy the
    (odd, even) block's columns in the (even, odd) block's row order."""
    n = op.grid.n_side
    h, a = n // 2, n - n // 2
    even, odd = np.zeros((n, a)), np.zeros((n, h))
    for i in range(h):
        even[i, i] = even[n - 1 - i, i] = odd[i, i] = math.sqrt(0.5)
        odd[n - 1 - i, i] = -math.sqrt(0.5)
    if n % 2:
        even[h, h] = 1.0
    q = functools.reduce(np.kron, list(itertools.product((even, odd), repeat=op.grid.dim))[g.block])
    if g.part == "transposed":
        return q[:, np.arange(a * h).reshape(h, a).T.ravel()]
    if g.part == "block":
        return q
    m = math.isqrt(q.shape[1])
    pairs = [(i, j) for i in range(m) for j in range(i + (g.part == "anti"), m)]
    part = np.zeros((m * m, len(pairs)))
    for k, (i, j) in enumerate(pairs):
        if i == j:
            part[i * m + i, k] = 1.0
        else:
            part[i * m + j, k] = math.sqrt(0.5)
            part[j * m + i, k] = math.sqrt(0.5) if g.part == "sym" else -math.sqrt(0.5)
    return q @ part


@given(
    dim=st.sampled_from([1, 2]), n=st.integers(4, 17),
    alpha=st.sampled_from([-0.8, 0.0, 0.5, 1.3]), isotropic=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_group_records_diagonalize_their_dense_blocks(dim, n, alpha, isotropic):
    # A = I in dim 2 takes the axis-swap split (sym, anti and transposed
    # groups), A = diag(1, 2) four whole blocks; each record's stored basis
    # over its row factors is orthonormal and diagonalizes its group's
    # block of the dense S with the record's eigenvalues
    grid = Grid(dim, n)
    coeff = CoefficientField([1.0] * dim if isotropic else [1.0, 2.0][:dim])
    op = assemble(grid, coeff, PowerWeight(alpha))
    assert swapped(op) == (dim == 2 and isotropic)
    s = scaled_stiffness(grid, coeff, op.weight_values)
    scale = op.eigenvalues.max()
    npt.assert_array_equal(np.sort(np.concatenate([g.modes for g in op.groups])),
                           np.arange(grid.n_cells))
    for g in op.groups:
        psi = g.basis / g.rows[:, None]
        npt.assert_allclose(psi.T @ psi, np.eye(g.modes.size), rtol=0, atol=1e-12)
        v = group_transform(op, g) @ psi
        npt.assert_allclose(v.T @ s @ v, np.diag(g.eigenvalues), rtol=0, atol=1e-12 * scale)
        npt.assert_array_equal(op.eigenvalues[g.modes], g.eigenvalues)
        assert set(np.unique(g.signs)) <= {-1.0, 1.0}
        if g.part == "transposed":
            assert g.source.block == 1 and g.basis is g.source.basis
