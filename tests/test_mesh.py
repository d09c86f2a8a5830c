"""Tests for the periodic grid, weighted measures and the maximal operator."""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import ball_mask, distance_matrix
from tentcalc.mesh import (
    UNIT_WEIGHT,
    Grid,
    PowerWeight,
    lp_norm,
    maximal,
    number,
)

RTOL = 1e-12


def membership(grid, radii):
    """m[i, y, x] = 1 if y lies in the stencil's closed ball B(x, radii[i])."""
    return grid.stencil.ball_reduce(np.eye(grid.n_cells), radii)


def ball_measures(w, grid, radius):
    """w(B(x, radius)) at every center x, summed on the stencil."""
    return grid.stencil.ball_reduce(w.sample(grid) * grid.cell_volume, [radius])[0]


class TestNumber:
    @pytest.mark.parametrize("value", [0.5, 3, np.float64(0.5), np.int64(3), 2**1023])
    def test_returns_reals_unchanged(self, value):
        assert number("x", value) is value

    @pytest.mark.parametrize("value, integer", [
        (True, False), (np.True_, False), (False, True), (np.False_, True), ("2", False),
        (None, False), (2.0, True), (np.float64(2.0), True), (2**1023 + 1, False),
        (-(2**1024), False), (1j, False),
    ])
    def test_type_message(self, value, integer):
        kind = "an integer" if integer else "a real number"
        with pytest.raises(ValueError, match=f"^x must be {kind}, got "):
            number("x", value, integer=integer)

    def test_big_integers_are_integers(self):
        assert number("x", 10**400, 1, integer=True) == 10**400

    @pytest.mark.parametrize("value, kwargs, where", [
        (0.0, dict(lo=0, open_lo=True), "positive"),
        (math.inf, dict(lo=0, open_lo=True, open_hi=True), "finite and positive"),
        (-1, dict(lo=0, integer=True), "nonnegative"),
        (math.nan, dict(lo=0, open_hi=True), "finite and nonnegative"),
        (0.5, dict(lo=1, open_hi=True), "finite and >= 1"),
        (1, dict(lo=1, open_lo=True), "> 1"),
        (2.5, dict(lo=1, hi=2, open_lo=True), r"in \(1, 2\]"),
        (math.nan, dict(lo=0, hi=1e-4, open_hi=True), r"in \[0, 0.0001\)"),
        (3, dict(hi=2), "<= 2"),
        (-math.inf, dict(open_lo=True, open_hi=True), "finite"),
    ])
    def test_range_message(self, value, kwargs, where):
        with pytest.raises(ValueError, match=rf"^x must be {where}, got {value!r}$"):
            number("x", value, **kwargs)

    def test_closed_infinite_ends(self):
        # with both ends infinite and closed only the type is checked
        assert math.isnan(number("x", math.nan))
        assert number("x", -math.inf) == -math.inf
        assert number("x", math.inf, 1, open_lo=True) == math.inf


class TestGrid:
    def test_rejects_bad_dim_and_size(self):
        with pytest.raises(ValueError):
            Grid(3, 8)
        with pytest.raises(ValueError):
            Grid(1, 3)

    @pytest.mark.parametrize("dim, n_side", [(True, 8), (1, True), (2, 8.7), (2, 8.0),
                                             (2.0, 8), ("2", 8)],
                             ids=["bool-dim", "bool-side", "fractional-side", "float-side",
                                  "float-dim", "str-dim"])
    def test_rejects_non_integer_dim_and_side(self, dim, n_side):
        with pytest.raises(ValueError, match="must be an integer"):
            Grid(dim, n_side)

    def test_numpy_integers_and_identity(self):
        # the geometry caches key on Grid, by (dim, n_side)
        g = Grid(np.int64(2), np.int32(16))
        assert type(g.dim) is int and type(g.n_side) is int
        assert g == Grid(2, 16) and hash(g) == hash((2, 16))
        assert repr(g) == "Grid(dim=2, n_side=16)"

    def test_centers_offset(self):
        g = Grid(1, 8)
        npt.assert_allclose(g.centers[:, 0], (np.arange(8) + 0.5) / 8)
        assert g.h == 0.125
        assert g.n_cells == 8

    def test_centers_dim2_row_major(self):
        g = Grid(2, 4)
        assert g.n_cells == 16
        # flat index i*N + j
        npt.assert_allclose(g.centers[4 * 1 + 2], [0.375, 0.625])

    def test_periodic_distance_wraps(self):
        g = Grid(1, 8)
        # centers 0.0625 and 0.9375 are 0.125 apart across the seam
        assert g.distances_to([0.9375])[0] == pytest.approx(0.125)
        # max possible distance is sqrt(dim)/2
        g2 = Grid(2, 4)
        assert distance_matrix(g2).max() <= np.sqrt(2) / 2 + 1e-12

    def test_distance_matrix_symmetric_zero_diag(self):
        g = Grid(2, 5)
        d = distance_matrix(g)
        npt.assert_allclose(d, d.T)
        npt.assert_allclose(np.diag(d), 0.0)

    def test_dyadic_radii(self):
        g = Grid(1, 16)
        assert g.dyadic_radii(0.5) == [0.0625, 0.125, 0.25, 0.5]
        assert g.dyadic_radii(0.25) == [0.0625, 0.125, 0.25]

    def test_ball_closed_includes_boundary(self):
        g = Grid(1, 8)
        # centers 0.0625 and 0.3125 are exactly 0.25 apart: offsets 0,
        # +-h and the tied +-2h make the closed ball
        assert g.distances_to(g.centers[0])[2] == 0.25
        npt.assert_array_equal(g.stencil.offset_distances[[2, 6]], 0.25)
        npt.assert_array_equal(g.stencil.ball_reduce(np.ones(8), [0.25])[0], 5.0)
        assert membership(g, [0.25])[0, 2, 0] == 1.0

    def test_shift_perm_roundtrip(self):
        g = Grid(2, 4)
        p = g.shift_perm(0, 1)
        q = g.shift_perm(0, -1)
        npt.assert_array_equal(p[q], np.arange(16))

    @pytest.mark.parametrize("dim,top", [(1, 128), (2, 64)])
    def test_origin_distances_exactly_symmetric(self, dim, top):
        # every side in the dense budget: mirror- and (dim 2) transpose-
        # symmetric, and bit for bit the old distances at powers of two
        for n in range(4, top + 1):
            g = Grid(dim, n)
            d = g.origin_distances.reshape((n,) * dim)
            for axis in range(dim):
                npt.assert_array_equal(d, np.flip(d, axis=axis))
            npt.assert_array_equal(d, d.T)
            if n & (n - 1) == 0:
                npt.assert_array_equal(g.origin_distances,
                                       g.distances_to(np.zeros(dim)))
            else:
                # there the old 1 - x rounds at 1: off by up to an ulp of 1
                npt.assert_allclose(g.origin_distances,
                                    g.distances_to(np.zeros(dim)),
                                    rtol=0, atol=np.finfo(float).eps)

    def test_origin_distances_cached_read_only(self):
        g = Grid(2, 9)
        assert g.origin_distances is Grid(2, 9).origin_distances
        with pytest.raises(ValueError):
            g.origin_distances[0] = 1.0
        w = PowerWeight(1.0).sample(g)
        w[0] = 2.0  # samples are the caller's own array
        assert g.origin_distances[0] != 2.0

    def test_stencil_shared_per_grid_size(self):
        stencil = Grid(2, 16).stencil
        assert Grid(2, 16).stencil is stencil
        assert Grid(2, 32).stencil is not stencil
        assert Grid(1, 16).stencil is not stencil
        with pytest.raises(ValueError):
            stencil.offset_distances[0] = 1.0

    def test_ball_mask_matches_ball(self):
        g = Grid(2, 6)
        npt.assert_array_equal(membership(g, [0.3])[0], ball_mask(g, 0.3))


class TestWeights:
    def test_power_weight_positive_any_alpha(self):
        g = Grid(2, 8)
        for alpha in (-1.5, -1.0, 0.0, 1.0, 1.5, 3.0):
            v = PowerWeight(alpha).sample(g)
            assert np.all(v > 0)
            assert np.all(np.isfinite(v))

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, True])
    def test_power_weight_rejects_non_finite_or_bool_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            PowerWeight(alpha)

    def test_power_weight_hash_and_equality(self):
        # tent's cone-factor cache keys on the weight
        assert PowerWeight(0.5) == PowerWeight(0.5) != PowerWeight(-0.5)
        assert hash(PowerWeight(0.5)) == hash((0.5,))
        assert PowerWeight(0.0) == UNIT_WEIGHT

    def test_power_weight_zero_is_unit(self):
        g = Grid(1, 8)
        npt.assert_allclose(PowerWeight(0.0).sample(g), 1.0)

    def test_power_weight_value(self):
        g = Grid(1, 8)
        # first center at 0.0625, periodic distance to origin is 0.0625
        v = PowerWeight(2.0).sample(g)
        assert v[0] == pytest.approx(0.0625**2)


class TestMeasure:
    def test_unit_weight_whole_grid(self):
        # radius sqrt(2)/2 is the largest periodic distance in dim 2
        g = Grid(2, 8)
        npt.assert_allclose(ball_measures(UNIT_WEIGHT, g, np.sqrt(2) / 2), 1.0, rtol=RTOL)

    def test_single_cell(self):
        g = Grid(1, 8)
        npt.assert_array_equal(ball_measures(UNIT_WEIGHT, g, g.h / 4), 0.125)

    def test_power_weight_whole_grid_frozen(self):
        # independently computed: sum_{i<8} d_i * (1/8) with
        # d = (1,3,5,7,7,5,3,1)/16 sums to 32/16, so the measure is 0.25
        g = Grid(1, 8)
        npt.assert_allclose(ball_measures(PowerWeight(1.0), g, 0.5), 0.25, rtol=RTOL)


class TestLpNorm:
    def test_rejects_nonpositive_p(self):
        g = Grid(1, 8)
        f = np.ones(8)
        with pytest.raises(ValueError):
            lp_norm(f, 0.0, UNIT_WEIGHT, UNIT_WEIGHT, g)
        with pytest.raises(ValueError):
            lp_norm(f, -2.0, UNIT_WEIGHT, UNIT_WEIGHT, g)

    def test_indicator_value(self):
        g = Grid(1, 8)
        f = np.zeros(8)
        f[2] = 1.0
        got = lp_norm(f, 2.0, UNIT_WEIGHT, UNIT_WEIGHT, g)
        assert got == pytest.approx(0.125**0.5, rel=RTOL)

    def test_constant_in_l2(self):
        g = Grid(2, 6)
        got = lp_norm(np.full(36, 3.0), 2.0, UNIT_WEIGHT, UNIT_WEIGHT, g)
        assert got == pytest.approx(3.0, rel=RTOL)

    @given(c=st.floats(0.1, 10.0), p=st.floats(0.5, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, c, p):
        g = Grid(1, 8)
        rng = np.random.default_rng(5)
        f = rng.normal(size=8)
        a = lp_norm(c * f, p, UNIT_WEIGHT, PowerWeight(1.0), g)
        b = lp_norm(f, p, UNIT_WEIGHT, PowerWeight(1.0), g)
        assert a == pytest.approx(c * b, rel=1e-10)


def brute_force_maximal(f, grid, p0, base):
    """Independent exhaustive loop over the full dyadic ball family."""
    mu = np.full(grid.n_cells, grid.cell_volume)
    if base is not None:
        mu = base.sample(grid) * grid.cell_volume
    out = np.zeros(grid.n_cells)
    for r in [grid.h * 2**k for k in range(int(np.log2(grid.n_side)))]:
        for c in range(grid.n_cells):
            dist = grid.distances_to(grid.centers[c])
            members = [y for y in range(grid.n_cells) if dist[y] <= r * (1 + 1e-9)]
            avg = sum(abs(f[y]) ** p0 * mu[y] for y in members) / sum(
                mu[y] for y in members
            )
            for y in members:
                out[y] = max(out[y], avg)
    return out ** (1.0 / p0)


class TestMaximal:
    def test_rejects_nonpositive_p0(self):
        g = Grid(1, 8)
        with pytest.raises(ValueError):
            maximal(np.ones(8), g, p0=0.0)

    def test_constant_function(self):
        g = Grid(2, 8)
        npt.assert_allclose(maximal(np.full(64, -2.5), g), 2.5, rtol=RTOL)

    def test_indicator_peak(self):
        # the smallest ball containing the marked cell has 3 members in
        # dim 1, so the sup of averages is 1/3 there and positive everywhere
        g = Grid(1, 16)
        f = np.zeros(16)
        f[5] = 1.0
        m = maximal(f, g)
        assert np.all(m > 0)
        assert m.max() == pytest.approx(1.0 / 3.0)
        # every member of a radius-h ball that meets the marked cell peaks
        npt.assert_allclose(m[3:8], 1.0 / 3.0, rtol=RTOL)
        assert m[10] < 0.2

    def test_dominates_at_scale_h(self):
        # the p0-mean over the radius-h ball already bounds f/3^{1/p0}
        g = Grid(1, 16)
        rng = np.random.default_rng(0)
        f = rng.normal(size=16)
        m = maximal(f, g, p0=2.0)
        assert np.all(m >= np.abs(f) / np.sqrt(3.0) - 1e-12)

    def test_matches_brute_force_lebesgue_frozen(self):
        g = Grid(1, 16)
        rng = np.random.default_rng(12345)
        f = rng.normal(size=16)
        m = maximal(f, g, p0=1.0)
        # frozen from the exhaustive-loop oracle run
        npt.assert_allclose(
            m[:6],
            [1.18607174, 1.18607174, 1.18607174, 0.9691016, 1.02468093, 1.11655371],
            rtol=1e-7,
        )
        assert m.sum() == pytest.approx(21.18901355178589, rel=1e-10)
        npt.assert_allclose(m, brute_force_maximal(f, g, 1.0, None), rtol=1e-12)

    def test_matches_brute_force_weighted_dim2(self):
        g = Grid(2, 8)
        rng = np.random.default_rng(7)
        f = rng.normal(size=64)
        w = PowerWeight(1.0)
        m = maximal(f, g, p0=1.5, base=w)
        npt.assert_allclose(m, brute_force_maximal(f, g, 1.5, w), rtol=1e-12)

    def test_p0_monotone(self):
        # Jensen: larger p0 gives a larger p0-mean on every ball
        g = Grid(1, 16)
        rng = np.random.default_rng(3)
        f = rng.normal(size=16)
        m1 = maximal(f, g, p0=1.0)
        m2 = maximal(f, g, p0=2.0)
        assert np.all(m2 >= m1 - 1e-12)


class TestBallProperties:
    # x in B(y, r) iff y in B(x, r) is what makes the stencil's Fubini
    # identities exact
    @given(r=st.floats(0.05, 0.7))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, r):
        m = membership(Grid(2, 6), [r])[0]
        npt.assert_array_equal(m, m.T)

    @given(r1=st.floats(0.05, 0.4), r2=st.floats(0.05, 0.4))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_radius(self, r1, r2):
        small, big = membership(Grid(1, 16), sorted((r1, r2)))
        assert np.all(small <= big)

    @given(dim=st.sampled_from([1, 2]), n=st.sampled_from([5, 6, 7, 9]),
           r=st.floats(0.05, 0.7))
    @settings(max_examples=60, deadline=None)
    def test_measure_monotone_sets(self, dim, n, r):
        # exact in floating point: a larger ball has longer row intervals
        # and more columns of non-negative terms, in the same order
        g = Grid(dim, n)
        dens = PowerWeight(-0.5).sample(g) * g.cell_volume
        sums = g.stencil.ball_reduce(dens, [r / 4, r / 2, r, 2 * r])
        for small, big in zip(sums, sums[1:]):
            assert np.all(small <= big)  # tolerance 0
        zero = g.stencil.ball_reduce(np.zeros(g.n_cells), [r / 2, r], strict=True)
        npt.assert_array_equal(zero, 0.0)
