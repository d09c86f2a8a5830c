"""Tests for cone functionals, Carleson functionals and change of angle."""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import ball_mask
from tentcalc.mesh import Grid, PowerWeight, UNIT_WEIGHT, lp_norm, maximal
from tentcalc import tent
from tentcalc.semigroup import TimeLadder
from tentcalc.tent import (
    HalfSpaceField,
    carleson_p_all,
    change_of_angle_report,
    cone_all,
    fubini_norm_sq,
)


def make_field(dim=1, n=16, alpha_w=0.5, seed=0, ratio=2 ** 0.25):
    grid = Grid(dim, n)
    ladder = TimeLadder.geometric(grid.h, 0.5, ratio)
    w = PowerWeight(alpha_w)
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(ladder.count, grid.n_cells))
    return HalfSpaceField(grid, ladder, w, vals)


class TestHalfSpaceField:
    def test_shape_validation(self):
        grid = Grid(1, 8)
        ladder = TimeLadder.geometric(grid.h, 0.5, 2.0)
        with pytest.raises(ValueError, match="shape"):
            HalfSpaceField(grid, ladder, UNIT_WEIGHT, np.zeros((2, 8)))

    def test_rejects_nonfinite(self):
        grid = Grid(1, 8)
        ladder = TimeLadder.geometric(grid.h, 0.5, 2.0)
        bad = np.zeros((ladder.count, 8))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            HalfSpaceField(grid, ladder, UNIT_WEIGHT, bad)


class TestCone:
    def test_zero_field(self):
        fld = make_field()
        fld = HalfSpaceField(fld.grid, fld.ladder, fld.weight, np.zeros_like(fld.values))
        npt.assert_allclose(cone_all(fld), 0.0)

    def test_rejects_bad_aperture(self):
        fld = make_field()
        with pytest.raises(ValueError):
            cone_all(fld, 0.0)
        with pytest.raises(ValueError):
            cone_all(fld, -1.0)

    def test_single_node_hand_value(self):
        grid = Grid(1, 16)
        ladder = TimeLadder.geometric(grid.h, 0.5, 2.0)
        w = PowerWeight(0.5)
        j0, y0 = 2, 5
        t0 = ladder.nodes[j0]
        vals = np.zeros((ladder.count, 16))
        vals[j0, y0] = 1.0
        fld = HalfSpaceField(grid, ladder, w, vals)
        wv = w.sample(grid)
        normaliser = wv[ball_mask(grid, t0, strict=True)[y0]].sum() * grid.cell_volume
        expected_on = math.sqrt(
            wv[y0] * grid.cell_volume * ladder.node_weight / normaliser
        )
        got = cone_all(fld)
        dist = grid.distances_to(grid.centers[y0])
        for x in range(16):
            if dist[x] < t0 * (1 + 1e-9):
                assert got[x] == pytest.approx(expected_on, rel=1e-12), f"x={x}"
            else:
                assert got[x] == 0.0, f"x={x}"

    @given(
        a=st.floats(0.25, 4.0),
        b=st.floats(0.25, 4.0),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_aperture_monotone(self, a, b, seed):
        fld = make_field(seed=seed, n=8)
        lo, hi = sorted((a, b))
        small = cone_all(fld, lo)
        big = cone_all(fld, hi)
        assert np.all(small <= big * (1 + 1e-12) + 1e-15)

    def test_fubini_identity(self):
        for seed in (0, 1, 2):
            fld = make_field(dim=2, n=8, alpha_w=1.0, seed=seed)
            a = cone_all(fld)
            dens = fld.weight_values * fld.grid.cell_volume
            lhs = float(np.sum(a**2 * dens))
            assert lhs == pytest.approx(fubini_norm_sq(fld), rel=1e-12)


class TestCarlesonP:
    def test_zero_field(self):
        fld = make_field()
        fld = HalfSpaceField(fld.grid, fld.ladder, fld.weight, np.zeros_like(fld.values))
        npt.assert_allclose(carleson_p_all(fld, 2.0), 0.0)

    def test_rejects_nonpositive_p0(self):
        fld = make_field()
        with pytest.raises(ValueError):
            carleson_p_all(fld, 0.0)

    def test_dominated_by_maximal_of_cone(self):
        # truncating the cone only shrinks it, so every ball average in
        # C_{w,p0} is one of the averages the maximal operator sups over
        for p0 in (1.0, 2.0):
            fld = make_field(dim=1, n=16, alpha_w=0.5, seed=3)
            c = carleson_p_all(fld, p0)
            m = maximal(cone_all(fld), fld.grid, p0=p0, base=fld.weight)
            assert np.all(c <= m * (1 + 1e-10) + 1e-14)


class TestChangeOfAngle:
    def test_equal_apertures_ratio_one(self):
        fld = make_field(seed=7)
        rep = change_of_angle_report(fld, 1.0, 1.0, 2.0, UNIT_WEIGHT, fld.weight)
        assert rep.ratio == pytest.approx(1.0, rel=1e-14)

    def test_doubling_aperture_monotone(self):
        fld = make_field(dim=1, n=16, alpha_w=0.0, seed=8)
        rep = change_of_angle_report(fld, 1.0, 2.0, 2.0, UNIT_WEIGHT, UNIT_WEIGHT)
        assert rep.ratio is not None
        assert rep.ratio >= 1.0
        assert np.isfinite(rep.ratio)

    def test_zero_field_undefined_ratio(self):
        fld = make_field()
        fld = HalfSpaceField(fld.grid, fld.ladder, fld.weight, np.zeros_like(fld.values))
        rep = change_of_angle_report(fld, 1.0, 2.0, 2.0, UNIT_WEIGHT, fld.weight)
        assert rep.ratio is None

    def test_rejects_bad_aperture_order(self):
        fld = make_field()
        with pytest.raises(ValueError):
            change_of_angle_report(fld, 2.0, 1.0, 2.0, UNIT_WEIGHT, fld.weight)

    def test_known_cones_give_the_same_report(self, monkeypatch):
        fld = make_field(dim=2, n=8, seed=11)
        fresh = change_of_angle_report(fld, 1.0, 2.0, 2.0, UNIT_WEIGHT, fld.weight)
        cones = {1.0: cone_all(fld, 1.0), 2.0: cone_all(fld, 2.0)}

        def refuse(*args):
            raise AssertionError("cone recomputed")

        monkeypatch.setattr(tent, "cone_all", refuse)
        known = change_of_angle_report(fld, 1.0, 2.0, 2.0, UNIT_WEIGHT, fld.weight,
                                       cones=cones)
        assert known == fresh

    def test_predicted_bounds_plumbing(self):
        fld = make_field(dim=2, n=8, seed=9)
        rep = change_of_angle_report(
            fld, 1.0, 2.0, 2.0, UNIT_WEIGHT, fld.weight, r=1.5, r_tilde=1.0,
        )
        assert rep.predicted_increase == pytest.approx(2 ** (2 * 1.0 * 1.5 / 2.0))

    def test_p2_fubini_identity_with_v(self):
        # ||A^beta F||^2_{L^2(v dw)} as a node sum: the x-integral of the
        # aperture-beta cone slice is the vw-measure of B(y, beta t)
        fld = make_field(dim=1, n=16, alpha_w=1.0, seed=10)
        grid, ladder, w = fld.grid, fld.ladder, fld.weight
        v = PowerWeight(-0.5)
        beta = 2.0
        norm = lp_norm(cone_all(fld, beta), 2.0, v, w, grid)
        lhs = norm**2

        wv = w.sample(grid)
        vv = v.sample(grid)
        whn = wv * grid.cell_volume
        vwhn = vv * whn
        rhs = 0.0
        for j, t in enumerate(ladder.nodes):
            strict = ball_mask(grid, t, strict=True)
            wball = strict @ whn
            strict_beta = ball_mask(grid, beta * t, strict=True)
            vwball_beta = strict_beta @ vwhn
            rhs += float(
                np.sum(
                    fld.values[j] ** 2 * whn * ladder.node_weight * vwball_beta / wball
                )
            )
        assert lhs == pytest.approx(rhs, rel=1e-10)
