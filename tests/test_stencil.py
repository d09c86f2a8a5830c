"""The ball stencil against the dense pairwise-distance reference.

Sums must agree to isclose(rel_tol=1e-12, abs_tol=1e-14); sup and inf
over balls select one of the same floats, so they must agree exactly.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import dense_reference as dense
from tentcalc.mesh import UNIT_WEIGHT, Grid, PowerWeight, lp_norm, maximal
from tentcalc.semigroup import TimeLadder
from tentcalc.tent import (
    HalfSpaceField,
    carleson_p_all,
    cone_all,
    fubini_norm_sq,
)
from tentcalc.verify import _g_alpha_functional
from tentcalc.weights import (
    _LOG_SAFE,
    ClassKind,
    ap_constant,
    rh_constant,
    weighted_class_constant,
)

CASES = [(1, 8), (1, 16), (2, 8), (2, 16)]


def assert_close(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    scale = np.maximum(np.abs(got), np.abs(want))
    bad = np.abs(got - want) > np.maximum(1e-12 * scale, 1e-14)
    assert not bad.any(), (got[bad], want[bad])


def make_field(dim, n, alpha_w=0.7, seed=0):
    grid = Grid(dim, n)
    ladder = TimeLadder(grid.h / 4, 1.0, 2 ** (1 / 8))
    rng = np.random.default_rng(seed)
    vals = np.abs(rng.standard_normal((ladder.count, grid.n_cells)))
    return HalfSpaceField(grid, ladder, PowerWeight(alpha_w), vals)


@pytest.fixture(params=CASES, ids=[f"dim{d}-n{n}" for d, n in CASES])
def fld(request):
    dim, n = request.param
    return make_field(dim, n, seed=dim * 100 + n)


class TestGeometry:
    def test_distance_row_matches_dense_rows(self, fld):
        grid = fld.grid
        dist = dense.distance_matrix(grid)
        for c in (0, 1, grid.n_cells - 1):
            npt.assert_array_equal(grid.distances_to(grid.centers[c]), dist[c])
        # the offset table is the distance from cell 0 to every cell
        npt.assert_array_equal(grid.stencil.offset_distances, dist[0])

    def test_ball_matches_dense(self, fld):
        grid = fld.grid
        for r in (grid.h, 0.3, 0.5):
            members = grid.stencil.ball_reduce(np.eye(grid.n_cells), [r])[0]
            npt.assert_array_equal(members, dense.ball_mask(grid, r))

    # the sides each case's test also runs: odd sides and one that is
    # not a power of two beside the case's own
    NEAR_SIDES = {8: (7, 8, 9), 16: (12, 16)}

    def test_ball_reduce_matches_dense(self, fld):
        rng = np.random.default_rng(fld.grid.n_cells)
        for n in self.NEAR_SIDES[fld.grid.n_side]:
            grid = Grid(fld.grid.dim, n)
            stencil = grid.stencil
            # from below h/2 (the center alone) to above sqrt(dim)/2 (all)
            radii = sorted([0.4 * grid.h, *grid.dyadic_radii(0.5), 0.3, 0.8])
            v = rng.random(grid.n_cells)
            logs = 400.0 * rng.standard_normal(grid.n_cells)
            for strict in (False, True):
                sums = stencil.ball_reduce(v, radii, strict)
                mins = stencil.ball_reduce(v, radii, strict, ufunc=np.minimum)
                maxs = stencil.ball_reduce(v, radii, strict, ufunc=np.maximum)
                lses = stencil.ball_reduce(logs, radii, strict, ufunc=np.logaddexp)
                for i, r in enumerate(radii):
                    mask = dense.ball_mask(grid, r, strict)
                    assert_close(sums[i], mask @ v)
                    npt.assert_array_equal(mins[i], dense.ball_min(v, mask))
                    npt.assert_array_equal(maxs[i], dense.ball_max(v, mask))
                    assert_close(lses[i], dense.ball_logsumexp(logs, mask))

    def test_ball_reduce_equal_extents_give_equal_rows(self, fld):
        # radii below h/2 hold the center alone and radii between h and
        # sqrt(2) h the same offsets, so each group's rows are equal bit
        # for bit, and each row is its ball's dense reduction
        grid = fld.grid
        h = grid.h
        radii = [0.1 * h, 0.2 * h, 0.3 * h, 0.4 * h, 1.1 * h, 1.3 * h]
        v, logs = fld.values[3], 400.0 * (fld.values[4] - 1.0)
        refs = [
            (np.add, v, lambda m: m @ v, assert_close),
            (np.minimum, v, lambda m: dense.ball_min(v, m), npt.assert_array_equal),
            (np.maximum, v, lambda m: dense.ball_max(v, m), npt.assert_array_equal),
            (np.logaddexp, logs, lambda m: dense.ball_logsumexp(logs, m), assert_close),
        ]
        for strict in (False, True):
            masks = [dense.ball_mask(grid, r, strict) for r in radii]
            for ufunc, x, dense_reduce, check in refs:
                out = grid.stencil.ball_reduce(x, radii, strict, ufunc=ufunc)
                for row, mask in zip(out, masks):
                    check(row, dense_reduce(mask))
                for row in out[1:4]:
                    npt.assert_array_equal(row, out[0])
                npt.assert_array_equal(out[5], out[4])

    def test_sup_over_balls_matches_dense_scatter(self, fld):
        grid = fld.grid
        radii = grid.dyadic_radii(0.5)
        vals = fld.values[: len(radii)]
        masks = [dense.ball_mask(grid, r) for r in radii]
        npt.assert_array_equal(
            grid.stencil.nested_reduce(vals.copy(), radii, ufunc=np.maximum),
            dense.scatter_max(masks, vals, grid.n_cells),
        )


class TestNestedReduce:
    """The row-and-column pass of `nested_reduce` on odd and even sides,
    with radius lists whose largest ball is smaller than the torus (so
    rows and columns are skipped) and lists that cover it."""

    SIDES = [(1, 7), (1, 16), (2, 9), (2, 12), (2, 16)]

    @staticmethod
    def radius_lists(grid):
        h = grid.h
        return [[h], [0.5 * h, h, 2.5 * h], [h, 3 * h, 3 * h, 4.5 * h],
                grid.dyadic_radii(0.5), [0.1, 0.8]]

    @pytest.mark.parametrize("dim, n", SIDES)
    @pytest.mark.parametrize("strict", [False, True])
    def test_matches_dense(self, dim, n, strict):
        grid = Grid(dim, n)
        rng = np.random.default_rng(n + 10 * dim)
        for radii in self.radius_lists(grid):
            vals = rng.random((len(radii), grid.n_cells))
            masks = [dense.ball_mask(grid, r, strict) for r in radii]
            npt.assert_array_equal(
                grid.stencil.nested_reduce(vals.copy(), radii, strict, ufunc=np.maximum),
                dense.scatter_max(masks, vals, grid.n_cells),
            )
            assert_close(
                grid.stencil.nested_reduce(vals.copy(), radii, strict),
                dense.scatter_sum(masks, vals),
            )

    @given(
        side=st.sampled_from(SIDES),
        strict=st.booleans(),
        density=st.sampled_from([0.01, 0.05, 0.3]),
        scales=st.lists(st.floats(0.05, 2.0), min_size=2, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_sparse_monotone_and_exact_zeros(self, side, strict, density, scales, seed):
        dim, n = side
        grid = Grid(dim, n)
        ladder = np.sort([grid.h, 2 * grid.h, 0.2, 0.45])
        rng = np.random.default_rng(seed)
        vals = rng.random((ladder.size, grid.n_cells))
        vals *= rng.random(vals.shape) < density
        sums = []
        for scale in sorted(scales):
            radii = scale * ladder
            got = grid.stencil.nested_reduce(vals.copy(), radii, strict)
            # a cell that no ball reaches with a nonzero value is exactly 0
            masks = [dense.ball_mask(grid, r, strict) for r in radii]
            reach = dense.scatter_sum(masks, (vals != 0).astype(float))
            npt.assert_array_equal(got[reach == 0], 0.0)
            assert np.all(got[reach > 0] > 0)
            sums.append(got)
        for lo, hi in zip(sums, sums[1:]):
            assert np.all(lo <= hi)  # tolerance 0
        zero = grid.stencil.nested_reduce(np.zeros_like(vals), ladder, strict)
        npt.assert_array_equal(zero, 0.0)

    def test_callers_leave_inputs_unchanged(self):
        # nested_reduce overwrites its buffer, so each caller hands it one
        # of its own
        fld = make_field(2, 9, seed=2)
        kept = fld.values.copy()
        f = fld.values[5] - 0.5
        kept_f = f.copy()
        cone_all(fld, 2.0)
        carleson_p_all(fld, 1.5)
        maximal(f, fld.grid, 1.5, base=fld.weight)
        npt.assert_array_equal(fld.values, kept)
        npt.assert_array_equal(f, kept_f)

    def test_rejects_integer_buffer(self):
        grid = Grid(1, 8)
        with pytest.raises(ValueError, match="float64"):
            grid.stencil.nested_reduce(np.ones((1, 8), dtype=int), [0.25])

    def test_rejects_other_reductions(self):
        grid = Grid(1, 8)
        with pytest.raises(ValueError, match="np.add and np.maximum"):
            grid.stencil.nested_reduce(np.ones((1, 8)), [0.25], ufunc=np.minimum)


class TestTent:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_cone(self, fld, alpha):
        assert_close(cone_all(fld, alpha), dense.cone_all(fld, alpha))

    @pytest.mark.parametrize("p0", [1.0, 2.0])
    def test_carleson_p(self, fld, p0):
        assert_close(carleson_p_all(fld, p0), dense.carleson_p_all(fld, p0))


class TestMaximal:
    @pytest.mark.parametrize("base", [UNIT_WEIGHT, PowerWeight(-0.5)],
                             ids=["lebesgue", "weighted"])
    def test_maximal(self, fld, base):
        f = fld.values[5] - 0.5
        assert_close(
            maximal(f, fld.grid, 1.5, base=base), dense.maximal(f, fld.grid, 1.5, base)
        )


class TestClassConstants:
    @pytest.mark.parametrize("p", [1.0, 2.0, 1.001])
    def test_ap(self, fld, p):
        grid = fld.grid
        w = PowerWeight(1.3)
        wv = w.sample(grid)
        if p == 1.001:  # the dual power leaves float range: log-sum path
            assert np.abs(np.log(wv) / (p - 1.0)).max() > _LOG_SAFE
        want = dense.class_constant(wv, np.ones(grid.n_cells), grid, "Ap", p)
        assert_close(ap_constant(w, p, grid), want)

    @pytest.mark.parametrize("s", [2.0, math.inf])
    def test_rh(self, fld, s):
        grid = fld.grid
        w = PowerWeight(-0.7)
        want = dense.class_constant(w.sample(grid), np.ones(grid.n_cells), grid, "RHs", s)
        assert_close(rh_constant(w, s, grid), want)

    # the classes A_2(w) and RH_2(w) in the field's measure w dx
    @pytest.mark.parametrize("family,index", [
        pytest.param("Ap", 2.0, id="Ap_of_w-2.0"), pytest.param("RHs", 2.0, id="RHs_of_w-2.0"),
    ])
    def test_weighted_families(self, fld, family, index):
        grid = fld.grid
        v = PowerWeight(-0.5)
        got = weighted_class_constant(v, fld.weight, ClassKind(family, index), grid)
        want = dense.class_constant(
            v.sample(grid), fld.weight.sample(grid), grid, family, index
        )
        assert_close(got, want)


def test_g_alpha_functional(fld):
    grid = fld.grid
    args = (grid, fld.weight_values, fld.values[0] - 0.5)
    for alpha in (1.0, 0.5, 0.25):
        assert_close(
            _g_alpha_functional(*args, alpha, 0.25, 1.5),
            dense.g_alpha_functional(*args, np.ones(grid.n_cells), alpha, 0.25, 1.5),
        )


@given(
    dim=st.sampled_from([1, 2]),
    n=st.sampled_from([8, 16]),
    frac=st.floats(-0.99, 0.99),
    density=st.sampled_from([0.02, 0.2, 1.0]),
    apertures=st.lists(st.floats(0.1, 3.0), min_size=2, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_aperture_monotone_and_fubini(dim, n, frac, density, apertures, seed):
    # random non-negative field and power weight alpha in (-dim, dim)
    grid = Grid(dim, n)
    ladder = TimeLadder(grid.h / 4, 1.0, 2 ** (1 / 4))
    rng = np.random.default_rng(seed)
    vals = np.abs(rng.standard_normal((ladder.count, grid.n_cells)))
    # sparse support: larger cones often add only zeros, so the two sums
    # are equal in exact arithmetic and only a fixed order keeps them equal
    vals *= rng.random(vals.shape) < density
    fld = HalfSpaceField(grid, ladder, PowerWeight(frac * dim), vals)
    cones = {a: cone_all(fld, a) for a in sorted({0.5, 1.0, 2.0, *apertures})}
    ordered = list(cones.values())
    for lo, hi in zip(ordered, ordered[1:]):
        assert np.all(lo <= hi)  # tolerance 0
    cone_sq = float(np.sum(cones[1.0] ** 2 * fld.weight_values * grid.cell_volume))
    direct = fubini_norm_sq(fld)
    assert abs(cone_sq - direct) <= 1e-12 * direct
    # the Carleson functional is one of the averages the maximal operator
    # of the aperture-1 cone sups over
    for p0 in (1.0, 2.0):
        c = carleson_p_all(fld, p0)
        m = maximal(cones[1.0], grid, p0=p0, base=fld.weight)
        assert np.all(c <= m * (1 + 1e-10) + 1e-14)


# a NaN aperture, exponent or radius, or an infinite exponent, rejected by
# each entry point that takes one
NAN_CALLS = {
    "cone_all": lambda fld: cone_all(fld, math.nan),
    "carleson_p_all": lambda fld: carleson_p_all(fld, math.nan),
    "maximal": lambda fld: maximal(fld.values[0], fld.grid, math.nan),
    "lp_norm": lambda fld: lp_norm(fld.values[0], math.nan, UNIT_WEIGHT, fld.weight,
                                   fld.grid),
    "ball_reduce": lambda fld: fld.grid.stencil.ball_reduce(fld.values[0], [0.25, math.nan]),
    "carleson_p_all-inf": lambda fld: carleson_p_all(fld, math.inf),
    "maximal-inf": lambda fld: maximal(fld.values[0], fld.grid, math.inf),
    "lp_norm-inf": lambda fld: lp_norm(fld.values[0], math.inf, UNIT_WEIGHT, fld.weight,
                                       fld.grid),
}


@pytest.mark.parametrize("name", sorted(NAN_CALLS))
def test_rejects_nan_parameter(name):
    with pytest.raises(ValueError, match="positive|> 0"):
        NAN_CALLS[name](make_field(2, 8))
