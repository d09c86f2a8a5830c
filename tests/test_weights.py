"""Tests for A_p / RH_s class constants and refinement-based membership."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import ball_mask
from tentcalc import mesh, weights
from tentcalc.mesh import BallStencil, Grid, PowerWeight, UNIT_WEIGHT
from tentcalc.weights import (
    ClassKind,
    ap_constant,
    estimate_critical_index,
    membership_by_refinement,
    rh_constant,
    weighted_class_constant,
)

# explicit-loop oracle values (see the ball-family layout in the module
# docstring: centers x dyadic radii <= 1/4)
ORACLE_AP2_A1_D1N8 = 1.8198095238095235
ORACLE_AP1_A1_D1N8 = 4.6
ORACLE_RH2_A1_D1N8 = 1.212678125181665
ORACLE_RHINF_A1_D1N8 = 2.058823529411765
ORACLE_A2W_VINV_D1N8 = 1.4705882352941178
ORACLE_AP2_A1_D2N16 = 1.4514013749856693
ORACLE_RH4_A1_D2N16 = 1.2379937373023198
ORACLE_DIVERGENT = [6.182915329087345, 10.072911493981321, 15.428842749569505]


class TestClassKind:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            ClassKind("Bp", 2.0)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            ClassKind("Ap", 0.5)
        with pytest.raises(ValueError):
            ClassKind("RHs", 1.0)
        with pytest.raises(ValueError):
            ClassKind("Ap", math.inf)

    @pytest.mark.parametrize("family", ["Ap", "RHs"])
    def test_rejects_bool_index(self, family):
        with pytest.raises(ValueError, match="index must be a real number"):
            ClassKind(family, True)

    def test_rh_infinity_allowed(self):
        assert ClassKind("RHs", math.inf).index == math.inf

    def test_estimate_rejects_constant_below_one(self, monkeypatch):
        monkeypatch.setattr(weights, "_max_product", lambda *args: 0.5)
        with pytest.raises(ValueError, match="below 1"):
            ap_constant(UNIT_WEIGHT, 2.0, Grid(1, 8))


class TestApConstant:
    def test_unit_weight_is_one(self):
        g = Grid(2, 8)
        for p in (1, 1.5, 2, 4):
            assert ap_constant(UNIT_WEIGHT, p, g) == pytest.approx(1.0)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            ap_constant(UNIT_WEIGHT, 0.9, Grid(1, 8))

    def test_frozen_oracle_dim1(self):
        g = Grid(1, 8)
        w = PowerWeight(1.0)
        assert ap_constant(w, 2.0, g) == pytest.approx(ORACLE_AP2_A1_D1N8, rel=1e-12)
        assert ap_constant(w, 1, g) == pytest.approx(ORACLE_AP1_A1_D1N8, rel=1e-12)

    def test_frozen_oracle_dim2(self):
        got = ap_constant(PowerWeight(1.0), 2.0, Grid(2, 16))
        assert got == pytest.approx(ORACLE_AP2_A1_D2N16, rel=1e-12)

    @given(
        alpha=st.floats(-0.9, 0.9),
        p1=st.floats(1.0, 4.0),
        p2=st.floats(1.0, 4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_p(self, alpha, p1, p2):
        # A_{p1} subset A_{p2} for p1 <= p2, so the constant decreases
        g = Grid(1, 8)
        w = PowerWeight(alpha)
        lo, hi = sorted((p1, p2))
        c_lo = ap_constant(w, lo, g)
        c_hi = ap_constant(w, hi, g)
        assert c_hi <= c_lo * (1 + 1e-10)

    @given(alpha=st.floats(-0.9, 1.5), p=st.floats(1.1, 3.0), seed=st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_inclusion_inequality(self, alpha, p, seed):
        # (|E|/|B|)^p <= [w]_{A_p} w(E)/w(B) for subsets E of a family ball
        g = Grid(2, 8)
        w = PowerWeight(alpha)
        c = ap_constant(w, p, g)
        rng = np.random.default_rng(seed)
        b = np.nonzero(ball_mask(g, 0.25)[int(rng.integers(g.n_cells))])[0]
        k = int(rng.integers(1, len(b) + 1))
        e = rng.choice(b, size=k, replace=False)
        wv = w.sample(g)
        lhs = (len(e) / len(b)) ** p
        rhs = c * wv[e].sum() / wv[b].sum()
        assert lhs <= rhs * (1 + 1e-10)


class TestRhConstant:
    def test_unit_weight_is_one(self):
        g = Grid(1, 8)
        assert rh_constant(UNIT_WEIGHT, 2.0, g) == pytest.approx(1.0)
        assert rh_constant(UNIT_WEIGHT, math.inf, g) == pytest.approx(1.0)

    def test_rejects_s_at_or_below_one(self):
        with pytest.raises(ValueError):
            rh_constant(UNIT_WEIGHT, 1.0, Grid(1, 8))

    def test_frozen_oracle(self):
        g = Grid(1, 8)
        w = PowerWeight(1.0)
        assert rh_constant(w, 2.0, g) == pytest.approx(ORACLE_RH2_A1_D1N8, rel=1e-12)
        assert rh_constant(w, math.inf, g) == pytest.approx(ORACLE_RHINF_A1_D1N8, rel=1e-12)
        got = rh_constant(PowerWeight(1.0), 4.0, Grid(2, 16))
        assert got == pytest.approx(ORACLE_RH4_A1_D2N16, rel=1e-12)

    def test_infinity_dominates_finite(self):
        # L^s means increase in s, so RH_oo has the largest constant
        g = Grid(1, 16)
        w = PowerWeight(0.7)
        c_inf = rh_constant(w, math.inf, g)
        for s in (1.5, 2.0, 4.0, 8.0):
            assert rh_constant(w, s, g) <= c_inf * (1 + 1e-12)


class TestWeightedClassConstant:
    def test_unit_v_is_one_for_any_w(self):
        g = Grid(2, 8)
        for alpha in (-1.0, 0.0, 1.5):
            w = PowerWeight(alpha)
            got = weighted_class_constant(UNIT_WEIGHT, w, ClassKind("Ap", 2.0), g)
            assert got == pytest.approx(1.0)

    def test_frozen_oracle_dual_weight(self):
        g = Grid(1, 8)
        w = PowerWeight(1.0)
        got = weighted_class_constant(PowerWeight(-1.0), w, ClassKind("Ap", 2.0), g)
        assert got == pytest.approx(ORACLE_A2W_VINV_D1N8, rel=1e-12)

    def test_plain_family_matches_direct(self):
        # the plain classes are the Lebesgue measure UNIT_WEIGHT
        g = Grid(1, 16)
        v = PowerWeight(0.5)
        for kind, plain in ((ClassKind("Ap", 2.0), ap_constant),
                            (ClassKind("RHs", 2.0), rh_constant)):
            via_weighted = weighted_class_constant(v, UNIT_WEIGHT, kind, g)
            assert via_weighted == plain(v, kind.index, g)


def separate_passes(values, base, grid, kind):
    """The class product on a fresh, uncached stencil with one ball pass
    per average."""
    stencil = BallStencil(grid)
    radii = grid.dyadic_radii(0.25)
    mass = stencil.ball_reduce(base, radii)
    avg_v = stencil.ball_reduce(values * base, radii) / mass
    p = kind.index
    if kind.family == "Ap":
        if p == 1:
            per_ball = avg_v / stencil.ball_reduce(values, radii, ufunc=np.minimum)
        else:
            dual = -1.0 / (p - 1.0)
            avg_s = stencil.ball_reduce(values**dual * base, radii) / mass
            per_ball = avg_v * avg_s ** (p - 1.0)
    elif math.isinf(p):
        per_ball = stencil.ball_reduce(values, radii, ufunc=np.maximum) / avg_v
    else:
        avg_pow = stencil.ball_reduce(values**p * base, radii) / mass
        per_ball = avg_pow ** (1.0 / p) / avg_v
    return max(float(row.max()) for row in per_ball)


PASS_KINDS = [("Ap", 1.0), ("Ap", 2.0), ("Ap", 4.0),
              ("RHs", 2.0), ("RHs", 4.0), ("RHs", math.inf)]


class TestSharedStencilPasses:
    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("family,index", PASS_KINDS)
    def test_same_bits_as_separate_passes(self, n, family, index):
        grid = Grid(2, n)
        v, w = PowerWeight(-1.2), PowerWeight(0.5)
        vv, wv = v.sample(grid), w.sample(grid)
        ones = np.ones(grid.n_cells)
        kind = ClassKind(family, index)
        plain = ap_constant if family == "Ap" else rh_constant
        assert plain(v, index, grid) == separate_passes(vv, ones, grid, kind)
        assert weighted_class_constant(v, w, kind, grid) \
            == separate_passes(vv, wv, grid, kind)

    def test_refinement_builds_one_stencil_per_size(self, monkeypatch):
        built = []
        init = BallStencil.__init__

        def counting_init(self, grid):
            built.append(grid)
            init(self, grid)

        monkeypatch.setattr(BallStencil, "__init__", counting_init)
        mesh._stencil.cache_clear()
        kinds = [ClassKind(f, i) for f, i in PASS_KINDS[:5]]
        for kind in kinds:
            membership_by_refinement(PowerWeight(-1.0), kind, 2, sizes=(16, 32, 64))
        assert built == [Grid(2, 16), Grid(2, 32), Grid(2, 64)]


class TestRefinement:
    def test_divergence_witness_ap(self):
        # alpha = 1.5 > n(p-1) = 1 in dim 1: constants must grow
        verdict = membership_by_refinement(
            PowerWeight(1.5), ClassKind("Ap", 2.0), 1
        )
        assert not verdict.member
        np.testing.assert_allclose(verdict.constants, ORACLE_DIVERGENT, rtol=1e-12)
        assert verdict.constants[0] < verdict.constants[1] < verdict.constants[2]
        c = verdict.constants
        assert max(b / a for a, b in zip(c, c[1:])) > 1.15

    def test_stable_member_ap(self):
        # alpha = 1 < n(p-1) = 2 in dim 2: constants stabilize
        verdict = membership_by_refinement(
            PowerWeight(1.0), ClassKind("Ap", 2.0), 2
        )
        assert verdict.member

    def test_divergence_witness_rh(self):
        # alpha = -0.8 < -n/s = -0.5 in dim 1
        verdict = membership_by_refinement(
            PowerWeight(-0.8), ClassKind("RHs", 2.0), 1
        )
        assert not verdict.member

    def test_stable_member_rh(self):
        # alpha = 1 > -n/s = -0.5 in dim 2
        verdict = membership_by_refinement(
            PowerWeight(1.0), ClassKind("RHs", 4.0), 2
        )
        assert verdict.member

    @pytest.mark.parametrize("sizes", [(), (16,), (32, 16), (16, 16, 32)], ids=str)
    def test_rejects_fewer_than_two_or_unordered_sizes(self, sizes):
        with pytest.raises(ValueError, match="sizes"):
            membership_by_refinement(UNIT_WEIGHT, ClassKind("Ap", 2.0), 1, sizes=sizes)

    def test_duality_sweep_dim1(self):
        # v = w^{-1} in RH_2(w) iff w in A_2; dim 1 closed form -1 < alpha < 1
        for alpha in (-1.5, -0.5, 0.0, 0.5, 1.5):
            w = PowerWeight(alpha)
            verdict = membership_by_refinement(
                PowerWeight(-alpha), ClassKind("RHs", 2.0), 1, w=w
            )
            assert verdict.member == (-1 < alpha < 1), f"alpha={alpha}"


class TestCriticalIndex:
    @pytest.mark.parametrize("family", ["Ap", "RHs"])
    @pytest.mark.parametrize("lo, hi", [(4.0, 1.0), (2.0, 2.0), (math.nan, 4.0),
                                        (2.0, math.inf)])
    def test_rejects_a_bracket_before_any_sweep(self, family, lo, hi, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("membership swept")

        monkeypatch.setattr(weights, "membership_by_refinement", refuse)
        with pytest.raises(ValueError, match="finite lo < hi"):
            estimate_critical_index(PowerWeight(0.5), UNIT_WEIGHT, family, 1,
                                    lo=lo, hi=hi, iters=3)

    def test_ap_of_w_boundary_dim1(self):
        # v = w^{-1} in A_p(w) iff w in RH_{p'}; for alpha = -0.5 in dim 1
        # that is p' < n/|alpha| = 2, i.e. p > 2.  The estimator brackets
        # from above and its bias shrinks under refinement, so assert the
        # bracket, the frozen default-size value, and the improvement.
        w = PowerWeight(-0.5)
        v = PowerWeight(0.5)
        got = estimate_critical_index(v, w, "Ap", 1, lo=1.0, hi=5.0, iters=8)
        assert got > 2.0
        assert got == pytest.approx(3.875, abs=1e-12)
        finer = estimate_critical_index(
            v, w, "Ap", 1, lo=1.0, hi=5.0, iters=8, sizes=(64, 128, 256)
        )
        assert 2.0 < finer < got
