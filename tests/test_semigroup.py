"""Tests for heat/Poisson evaluation and subordination."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import inner_w, spatial_part
from tentcalc.mesh import Grid, PowerWeight, UNIT_WEIGHT
from tentcalc import squarefn
from tentcalc.operator import CoefficientField, assemble
from tentcalc.semigroup import (
    LADDER_CAP,
    ORDER_CAP,
    TimeLadder,
    _centered_difference,
    grad_eval,
    heat_eval,
    multiplier_tables,
    poisson_eval,
    poisson_grad_eval,
    spatial_norm_sq,
    subordination_factors,
)


@pytest.fixture(scope="module")
def op_flat16():
    g = Grid(1, 16)
    return assemble(g, CoefficientField.identity(g), UNIT_WEIGHT)


@pytest.fixture(scope="module")
def op_weighted16():
    g = Grid(1, 16)
    return assemble(g, CoefficientField.identity(g), PowerWeight(0.5))


@pytest.fixture(scope="module")
def op_weighted8x8():
    g = Grid(2, 8)
    return assemble(g, CoefficientField([1.0, 2.0]), PowerWeight(0.5))


def l2w(op, f):
    return math.sqrt(inner_w(op, f, f))


def subordinated_eval(op, big_k, t, f):
    """The Poisson image from the subordination reference: at each time,
    (t^2 lam)^K e^{-t sqrt(lam)} project(f) in global mode order,
    reconstructed; one time (M,) or J times (J, M), without validation."""
    lam, coeffs = op.eigenvalues, op.project(f)
    rows = [(s * s * lam) ** big_k * subordination_factors(lam, s) * coeffs
            for s in np.atleast_1d(t)]
    return op.reconstruct(np.reshape(rows, np.shape(t) + lam.shape))


# each evaluator with the plain image whose centered differences its
# spatial gradient takes (None for the plain evaluators)
EVALUATORS = {
    "heat": (heat_eval, None),
    "grad": (grad_eval, heat_eval),
    "poisson": (poisson_eval, None),
    "poisson_grad": (poisson_grad_eval, poisson_eval),
}
# the evaluators and the subordination reference, which must stack times alike
STACKING = {**EVALUATORS, "poisson_subordination": (subordinated_eval, None)}


class TestTimeLadder:
    def test_default(self):
        g = Grid(1, 16)
        ladder = TimeLadder.default_for(g)
        assert ladder.t_min == pytest.approx(g.h / 4)
        assert ladder.t_max == 1.0
        nodes = ladder.nodes
        assert nodes[0] == pytest.approx(ladder.t_min)
        assert nodes[-1] <= 1.0 * (1 + 1e-9)
        assert nodes[-1] * ladder.ratio > 1.0
        npt.assert_allclose(nodes[1:] / nodes[:-1], ladder.ratio)

    def test_node_weight(self):
        ladder = TimeLadder(0.1, 1.0, 2.0)
        assert ladder.node_weight == pytest.approx(math.log(2.0))
        npt.assert_allclose(ladder.nodes, [0.1, 0.2, 0.4, 0.8])

    def test_exact_endpoint_included(self):
        ladder = TimeLadder(0.125, 1.0, 2.0)
        npt.assert_allclose(ladder.nodes, [0.125, 0.25, 0.5, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeLadder(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            TimeLadder(0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            TimeLadder(1.0, 0.5, 2.0)

    def test_node_cap(self):
        # exactly LADDER_CAP nodes pass; one more node, a ratio near 1 or a
        # t_max / t_min overflowing to inf is rejected from the count
        # formula alone, before any node is built
        at_cap = TimeLadder(1.0, 1.1 ** (LADDER_CAP - 0.5), 1.1)
        assert at_cap.count == LADDER_CAP
        tracemalloc.start()
        try:
            for args in ((1.0, 1.1 ** (LADDER_CAP + 0.5), 1.1),
                         (1e-3, 1.0, 1 + 1e-12), (5e-324, 8.0, 2.0)):
                with pytest.raises(ValueError, match="nodes"):
                    TimeLadder(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestHeatEval:
    def test_strong_continuity(self, op_flat16):
        rng = np.random.default_rng(0)
        f = rng.normal(size=16)
        out = heat_eval(op_flat16, 0, 1e-6, f)
        assert np.max(np.abs(out - f)) <= 1e-8

    def test_t_zero_identity(self, op_weighted16):
        rng = np.random.default_rng(1)
        f = rng.normal(size=16)
        npt.assert_allclose(heat_eval(op_weighted16, 0, 0.0, f), f, atol=1e-12)
        npt.assert_allclose(heat_eval(op_weighted16, 2, 0.0, f), 0.0, atol=1e-12)

    def test_constant_annihilated_for_positive_m(self, op_weighted16):
        c = np.full(16, 3.0)
        npt.assert_allclose(heat_eval(op_weighted16, 1, 0.3, c), 0.0, atol=1e-10)

    @given(t=st.floats(1e-3, 10.0), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_contraction(self, t, seed, op_weighted16):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=16)
        assert l2w(op_weighted16, heat_eval(op_weighted16, 0, t, f)) <= l2w(
            op_weighted16, f
        ) * (1 + 1e-12)

    def test_rejects_order_out_of_cap(self, op_flat16):
        f = np.ones(16)
        with pytest.raises(ValueError):
            heat_eval(op_flat16, 5, 0.1, f)
        with pytest.raises(ValueError):
            heat_eval(op_flat16, -1, 0.1, f)

    def test_commutation(self, op_weighted16):
        # (t^2 L)^m of the semigroup output equals the one-shot evaluation
        rng = np.random.default_rng(2)
        f = rng.normal(size=16)
        t = 0.2
        direct = heat_eval(op_weighted16, 2, t, f)
        base = heat_eval(op_weighted16, 0, t, f)
        lam = op_weighted16.eigenvalues
        via = op_weighted16.reconstruct(
            (t * t * lam) ** 2 * op_weighted16.project(base)
        )
        npt.assert_allclose(via, direct, atol=1e-10)


class TestGradEval:
    def test_constant_gives_zero_field(self, op_weighted16):
        u, time = grad_eval(op_weighted16, 0, 0.5, np.full(16, 2.0))
        npt.assert_allclose(spatial_part(op_weighted16.grid, 0.5, u), 0.0, atol=1e-12)
        npt.assert_allclose(time, 0.0, atol=1e-12)

    def test_time_part_is_minus_two_heat_m1(self, op_weighted16):
        # m = 0: t d_t e^{-t^2 L} f = -2 (t^2 L) e^{-t^2 L} f, coefficientwise
        rng = np.random.default_rng(3)
        f = rng.normal(size=16)
        t = 0.35
        _, time = grad_eval(op_weighted16, 0, t, f)
        npt.assert_allclose(
            time, -2.0 * heat_eval(op_weighted16, 1, t, f), rtol=1e-13, atol=1e-14
        )

    def test_spatial_matches_fft_symbol(self, op_flat16):
        # centered difference of a flat-grid eigenmode via the DFT symbol
        # i sin(2 pi k / N) / h
        k_mode = 5
        t = 0.1
        f = op_flat16.mode(k_mode)
        out, _ = grad_eval(op_flat16, 0, t, f)
        u = heat_eval(op_flat16, 0, t, f)
        freq = np.fft.rfftfreq(16, d=1.0) * 16  # integer frequencies
        symbol = 1j * np.sin(2 * np.pi * freq / 16) / op_flat16.grid.h
        via_fft = np.fft.irfft(np.fft.rfft(u) * symbol, n=16)
        npt.assert_allclose(spatial_part(op_flat16.grid, t, out)[0], t * via_fft, atol=1e-8)

    def test_norm_sq_combines_parts(self, monkeypatch):
        # centered differences of u over 2h = 1/2 are (4, 0, -4, 0); t = 3/4.
        # Each row of the family table combines the parts it reads from
        # the images that the module's evaluator names return.
        grid = Grid(1, 4)
        u = np.array([0.0, 1.0, 0.0, -1.0])
        time = np.array([4.0, 1.0, 4.0, 0.0])
        npt.assert_array_equal(spatial_part(grid, 0.75, u), [[3.0, 0.0, -3.0, 0.0]])
        npt.assert_array_equal(spatial_norm_sq(grid, 0.75, u), [9.0, 0.0, 9.0, 0.0])
        # the Poisson evaluators return twice the heat images
        for scale, plain, grad in ((1.0, "heat_eval", "grad_eval"),
                                   (2.0, "poisson_eval", "poisson_grad_eval")):
            monkeypatch.setattr(squarefn, plain, lambda *args, s=scale: s * u[None])
            monkeypatch.setattr(squarefn, grad,
                                lambda *args, s=scale: [s * u[None], s * time[None]])
        op = assemble(grid, CoefficientField.identity(grid), UNIT_WEIGHT)
        ladder = TimeLadder(0.75, 0.75, 2.0)
        for family, want in [("S", [0.0, 1.0, 0.0, 1.0]), ("G", [3.0, 0.0, 3.0, 0.0]),
                             ("Gcal", [5.0, 1.0, 5.0, 0.0])]:
            for suffix, scale in (("_H", 1.0), ("_P", 2.0)):
                kind = squarefn.SquareFunctionKind(family + suffix)
                fld = squarefn.build_field(kind, op, u, ladder)
                npt.assert_array_equal(fld.values, [scale * np.array(want)])
        vertical = squarefn.SquareFunctionKind("vertical_g_H")
        npt.assert_array_equal(squarefn.evaluate(vertical, op, u, ladder),
                               np.sqrt(np.array([25.0, 1.0, 25.0, 0.0]) * math.log(2.0)))


class TestPoisson:
    def test_scalar_lambda_zero(self):
        assert float(subordination_factors(0.0, 1.0)[0]) == pytest.approx(1.0, abs=1e-9)

    def test_scalar_closed_form(self):
        # e^{-t sqrt(lam)} at lam = 4, t = 1
        assert float(subordination_factors(4.0, 1.0)[0]) == pytest.approx(
            math.exp(-2.0), abs=1e-8)

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_subordination_rejects_bad_time(self, t):
        with pytest.raises(ValueError, match="nonnegative"):
            subordination_factors(np.array([1.0, 4.0]), t)

    def test_subordination_vector_agrees_with_exp(self):
        lam = np.array([0.0, 1.0, 10.0, 400.0, 2000.0])
        for t in (0.05, 0.3, 1.0):
            got = subordination_factors(lam, t)
            npt.assert_allclose(got, np.exp(-t * np.sqrt(lam)), atol=1e-9)

    def test_subordination_sweep(self):
        # the largest eigenvalue within the config caps: dim 1, 128 cells,
        # A = 100 and a weight power next to 1 (7.6e6; dim 2 at 64 cells
        # reaches 4.4e6)
        g = Grid(1, 128)
        top = assemble(g, CoefficientField([100.0]),
                       PowerWeight(1 - 1e-9)).eigenvalues.max()
        lam = np.concatenate([[0.0, top], np.geomspace(1e-3, 1e7, 400)])
        worst = max(
            np.max(np.abs(subordination_factors(lam, t) - np.exp(-t * np.sqrt(lam))))
            for t in np.geomspace(1e-3, 8.0, 60)
        )
        assert worst <= 1e-12
        # at M = 4096 no call holds a (nodes x M) table (15.8 MB)
        lam = np.linspace(0.0, top, 4096)
        tracemalloc.start()
        try:
            subordination_factors(lam, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_methods_agree(self, op_weighted16):
        # the closed-form images against the subordination reference
        rng = np.random.default_rng(4)
        f = rng.normal(size=16)
        for big_k in (0, 1, 2):
            for t in (0.05, 0.3, 1.0):
                a = poisson_eval(op_weighted16, big_k, t, f)
                b = subordinated_eval(op_weighted16, big_k, t, f)
                assert l2w(op_weighted16, a - b) <= 1e-8

    def test_semigroup_law(self, op_weighted16):
        rng = np.random.default_rng(5)
        f = rng.normal(size=16)
        s, t = 0.2, 0.45
        via_two = poisson_eval(op_weighted16, 0, t, poisson_eval(op_weighted16, 0, s, f))
        direct = poisson_eval(op_weighted16, 0, s + t, f)
        npt.assert_allclose(via_two, direct, atol=1e-8)

    @given(t=st.floats(1e-3, 10.0), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_contraction(self, t, seed, op_weighted16):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=16)
        assert l2w(op_weighted16, poisson_eval(op_weighted16, 0, t, f)) <= l2w(
            op_weighted16, f
        ) * (1 + 1e-12)

    def test_t_zero(self, op_weighted16):
        rng = np.random.default_rng(6)
        f = rng.normal(size=16)
        npt.assert_allclose(poisson_eval(op_weighted16, 0, 0.0, f), f, atol=1e-12)
        npt.assert_allclose(poisson_eval(op_weighted16, 1, 0.0, f), 0.0, atol=1e-12)


class TestPoissonGrad:
    def test_constant_zero(self, op_weighted16):
        for big_k in (0, 2):
            u, time = poisson_grad_eval(op_weighted16, big_k, 0.4, np.full(16, 1.5))
            npt.assert_allclose(spatial_part(op_weighted16.grid, 0.4, u), 0.0, atol=1e-12)
            npt.assert_allclose(time, 0.0, atol=1e-12)

    def test_time_part_finite_difference(self, op_weighted16):
        rng = np.random.default_rng(7)
        f = rng.normal(size=16)
        t, delta = 0.3, 1e-5
        _, time = poisson_grad_eval(op_weighted16, 0, t, f)
        fd = (
            poisson_eval(op_weighted16, 0, t + delta, f)
            - poisson_eval(op_weighted16, 0, t - delta, f)
        ) / (2 * delta)
        npt.assert_allclose(time, t * fd, rtol=1e-6, atol=1e-8)

    def test_time_component_dominated_by_full_gradient(self, op_weighted16):
        # |t d_t P f| <= |t grad_{y,t} P f| cell by cell, by construction
        rng = np.random.default_rng(8)
        f = rng.normal(size=16)
        u, time = poisson_grad_eval(op_weighted16, 1, 0.25, f)
        norm = np.sqrt(spatial_norm_sq(op_weighted16.grid, 0.25, u) + time**2)
        assert np.all(np.abs(time) <= norm + 1e-15)


class TestArrayTimes:
    """An array of J times gives the J scalar-time results stacked."""

    @staticmethod
    def assert_close(got, want, scale):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("name", sorted(STACKING))
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("op_name", ["op_weighted16", "op_weighted8x8"])
    def test_rows_match_scalar_calls(self, name, order, op_name, request):
        op = request.getfixturevalue(op_name)
        evaluator, image = STACKING[name]
        f = np.random.default_rng(11).normal(size=op.grid.n_cells)
        times = TimeLadder(op.grid.h / 4, 1.0, 2 ** 0.5).nodes
        block = evaluator(op, order, times, f)
        for j, t in enumerate(times):
            one = evaluator(op, order, float(t), f)
            if image is None:
                self.assert_close(block[j], one, np.max(np.abs(one)))
                continue
            self.assert_close(block[1][j], one[1], np.max(np.abs(one[1])))
            # once the image has decayed, its centered differences are
            # rounding noise of size t |u| / h, so that is the scale here
            u = image(op, order, float(t), f)
            self.assert_close(
                spatial_part(op.grid, times, block[0])[:, j],
                spatial_part(op.grid, float(t), one[0]), t * np.max(np.abs(u)) / op.grid.h
            )

    @pytest.mark.parametrize("name", sorted(STACKING))
    def test_block_shapes(self, name, op_weighted8x8):
        evaluator, image = STACKING[name]
        op = op_weighted8x8
        times = np.array([0.1, 0.2, 0.4])
        out = evaluator(op, 1, times, np.ones(op.grid.n_cells))
        if image is None:
            assert out.shape == (3, op.grid.n_cells)
        else:
            assert spatial_part(op.grid, times, out[0]).shape == (2, 3, op.grid.n_cells)
            assert out[1].shape == (3, op.grid.n_cells)
            assert spatial_norm_sq(op.grid, times, out[0]).shape == (3, op.grid.n_cells)

    @pytest.mark.parametrize("name", sorted(EVALUATORS))
    def test_rejects_bad_times_and_orders(self, name, op_flat16):
        evaluator, _ = EVALUATORS[name]
        f = np.ones(16)
        for t in (-0.1, math.nan, math.inf, np.array([0.1, -1e-9, 0.3]),
                  np.array([0.1, math.nan])):
            with pytest.raises(ValueError, match="nonnegative"):
                evaluator(op_flat16, 0, t, f)
        with pytest.raises(ValueError, match="1-D"):
            evaluator(op_flat16, 0, np.full((2, 2), 0.1), f)
        for order in (-1, ORDER_CAP + 1, 0.5):
            with pytest.raises(ValueError, match="power"):
                evaluator(op_flat16, order, 0.1, f)



@given(
    dim=st.sampled_from([1, 2]), side=st.integers(4, 12),
    alpha=st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True),
    entries=st.lists(st.floats(0.5, 4.0), min_size=2, max_size=2), equal=st.booleans(),
    log_t=st.floats(math.log(1e-3), 0.0), order=st.integers(0, 2), seed=st.integers(0, 999),
)
@settings(max_examples=60, deadline=None)
def test_contracts_over_drawn_operators(dim, side, alpha, entries, equal, log_t, order,
                                        seed):
    # w-self-adjointness at every order; positivity and L^2(w) contraction
    # at order 0, for heat and Poisson on drawn grids, weights and diagonal A
    grid = Grid(dim, side)
    coeff = CoefficientField(entries[:1] * dim if equal else entries[:dim])
    op = assemble(grid, coeff, PowerWeight(alpha * dim))
    t = math.exp(log_t)
    rng = np.random.default_rng(seed)
    f, g = rng.standard_normal((2, grid.n_cells))
    # nonnegative and zero on about two thirds of the cells
    positive = np.where(rng.random(grid.n_cells) < 0.3, rng.random(grid.n_cells), 0.0)
    for evaluator in (heat_eval, poisson_eval):
        tf, tg = evaluator(op, order, t, f), evaluator(op, order, t, g)
        defect = abs(inner_w(op, tf, g) - inner_w(op, f, tg))
        assert defect <= 1e-12 * l2w(op, f) * l2w(op, g)
        if order == 0:
            assert np.min(evaluator(op, 0, t, positive)) >= -1e-12 * np.max(positive)
            assert l2w(op, tf) <= (1 + 1e-12) * l2w(op, f)


def test_multiplier_tables_rejects_unknown_semigroup(op_flat16):
    with pytest.raises(ValueError, match="'Heat'; expected 'heat' or 'poisson'"):
        multiplier_tables(op_flat16, "Heat", 0, 0.1, np.ones(16))


@pytest.mark.parametrize("order", [True, False, np.True_],
                         ids=["True", "False", "numpy-True"])
@pytest.mark.parametrize("evaluator", [heat_eval, grad_eval, poisson_eval, poisson_grad_eval])
def test_evaluators_reject_bool_order(op_flat16, evaluator, order):
    # True == 1 == int(True), so only the type tells a bool from an order
    with pytest.raises(ValueError, match="power must be an integer"):
        evaluator(op_flat16, order, 0.1, np.ones(16))


@given(
    dim=st.sampled_from([1, 2]), side=st.integers(4, 17),
    times=st.none() | st.integers(1, 5), seed=st.integers(0, 999),
)
@settings(max_examples=60, deadline=None)
def test_centered_difference_is_rolled_difference(dim, side, times, seed):
    # at one time (M,) and at J times (J, M), along every axis, bit for bit
    grid = Grid(dim, side)
    shape = (grid.n_cells,) if times is None else (times, grid.n_cells)
    u = np.random.default_rng(seed).standard_normal(shape)
    v = u.reshape(shape[:-1] + (side,) * dim)
    for axis in range(dim):
        a = axis - dim
        want = (np.roll(v, -1, a) - np.roll(v, 1, a)).reshape(shape)
        assert np.array_equal(_centered_difference(grid, u, axis), want)


def test_spatial_norm_sq_blocks_match_single_times():
    # at M = 4096 the second axis is differenced in blocks of 8 times, the
    # last one partial; each row of the stack equals its own single-time
    # call bit for bit, and the np.roll reference within rounding
    grid = Grid(2, 64)
    t = np.linspace(0.01, 1.0, 19)
    u = np.random.default_rng(8).standard_normal((t.size, grid.n_cells))
    stack = spatial_norm_sq(grid, t, u)
    for j in range(t.size):
        assert np.array_equal(stack[j], spatial_norm_sq(grid, t[j], u[j]))
    npt.assert_allclose(stack, np.sum(spatial_part(grid, t, u) ** 2, axis=0), rtol=1e-13)


# the evaluator whose images the tables of (semigroup, time) reconstruct to
TABLE_IMAGES = {("heat", False): heat_eval, ("heat", True): grad_eval,
                ("poisson", False): poisson_eval, ("poisson", True): poisson_grad_eval}


@given(
    dim=st.sampled_from([1, 2]), side=st.integers(4, 9),
    alpha=st.floats(-0.95, 0.95), equal=st.booleans(),
    times=st.floats(0.0, 2.0) | st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4),
    order=st.integers(0, ORDER_CAP), seed=st.integers(0, 999),
)
@settings(max_examples=40, deadline=None)
def test_multiplier_tables_reconstruct_to_evaluator_images(dim, side, alpha, equal, times,
                                                           order, seed):
    # each table, reconstructed from block order, is the evaluator's image
    # bit for bit, at one time and at an array of times, with and without
    # the t d_t table
    grid = Grid(dim, side)
    coeff = CoefficientField([1.5] * dim if equal else [1.5, 3.0][:dim])
    op = assemble(grid, coeff, PowerWeight(alpha * dim))
    t = times if isinstance(times, float) else np.array(times)
    f = np.random.default_rng(seed).standard_normal(grid.n_cells)
    for (semigroup, time), evaluator in TABLE_IMAGES.items():
        tables = multiplier_tables(op, semigroup, order, t, f, time=time)
        images = evaluator(op, order, t, f)
        images = images if time else [images]
        assert len(tables) == len(images)
        for table, image in zip(tables, images):
            assert table.shape == np.shape(t) + (grid.n_cells,)
            assert np.array_equal(op.reconstruct_blocks(table), image)
