"""Square functions: modal constants, dominations, Fubini identities."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import spatial_part
from tentcalc.mesh import UNIT_WEIGHT, Grid, PowerWeight, lp_norm
from tentcalc.operator import CoefficientField, assemble
from tentcalc.semigroup import (
    TimeLadder,
    grad_eval,
    heat_eval,
    poisson_eval,
    poisson_grad_eval,
)
from tentcalc.squarefn import (
    SquareFunctionKind,
    build_field,
    evaluate,
    l2_norm_sq,
    result_to_csv,
)
from tentcalc.tent import cone_all
from tentcalc.verify import BankFunction, materialize

# notes/oracles/modal_ladder.py: dim 2, N = 16, w = distance^1,
# A = diag(1, 2), ladder t in [h/16, 4] at ratio 2^(1/16).
# Rows: eigenindex, eigenvalue, ladder sum for S_{1,H}, for S_{1,P};
# the continuum dt/t integrals are 1/8 and 3/8.
ORACLE_MODAL = [
    (1, 38.90627041732129, 0.12499991936590912, 0.37499992232088697),
    (2, 39.80738151067381, 0.12499991558898899, 0.3749999187165833),
    (3, 79.35902392463517, 0.12499966477960477, 0.3749996820330092),
    (4, 81.28678099592346, 0.12499964830890861, 0.3749996666162445),
    (5, 117.1759725507883, 0.12499926970969794, 0.3749993148390786),
]

ALL_CONE_KINDS = ["S_H", "G_H", "Gcal_H", "S_P", "G_P", "Gcal_P"]
VERTICAL = SquareFunctionKind("vertical_g_H")


@pytest.fixture(scope="module")
def op_modal():
    grid = Grid(2, 16)
    return assemble(grid, CoefficientField((1.0, 2.0)), PowerWeight(1.0))


@pytest.fixture(scope="module")
def wide_ladder(op_modal):
    return TimeLadder(op_modal.grid.h / 16, 4.0, 2 ** (1 / 16))


@pytest.fixture(scope="module")
def op_small():
    grid = Grid(1, 16)
    return assemble(grid, CoefficientField.identity(grid), PowerWeight(0.5))


@pytest.fixture(scope="module")
def small_ladder(op_small):
    return TimeLadder.default_for(op_small.grid)


def norm_sq_w(op, values):
    wv = op.weight_values
    return float(np.sum(np.asarray(values) ** 2 * wv) * op.grid.cell_volume)


class TestKind:
    def test_defaults(self):
        assert SquareFunctionKind("S_H").order == 1
        assert SquareFunctionKind("S_P").order == 1
        assert SquareFunctionKind("Gcal_H").order == 0
        assert SquareFunctionKind("vertical_g_H").order == 0

    @pytest.mark.parametrize(
        "family,order", [("S_H", 0), ("S_P", 0), ("G_H", 5), ("S_H", 5),
                         ("vertical_g_H", 1)]
    )
    def test_order_out_of_range(self, family, order):
        with pytest.raises(ValueError):
            SquareFunctionKind(family, order)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            SquareFunctionKind("S_X")

    @pytest.mark.parametrize("order", [1.5, True, "2", 2.0])
    def test_order_not_an_integer(self, order):
        with pytest.raises(ValueError, match="S_H order must be an integer"):
            SquareFunctionKind("S_H", order)

    def test_numpy_integer_order(self):
        kind = SquareFunctionKind("S_H", np.int64(2))
        assert kind == SquareFunctionKind("S_H", 2) and type(kind.order) is int


class TestModalConstants:
    def test_eigenvalues_match_oracle(self, op_modal):
        for k, lam, _, _ in ORACLE_MODAL:
            assert op_modal.eigenvalues[k] == pytest.approx(lam, rel=1e-8)

    def test_heat_constant_one_eighth(self, op_modal, wide_ladder):
        kind = SquareFunctionKind("S_H", 1)
        for k, _, q_heat, _ in ORACLE_MODAL:
            phi = op_modal.mode(k)
            got = norm_sq_w(op_modal, evaluate(kind, op_modal, phi, wide_ladder))
            got /= norm_sq_w(op_modal, phi)
            assert got == pytest.approx(0.125, rel=1e-4)
            assert got == pytest.approx(q_heat, rel=1e-6)

    def test_poisson_constant_three_eighths(self, op_modal, wide_ladder):
        kind = SquareFunctionKind("S_P", 1)
        for k, _, _, q_poisson in ORACLE_MODAL:
            phi = op_modal.mode(k)
            got = norm_sq_w(op_modal, evaluate(kind, op_modal, phi, wide_ladder))
            got /= norm_sq_w(op_modal, phi)
            assert got == pytest.approx(0.375, rel=1e-4)
            assert got == pytest.approx(q_poisson, rel=1e-6)


class TestFactorHalf:
    def test_heat_s_below_half_gcal(self, op_small, small_ladder):
        # the time part of the m = 0 gradient integrand is exactly
        # -2 (t^2 L) e^{-t^2 L} f, so S_{1,H} <= Gcal_{0,H} / 2 pointwise
        rng = np.random.default_rng(404)
        for _ in range(3):
            f = rng.standard_normal(op_small.grid.n_cells)
            s = evaluate(SquareFunctionKind("S_H", 1), op_small, f, small_ladder)
            g = evaluate(SquareFunctionKind("Gcal_H", 0), op_small, f, small_ladder)
            assert np.all(s <= 0.5 * g + 1e-12)

    def test_heat_s_below_half_gcal_dim2(self, op_modal):
        ladder = TimeLadder.default_for(op_modal.grid)
        f = np.random.default_rng(405).standard_normal(op_modal.grid.n_cells)
        s = evaluate(SquareFunctionKind("S_H", 1), op_modal, f, ladder)
        g = evaluate(SquareFunctionKind("Gcal_H", 0), op_modal, f, ladder)
        assert np.all(s <= 0.5 * g + 1e-12)


class TestGradientDomination:
    @pytest.mark.parametrize("spatial,full,order", [
        ("G_H", "Gcal_H", 0), ("G_H", "Gcal_H", 1), ("G_P", "Gcal_P", 1),
    ])
    def test_spatial_below_full(self, op_small, small_ladder, spatial, full, order):
        f = np.random.default_rng(406).standard_normal(op_small.grid.n_cells)
        lo = evaluate(SquareFunctionKind(spatial, order), op_small, f, small_ladder)
        hi = evaluate(SquareFunctionKind(full, order), op_small, f, small_ladder)
        assert np.all(lo <= hi + 1e-14)


class TestVerticalFubini:
    def test_gcal_norm_equals_vertical_norm(self, op_small, small_ladder):
        f = np.random.default_rng(407).standard_normal(op_small.grid.n_cells)
        conical = evaluate(SquareFunctionKind("Gcal_H", 0), op_small, f, small_ladder)
        vertical = evaluate(VERTICAL, op_small, f, small_ladder)
        a = norm_sq_w(op_small, conical)
        b = norm_sq_w(op_small, vertical)
        assert a == pytest.approx(b, rel=1e-12)

    def test_vertical_nonnegative(self, op_small, small_ladder):
        f = np.random.default_rng(409).standard_normal(op_small.grid.n_cells)
        assert np.all(evaluate(VERTICAL, op_small, f, small_ladder) >= 0)


class TestSpectralIdentity:
    @pytest.mark.parametrize("m", [1, 2])
    def test_two_paths_agree(self, op_small, small_ladder, m):
        f = np.random.default_rng(410).standard_normal(op_small.grid.n_cells)
        via_cone = norm_sq_w(
            op_small, evaluate(SquareFunctionKind("S_H", m), op_small, f, small_ladder)
        )
        via_spectrum = l2_norm_sq(SquareFunctionKind("S_H", m), op_small, f, small_ladder)
        assert via_cone == pytest.approx(via_spectrum, rel=1e-10)

    def test_two_paths_agree_dim2(self, op_modal):
        ladder = TimeLadder.default_for(op_modal.grid)
        f = np.random.default_rng(411).standard_normal(op_modal.grid.n_cells)
        via_cone = norm_sq_w(
            op_modal, evaluate(SquareFunctionKind("S_H", 1), op_modal, f, ladder)
        )
        assert via_cone == pytest.approx(
            l2_norm_sq(SquareFunctionKind("S_H", 1), op_modal, f, ladder), rel=1e-10
        )

    @pytest.mark.parametrize("m", [0, 5])
    def test_rejects_bad_order(self, op_small, small_ladder, m):
        with pytest.raises(ValueError):
            l2_norm_sq(SquareFunctionKind("S_H", m), op_small,
                       np.ones(op_small.grid.n_cells), small_ladder)


@given(
    family=st.sampled_from(ALL_CONE_KINDS), order=st.integers(0, 4),
    source=st.sampled_from(["random", "bump", "modes", "constant"]),
    dim=st.sampled_from([1, 2]), side=st.integers(4, 9), alpha=st.floats(-0.9, 0.9),
    entries=st.lists(st.floats(0.5, 2.0), min_size=2, max_size=2), seed=st.integers(0, 999),
)
@settings(max_examples=60, deadline=None)
def test_l2_norm_sq_equals_cone_norm(family, order, source, dim, side, alpha, entries,
                                     seed):
    # the Fubini and Parseval route gives the squared L^2(w) norm of the
    # cone, for every family and order, even and odd sides (the one-block
    # operator at odd sides) and the bank's kinds of source
    kind = SquareFunctionKind(family, max(order, 1) if family.startswith("S_") else order)
    grid = Grid(dim, side + 8 if dim == 1 else side)
    op = assemble(grid, CoefficientField(entries[:dim]),
                  PowerWeight(alpha * dim))
    ladder = TimeLadder.default_for(grid, 2 ** 0.25)
    rng = np.random.default_rng(seed)
    f = {
        "random": lambda: rng.standard_normal(grid.n_cells),
        "bump": lambda: materialize(
            BankFunction("bump", (*rng.uniform(0, 1, dim), rng.uniform(0.08, 0.2))), op),
        "modes": lambda: materialize(BankFunction("modes", tuple(rng.standard_normal(3))), op),
        "constant": lambda: np.ones(grid.n_cells),
    }[source]()
    cone = lp_norm(cone_all(build_field(kind, op, f, ladder)), 2.0, UNIT_WEIGHT,
                   op.weight, grid) ** 2
    # the constant's exact norm is 0 and both routes give pure roundoff
    floor = 1e-18 * lp_norm(f, 2.0, UNIT_WEIGHT, op.weight, grid) ** 2
    assert math.isclose(l2_norm_sq(kind, op, f, ladder), cone, rel_tol=1e-12,
                        abs_tol=floor)


def test_l2_norm_sq_of_vertical_kind(op_small, small_ladder):
    # the vertical kind has the Fubini sum of Gcal_{0,H} as its norm
    f = np.random.default_rng(421).standard_normal(op_small.grid.n_cells)
    got = l2_norm_sq(VERTICAL, op_small, f, small_ladder)
    want = norm_sq_w(op_small, evaluate(VERTICAL, op_small, f, small_ladder))
    assert got == pytest.approx(want, rel=1e-12)


class TestAlgebraicProperties:
    @pytest.mark.parametrize("family", ALL_CONE_KINDS)
    def test_sublinear(self, op_small, small_ladder, family):
        rng = np.random.default_rng(412)
        f = rng.standard_normal(op_small.grid.n_cells)
        g = rng.standard_normal(op_small.grid.n_cells)
        kind = SquareFunctionKind(family)
        both = evaluate(kind, op_small, f + g, small_ladder)
        split = evaluate(kind, op_small, f, small_ladder) + evaluate(
            kind, op_small, g, small_ladder
        )
        assert np.all(both <= split + 1e-12)

    @pytest.mark.parametrize("family", ALL_CONE_KINDS + ["vertical_g_H"])
    def test_homogeneity_exact_power_of_two(self, op_small, small_ladder, family):
        # scaling by -2 is exact in floats through every linear stage
        f = np.random.default_rng(413).standard_normal(op_small.grid.n_cells)
        kind = SquareFunctionKind(family)
        assert np.array_equal(
            evaluate(kind, op_small, -2.0 * f, small_ladder),
            2.0 * evaluate(kind, op_small, f, small_ladder),
        )

    def test_homogeneity_general_scalar(self, op_small, small_ladder):
        f = np.random.default_rng(414).standard_normal(op_small.grid.n_cells)
        kind = SquareFunctionKind("S_H")
        np.testing.assert_allclose(
            evaluate(kind, op_small, 3.7 * f, small_ladder),
            3.7 * evaluate(kind, op_small, f, small_ladder),
            rtol=1e-13,
        )

    @pytest.mark.parametrize("family", ALL_CONE_KINDS + ["vertical_g_H"])
    def test_constant_annihilated(self, op_small, small_ladder, family):
        # zero up to eigensolver roundoff: the projection of a constant
        # onto the nonzero modes leaks at machine scale
        f = np.full(op_small.grid.n_cells, 2.5)
        got = evaluate(SquareFunctionKind(family), op_small, f, small_ladder)
        assert np.all(got <= 1e-12)

    @given(exponent=st.integers(min_value=-3, max_value=3),
           sign=st.sampled_from([-1.0, 1.0]))
    @settings(deadline=None, max_examples=15)
    def test_homogeneity_exact_all_binary_scales(self, op_small, small_ladder,
                                                 exponent, sign):
        f = np.random.default_rng(415).standard_normal(op_small.grid.n_cells)
        c = sign * 2.0**exponent
        kind = SquareFunctionKind("Gcal_H")
        assert np.array_equal(
            evaluate(kind, op_small, c * f, small_ladder),
            abs(c) * evaluate(kind, op_small, f, small_ladder),
        )


def per_node_field(kind, op, f, ladder):
    """The kind's field built one scalar-time evaluation per ladder node."""
    rows = []
    for t in ladder.nodes:
        t = float(t)
        if kind.family == "S_H":
            rows.append(np.abs(heat_eval(op, kind.order, t, f)))
        elif kind.family == "S_P":
            rows.append(np.abs(poisson_eval(op, kind.order, t, f)))
        else:
            poisson = kind.family.endswith("_P")
            evaluator = poisson_grad_eval if poisson else grad_eval
            u, time = evaluator(op, kind.order, t, f)
            spatial_sq = np.sum(spatial_part(op.grid, t, u)**2, axis=0)
            if kind.family.startswith("G_"):
                rows.append(np.sqrt(spatial_sq))
            else:
                rows.append(np.sqrt(spatial_sq + time**2))
    return np.array(rows)


class TestAgainstPerNodeReference:
    @pytest.mark.parametrize("order", [None, 2])
    @pytest.mark.parametrize("family", ALL_CONE_KINDS)
    @pytest.mark.parametrize("op_name", ["op_small", "op_modal"])
    def test_build_field(self, family, order, op_name, request):
        op = request.getfixturevalue(op_name)
        ladder = TimeLadder.default_for(op.grid, 2 ** 0.25)
        kind = SquareFunctionKind(family, order)
        f = np.random.default_rng(417).standard_normal(op.grid.n_cells)
        want = per_node_field(kind, op, f, ladder)
        got = build_field(kind, op, f, ladder).values
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * np.max(want))

    @pytest.mark.parametrize("op_name", ["op_small", "op_modal"])
    def test_vertical_g(self, op_name, request):
        op = request.getfixturevalue(op_name)
        ladder = TimeLadder.default_for(op.grid)
        f = np.random.default_rng(418).standard_normal(op.grid.n_cells)
        total = np.zeros(op.grid.n_cells)
        for t in ladder.nodes:
            u, time = grad_eval(op, 0, float(t), f)
            total += np.sum(spatial_part(op.grid, t, u)**2, axis=0) + time**2
        want = np.sqrt(total * ladder.node_weight)
        np.testing.assert_allclose(evaluate(VERTICAL, op, f, ladder), want, rtol=1e-12)


class TestFieldAndCsv:
    def test_build_field_shape_and_sign(self, op_small, small_ladder):
        f = np.random.default_rng(416).standard_normal(op_small.grid.n_cells)
        fld = build_field(SquareFunctionKind("S_H"), op_small, f, small_ladder)
        assert fld.values.shape == (small_ladder.count, op_small.grid.n_cells)
        assert np.all(fld.values >= 0)
        assert fld.weight is op_small.weight

    def test_result_csv_roundtrip_dim1(self, tmp_path):
        grid = Grid(1, 4)
        path = tmp_path / "out.csv"
        result_to_csv(grid, np.array([0.0, 1.0, 2.0, 3.0]), str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "value"]
        assert rows[1] == ["0.125", "0.0"]
        assert [float(r[1]) for r in rows[1:]] == [0.0, 1.0, 2.0, 3.0]

    def test_result_csv_header_dim2(self, tmp_path):
        grid = Grid(2, 4)
        path = tmp_path / "out.csv"
        result_to_csv(grid, np.zeros(grid.n_cells), str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "value"]
        assert len(rows) == 1 + grid.n_cells

    def test_result_csv_rows_match_centers(self, tmp_path, monkeypatch):
        grid = Grid(2, 4)
        centers = grid.centers
        values = np.arange(grid.n_cells) / 7.0
        builds = []

        def counted(self):
            builds.append(1)
            return centers

        # the writer reads the centers once, not once per row
        monkeypatch.setattr(Grid, "centers", property(counted))
        path = tmp_path / "out.csv"
        result_to_csv(grid, values, str(path))
        assert len(builds) == 1
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [[repr(float(x)), repr(float(y)), repr(float(v))]
                        for (x, y), v in zip(centers, values)]

    def test_result_csv_shape_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            result_to_csv(Grid(1, 4), np.zeros(5), str(tmp_path / "bad.csv"))


class TestImagesRead:
    """Each kind builds only the images it reads, and its magnitudes agree
    with the length of the full gradient stack."""

    @pytest.mark.parametrize("family,images", [
        ("S_H", 1), ("G_H", 1), ("Gcal_H", 2), ("S_P", 1), ("G_P", 1), ("Gcal_P", 2),
    ])
    def test_reconstructions_per_field(self, op_modal, monkeypatch, family, images):
        calls = []
        real = type(op_modal).reconstruct_blocks

        def counted(self, coeffs, out=None):
            calls.append(np.shape(coeffs))
            return real(self, coeffs, out)

        monkeypatch.setattr(type(op_modal), "reconstruct_blocks", counted)
        ladder = TimeLadder.default_for(op_modal.grid)
        f = np.random.default_rng(419).standard_normal(op_modal.grid.n_cells)
        build_field(SquareFunctionKind(family), op_modal, f, ladder)
        assert calls == [(ladder.count, op_modal.grid.n_cells)] * images

    @pytest.mark.parametrize("order", [None, 2])
    @pytest.mark.parametrize("family", ALL_CONE_KINDS)
    @pytest.mark.parametrize("op_name", ["op_small", "op_modal"])
    def test_matches_gradient_stack(self, family, order, op_name, request):
        op = request.getfixturevalue(op_name)
        ladder = TimeLadder.default_for(op.grid)
        kind = SquareFunctionKind(family, order)
        f = np.random.default_rng(420).standard_normal(op.grid.n_cells)
        t = ladder.nodes
        if family.startswith("S_"):
            evaluator = poisson_eval if family.endswith("_P") else heat_eval
            want = np.abs(evaluator(op, kind.order, t, f))
        else:
            evaluator = poisson_grad_eval if family.endswith("_P") else grad_eval
            u, time = evaluator(op, kind.order, t, f)
            spatial_sq = np.sum(spatial_part(op.grid, t, u)**2, axis=0)
            want = np.sqrt(spatial_sq if family.startswith("G_") else spatial_sq + time**2)
        got = build_field(kind, op, f, ladder).values
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
