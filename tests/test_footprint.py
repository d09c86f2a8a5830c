"""Traced memory of the ladder-sized kernels on a dim-2, N = 32 field
with the default ladder (J = 113 nodes, M = 1024 cells), and of a verify
run.

Each bound is the traced peak above the call's input, in units of one
(J, M) float array.  A cone sum or Carleson cut works in one such buffer
beyond its input.  A gradient norm or G field holds at most the image
table and the reconstruction's block products, and then the image and
its summed squared differences; a Gcal field also holds its t d_t image.
A verify run keeps no half-space field, so its traced peak at bank 4 is
within half such an array of its peak at bank 1.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from tentcalc.mesh import Grid, PowerWeight
from tentcalc.operator import CoefficientField, assemble
from tentcalc.semigroup import TimeLadder
from tentcalc.squarefn import SquareFunctionKind, evaluate, l2_norm_sq
from tentcalc.tent import HalfSpaceField, carleson_p_all, cone_all
from tentcalc.verify import SuiteConfig, run_suites

GRID = Grid(2, 32)
LADDER = TimeLadder.default_for(GRID)
UNIT = LADDER.count * GRID.n_cells * 8


def traced_peak(call) -> float:
    """The traced peak of call(), in (J, M) arrays, after one untraced
    call has filled the per-grid caches."""
    call()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / UNIT


@pytest.fixture(scope="module")
def fld():
    rng = np.random.default_rng(3)
    values = rng.random((LADDER.count, GRID.n_cells))
    return HalfSpaceField(GRID, LADDER, PowerWeight(0.5), values)


@pytest.fixture(scope="module")
def op():
    return assemble(GRID, CoefficientField([1.0, 2.0]), PowerWeight(0.5))


def test_cone_holds_one_buffer(fld):
    assert traced_peak(lambda: cone_all(fld)) <= 2.0


@pytest.mark.parametrize("p0", [1.0, 2.0])
def test_carleson_holds_one_buffer_per_cut(fld, p0):
    assert traced_peak(lambda: carleson_p_all(fld, p0)) <= 2.0


@pytest.mark.parametrize("family, order", [("G_H", 1), ("Gcal_P", 1), ("Gcal_H", 0)])
def test_gradient_norm_holds_one_image(op, family, order):
    kind = SquareFunctionKind(family, order)
    f = np.random.default_rng(5).standard_normal(GRID.n_cells)
    assert traced_peak(lambda: l2_norm_sq(kind, op, f, LADDER)) <= 3.0


@pytest.mark.parametrize("family, order", [("G_H", 1), ("G_P", 0)])
def test_gradient_cone_holds_field_and_one_buffer(op, family, order):
    kind = SquareFunctionKind(family, order)
    f = np.random.default_rng(6).standard_normal(GRID.n_cells)
    assert traced_peak(lambda: evaluate(kind, op, f, LADDER)) <= 3.0


@pytest.mark.parametrize("family, order", [("Gcal_H", 1), ("Gcal_P", 0)])
def test_gcal_cone_holds_field_and_two_buffers(op, family, order):
    kind = SquareFunctionKind(family, order)
    f = np.random.default_rng(7).standard_normal(GRID.n_cells)
    assert traced_peak(lambda: evaluate(kind, op, f, LADDER)) <= 4.0


def test_verify_run_peak_does_not_grow_with_bank():
    # the default sizes (16, 32), so the fine grid is this module's GRID
    def run_peak(bank_size):
        return traced_peak(lambda: run_suites(SuiteConfig(bank_size=bank_size)))

    assert run_peak(4) - run_peak(1) <= 0.5
