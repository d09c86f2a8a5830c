"""Conical and vertical square functions of the weighted operator.

Every kind is one row of FAMILIES: a semigroup, heat or Poisson, and the
parts of t grad_{y,t} u its integrand reads, for u the power

    heat:    (t^2 L_w)^m e^{-t^2 L_w} f,            order m
    Poisson: (t sqrt(L_w))^{2K} e^{-t sqrt(L_w)} f, order K

S kinds read u itself, |u|; G kinds the spatial part, |t grad_y u|; Gcal
kinds the spatial and time parts, |t grad_{y,t} u|.  Six kinds feed that
field F(y, t) to the aperture-1 cone functional A_w; vertical_g_H takes
the Gcal_H integrand at order 0 with the dt/t sum at the point itself,
no cone.  The S kinds need order at least 1 because the plain semigroup
has no decay against dt/t as t -> 0; gradient kinds gain that decay from
the factor t.

Poisson kinds evaluate through the spectral path so their error budget
is pure ladder quadrature, independent of subordination quadrature.

A field reads only the images its row names, all ladder nodes at once:
one image, plus its t d_t image when the row reads the time part.  The
spatial part is the image's centered periodic differences, whose squares
are written over the image; the time part's squares are added to them.
`build_field` roots that sum in place, and S kinds keep |u| itself.
`evaluate` keeps no field: it hands the squared integrand, u^2 or the
summed squares with no root, to the cone sum, which works in that buffer.

`l2_norm_sq` gives the squared L^2(w) norm of any kind with no field and
no cone, from the Fubini identity and Parseval's identity in the
eigenbasis.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .mesh import Grid, number
from .operator import SpectralOperator
from .semigroup import (
    ORDER_CAP,
    TimeLadder,
    grad_eval,
    heat_eval,
    multiplier_tables,
    poisson_eval,
    poisson_grad_eval,
    spatial_norm_sq,
)
from .tent import HalfSpaceField, cone_from_squares

__all__ = [
    "FAMILIES",
    "SquareFunctionKind",
    "build_field",
    "evaluate",
    "l2_norm_sq",
    "result_to_csv",
]

# family: (semigroup, reads t grad_y u, reads t d_t u, summed over the
# cone, least order, greatest order)
FAMILIES = {
    "S_H": ("heat", False, False, True, 1, ORDER_CAP),
    "G_H": ("heat", True, False, True, 0, ORDER_CAP),
    "Gcal_H": ("heat", True, True, True, 0, ORDER_CAP),
    "S_P": ("poisson", False, False, True, 1, ORDER_CAP),
    "G_P": ("poisson", True, False, True, 0, ORDER_CAP),
    "Gcal_P": ("poisson", True, True, True, 0, ORDER_CAP),
    "vertical_g_H": ("heat", True, True, False, 0, 0),
}


@dataclass(frozen=True)
class SquareFunctionKind:
    """A square-function family plus its semigroup order.

    `order` is m for the heat kinds and K for the Poisson kinds, an
    integer in the family's range in FAMILIES; omitted it defaults to the
    least, so SquareFunctionKind("S_H") is S_{1,H} and "Gcal_H" is
    Gcal_{0,H}.  Cone aperture is fixed at 1.
    """

    family: str
    order: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown square function family {self.family!r}")
        lo, hi = FAMILIES[self.family][4:]
        order = lo if self.order is None else self.order
        object.__setattr__(self, "order",
                           int(number(f"{self.family} order", order, lo, hi, integer=True)))


def _integrand(kind: SquareFunctionKind, op: SpectralOperator, f: NDArray,
               t: NDArray) -> NDArray:
    """The kind's integrand at the J times t, (J, M): |u| for a row that
    reads u alone, not the root of its square, so S fields are exact;
    otherwise the squares of the parts the row reads, summed in the
    image's buffer.

    The evaluators are looked up per call, so a rebinding of the module's
    names is honoured."""
    semigroup, spatial, time = FAMILIES[kind.family][:3]
    if time:
        evaluator = grad_eval if semigroup == "heat" else poisson_grad_eval
        image, time_part = evaluator(op, kind.order, t, f)
    else:
        image = (heat_eval if semigroup == "heat" else poisson_eval)(op, kind.order, t, f)
    if not spatial:
        return np.abs(image, out=image)
    total = spatial_norm_sq(op.grid, t, image, out=image)
    if time:
        total += np.square(time_part, out=time_part)
    return total


def build_field(
    kind: SquareFunctionKind,
    op: SpectralOperator,
    f: NDArray,
    ladder: TimeLadder,
) -> HalfSpaceField:
    """Sample the kind's integrand magnitude at every ladder node.

    The cone functional squares the field, so only magnitudes are kept."""
    rows = _integrand(kind, op, f, ladder.nodes)
    if FAMILIES[kind.family][1]:
        np.sqrt(rows, out=rows)
    return HalfSpaceField(op.grid, ladder, op.weight, rows)


def evaluate(
    kind: SquareFunctionKind,
    op: SpectralOperator,
    f: NDArray,
    ladder: TimeLadder,
) -> NDArray:
    """The square function of f at every cell: the cone functional of the
    kind's field, or for a row not summed over the cone the dt/t sum of
    its squared integrand at the point itself.

    A cone kind keeps no field: its squared integrand, u^2 or the summed
    squares, is built in one buffer that the cone sum then works in.  It
    must be finite, as a field's values must."""
    integrand = _integrand(kind, op, f, ladder.nodes)
    spatial, _, cone = FAMILIES[kind.family][1:4]
    if not cone:
        total = np.sum(integrand, axis=0)
        return np.sqrt(total * ladder.node_weight)
    if not np.all(np.isfinite(integrand)):
        raise ValueError("field values must be finite")
    if not spatial:
        np.square(integrand, out=integrand)
    return cone_from_squares(op.grid, op.weight, ladder, integrand)


def l2_norm_sq(
    kind: SquareFunctionKind,
    op: SpectralOperator,
    f: NDArray,
    ladder: TimeLadder,
) -> float:
    """||kind(f)||^2 in L^2(w), with no cone.

    The Fubini identity of the tent space turns the squared norm of a
    cone into sum_{j,y} |F(y, t_j)|^2 w(y) h^dim ln(rho), and the same
    sum is the squared norm of the vertical kind.  Parseval in the
    w-orthonormal eigenbasis takes each semigroup part straight from its
    multiplier table, ln(rho) sum_{j,k} (T_jk c_k)^2, with no
    reconstruction: the image for a row that reads u alone, the t d_t
    part for a row that reads it.  The spatial gradient is not diagonal
    in the eigenbasis, so a row that reads it reconstructs the image and
    sums |t grad_y u|^2 against w h^dim, after the Parseval sums have
    dropped their tables.
    """
    semigroup, spatial, time = FAMILIES[kind.family][:3]
    t = ladder.nodes
    tables = multiplier_tables(op, semigroup, kind.order, t, f, time=time)
    image = tables.pop(0) if spatial else None
    # the float sum still adds the spatial term first
    parseval = [float(np.sum(np.square(table, out=table))) for table in tables]
    del tables
    total = 0.0
    if spatial:
        op.reconstruct_blocks(image, out=image)
        grad_sq = spatial_norm_sq(op.grid, t, image, out=image)
        grad_sq *= op.weight_values * op.grid.cell_volume
        total += float(np.sum(grad_sq))
    for part in parseval:
        total += part
    return total * ladder.node_weight


def result_to_csv(grid: Grid, values: NDArray, path: str, preamble: str = ""):
    """Write a grid function as cell coordinates plus value, with LF line
    ends, after the verbatim `preamble` text."""
    values = np.asarray(values, float)
    if values.shape != (grid.n_cells,):
        raise ValueError(f"expected {grid.n_cells} values, got shape {values.shape}")
    with open(path, "w", newline="") as fh:
        fh.write(preamble)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*("xy"[: grid.dim]), "value"])
        for center, value in zip(grid.centers.tolist(), values.tolist()):
            writer.writerow([*map(repr, center), repr(value)])
