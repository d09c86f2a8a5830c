"""Conical and vertical square functions of the weighted operator.

Seven cone-based kinds, each a half-space field F(y, t) fed to the
aperture-1 cone functional A_w:

    S_H(m):    |(t^2 L_w)^m e^{-t^2 L_w} f|,          m >= 1
    G_H(m):    |t grad_y (t^2 L_w)^m e^{-t^2 L_w} f|,  m >= 0
    Gcal_H(m): |t grad_{y,t} (t^2 L_w)^m e^{-t^2 L_w} f|
    S_P(K):    |(t sqrt(L_w))^{2K} e^{-t sqrt(L_w)} f|, K >= 1
    G_P(K):    spatial gradient of the Poisson power,   K >= 0
    Gcal_P(K): full space-time gradient of the same

plus vertical_g_H, the same m = 0 heat integrand as Gcal_H but with the
dt/t sum taken at the point itself, no cone.  The S kinds need order at
least 1 because the plain semigroup has no decay against dt/t as t -> 0;
gradient kinds gain that decay from the factor t.

Poisson kinds evaluate through the spectral path so their error budget
is pure ladder quadrature, independent of subordination quadrature.

A field reads only the semigroup images its magnitude needs, all ladder
nodes at once: S kinds one image, G kinds the same one image and its
centered periodic differences, Gcal kinds the image and its t d_t image.
Squared parts are summed in one buffer and rooted in place.

`l2_norm_sq` gives the squared L^2(w) norm of any kind with no field and
no cone, from the Fubini identity and Parseval's identity in the
eigenbasis.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .mesh import Grid
from .operator import SpectralOperator
from .semigroup import (
    ORDER_CAP,
    GradField,
    TimeLadder,
    grad_eval,
    heat_eval,
    multiplier_tables,
    poisson_eval,
    poisson_grad_eval,
    spatial_norm_sq,
)
from .tent import HalfSpaceField, cone_all

__all__ = [
    "SquareFunctionKind",
    "build_field",
    "evaluate",
    "vertical_g",
    "l2_norm_sq",
    "result_to_csv",
]

_MIN_ORDER = {
    "S_H": 1,
    "G_H": 0,
    "Gcal_H": 0,
    "S_P": 1,
    "G_P": 0,
    "Gcal_P": 0,
    "vertical_g_H": 0,
}


@dataclass(frozen=True)
class SquareFunctionKind:
    """A square-function family plus its semigroup order.

    `order` is m for the heat kinds and K for the Poisson kinds; omitted
    it defaults to the family minimum (1 for S kinds, 0 otherwise), so
    SquareFunctionKind("S_H") is S_{1,H} and "Gcal_H" is Gcal_{0,H}.
    The vertical kind admits only order 0.  Cone aperture is fixed at 1.
    """

    family: str
    order: int | None = None

    def __post_init__(self):
        if self.family not in _MIN_ORDER:
            raise ValueError(f"unknown square function family {self.family!r}")
        if self.order is None:
            object.__setattr__(self, "order", _MIN_ORDER[self.family])
        lo = _MIN_ORDER[self.family]
        hi = 0 if self.family == "vertical_g_H" else ORDER_CAP
        if not lo <= self.order <= hi:
            raise ValueError(
                f"{self.family} order must lie in [{lo}, {hi}], got {self.order}"
            )


def build_field(
    kind: SquareFunctionKind,
    op: SpectralOperator,
    f: NDArray,
    ladder: TimeLadder,
) -> HalfSpaceField:
    """Sample the kind's integrand magnitude at every ladder node.

    The cone functional squares the field, so only magnitudes are kept:
    the semigroup image itself for S kinds, the length of t grad_y of
    that image for G kinds, and the full space-time length for Gcal
    kinds.
    """
    # looked up per call, so a rebinding of the module's evaluator names
    # is honoured
    evaluator = {
        "S_H": heat_eval,
        "G_H": heat_eval,
        "Gcal_H": grad_eval,
        "S_P": poisson_eval,
        "G_P": poisson_eval,
        "Gcal_P": poisson_grad_eval,
    }[kind.family]
    t = ladder.nodes
    image = evaluator(op, kind.order, t, f)
    if kind.family.startswith("S_"):
        rows = np.abs(image, out=image)
    else:
        rows = image.norm_sq() if isinstance(image, GradField) \
            else spatial_norm_sq(op.grid, t, image)
        np.sqrt(rows, out=rows)
    return HalfSpaceField(op.grid, ladder, op.weight, rows)


def evaluate(
    kind: SquareFunctionKind,
    op: SpectralOperator,
    f: NDArray,
    ladder: TimeLadder,
) -> NDArray:
    """The square function of f at every cell."""
    if kind.family == "vertical_g_H":
        return vertical_g(op, f, ladder)
    return cone_all(build_field(kind, op, f, ladder), 1.0)


def vertical_g(op: SpectralOperator, f: NDArray, ladder: TimeLadder) -> NDArray:
    """Vertical square function: the dt/t sum of |t grad_{y,t} e^{-t^2
    L_w} f|^2 at the point itself."""
    total = np.sum(grad_eval(op, 0, ladder.nodes, f).norm_sq(), axis=0)
    return np.sqrt(total * ladder.node_weight)


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
    reconstruction: the whole norm for S kinds, the t d_t part for Gcal
    kinds.  The spatial gradient is not diagonal in the eigenbasis, so G
    and Gcal kinds reconstruct their one image and sum |t grad_y u|^2
    against w h^dim.
    """
    family = kind.family
    t = ladder.nodes
    tables = multiplier_tables(
        op, "poisson" if family.endswith("_P") else "heat", kind.order, t, f,
        time=family.startswith("Gcal") or family == "vertical_g_H",
    )
    total = 0.0
    if not family.startswith("S_"):
        image = tables.pop(0)
        op.reconstruct_blocks(image, out=image)
        spatial = spatial_norm_sq(op.grid, t, image)
        spatial *= op.weight_values * op.grid.cell_volume
        total += float(np.sum(spatial))
    for table in tables:
        total += float(np.sum(np.square(table, out=table)))
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
