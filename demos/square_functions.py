#!/usr/bin/env python3
"""The seven square functions on one operator.

Evaluates every kind on a single eigenmode, where each conical norm has
a closed form: the first-order heat cone gives ||S phi||^2 = ||phi||^2/8
and its Poisson counterpart gives 3/8, so their ratio is exactly 3.
Then checks the two pointwise dominations on a random function: the
half-factor bound of S by the full gradient cone, and the spatial
gradient cone below the full one.
"""

import numpy as np

from tentcalc import (
    CoefficientField,
    Grid,
    PowerWeight,
    SquareFunctionKind,
    TimeLadder,
    UNIT_WEIGHT,
    assemble,
    evaluate,
    lp_norm,
)

ALL_KINDS = ("S_H", "G_H", "Gcal_H", "S_P", "G_P", "Gcal_P", "vertical_g_H")


def main():
    grid = Grid(2, 16)
    op = assemble(grid, CoefficientField((1.0, 2.0)), PowerWeight(1.0))
    ladder = TimeLadder(grid.h / 16, 4.0, 2 ** (1 / 16))

    def norm_w(values):
        return lp_norm(values, 2.0, UNIT_WEIGHT, op.weight, op.grid)

    phi = op.mode(1)
    base_sq = norm_w(phi) ** 2
    print(f"eigenmode lambda_1 = {op.eigenvalues[1]:.4f}, ||phi||_w^2 = {base_sq:.6f}")
    print("kind          ||.phi||_w^2 / ||phi||_w^2")
    for family in ALL_KINDS:
        kind = SquareFunctionKind(family)
        ratio = norm_w(evaluate(kind, op, phi, ladder)) ** 2 / base_sq
        print(f"{family:<13} {ratio:.6f}")
    s_h = norm_w(evaluate(SquareFunctionKind("S_H", 1), op, phi, ladder)) ** 2
    s_p = norm_w(evaluate(SquareFunctionKind("S_P", 1), op, phi, ladder)) ** 2
    print(f"Poisson/heat modal ratio = {s_p / s_h:.8f} (closed form 3)")

    rng = np.random.default_rng(1)
    f = rng.standard_normal(grid.n_cells)
    s1 = evaluate(SquareFunctionKind("S_H", 1), op, f, ladder)
    gcal0 = evaluate(SquareFunctionKind("Gcal_H", 0), op, f, ladder)
    print(f"max(S_1 f - Gcal_0 f / 2) = {np.max(s1 - 0.5 * gcal0):.2e} (<= 0)")
    g1 = evaluate(SquareFunctionKind("G_H", 1), op, f, ladder)
    gcal1 = evaluate(SquareFunctionKind("Gcal_H", 1), op, f, ladder)
    print(f"max(G_1 f - Gcal_1 f)     = {np.max(g1 - gcal1):.2e} (<= 0)")

    conical = norm_w(evaluate(SquareFunctionKind("Gcal_H", 0), op, f, ladder))
    vertical = norm_w(evaluate(SquareFunctionKind("vertical_g_H", 0), op, f, ladder))
    print(f"conical vs vertical L^2(w) norms: {conical:.10f} vs {vertical:.10f}")


if __name__ == "__main__":
    main()
