#!/usr/bin/env python3
"""Heat and Poisson semigroups of a degenerate operator.

Assembles L = -w^{-1} div(w A grad) on a one-dimensional periodic grid
with w(x) = d(x)^{1/2}, then shows the three semigroup contracts: decay
of the weighted norm in time (contraction), the Poisson composition law,
and agreement of the spectral Poisson evaluation with the subordination
quadrature.
"""

import math

import numpy as np

from tentcalc import (
    CoefficientField,
    Grid,
    PowerWeight,
    UNIT_WEIGHT,
    assemble,
    heat_eval,
    lp_norm,
    poisson_eval,
    poisson_scalar,
)


def main():
    grid = Grid(1, 32)
    op = assemble(grid, CoefficientField.identity(grid), PowerWeight(0.5))
    rng = np.random.default_rng(0)
    f = rng.standard_normal(grid.n_cells)

    def norm_w(values):
        return lp_norm(values, 2.0, UNIT_WEIGHT, op.weight, op.grid)

    base = norm_w(f)
    print(f"||f||_w = {base:.6f}")
    print("t        heat     poisson   (weighted norms, both decreasing)")
    for t in (0.01, 0.05, 0.2, 1.0):
        h = norm_w(heat_eval(op, 0, t, f))
        p = norm_w(poisson_eval(op, 0, t, f))
        print(f"{t:<8} {h:<8.5f} {p:<8.5f}")

    s, t = 0.3, 0.5
    law_gap = norm_w(
        poisson_eval(op, 0, s, poisson_eval(op, 0, t, f))
        - poisson_eval(op, 0, s + t, f)
    )
    print(f"Poisson composition gap ||P_s P_t f - P_(s+t) f||_w = {law_gap:.2e}")

    lam, tt = 40.0, 0.7
    quad = poisson_scalar(lam, tt)
    exact = math.exp(-tt * math.sqrt(lam))
    print(f"subordination quadrature at (lambda, t) = ({lam}, {tt}): "
          f"{quad:.12f} vs e^(-t sqrt(lambda)) = {exact:.12f}")

    field_gap = norm_w(
        poisson_eval(op, 0, 0.4, f, method="subordination")
        - poisson_eval(op, 0, 0.4, f)
    )
    print(f"field-level subordination vs spectral gap = {field_gap:.2e}")


if __name__ == "__main__":
    main()
