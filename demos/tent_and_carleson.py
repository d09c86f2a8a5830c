#!/usr/bin/env python3
"""Cone apertures and Carleson functionals on a half-space field.

Builds a nonnegative field on the grid x time-ladder half space and
walks the tent-space toolkit: aperture monotonicity of the cone
functional, the exact p = 2 identity between the cone norm and the
direct half-space integral, the Carleson functional sitting below the
weighted maximal function of the cone, and the measured change-of-angle
ratio against its class-index prediction.
"""

import numpy as np

from tentcalc import (
    Grid,
    HalfSpaceField,
    PowerWeight,
    TimeLadder,
    UNIT_WEIGHT,
    carleson_p_all,
    change_of_angle_report,
    cone_all,
    fubini_norm_sq,
    lp_norm,
    maximal,
)


def main():
    grid = Grid(2, 16)
    weight = PowerWeight(1.0)
    ladder = TimeLadder.default_for(grid)
    rng = np.random.default_rng(2)
    fld = HalfSpaceField(
        grid, ladder, weight,
        np.abs(rng.standard_normal((ladder.count, grid.n_cells))),
    )

    cones = {a: cone_all(fld, a) for a in (0.5, 1.0, 2.0)}
    print("aperture  mean cone value")
    for a, values in cones.items():
        print(f"{a:<9} {values.mean():.6f}")
    print(f"monotone in aperture: "
          f"{bool(np.all(cones[0.5] <= cones[1.0]) and np.all(cones[1.0] <= cones[2.0]))}")

    w_values = weight.sample(grid)
    cone_sq = float(np.sum(cones[1.0] ** 2 * w_values * grid.cell_volume))
    direct = fubini_norm_sq(fld)
    print(f"p = 2 cone norm^2 vs direct integral: {cone_sq:.10f} vs {direct:.10f}")

    for p0 in (1.0, 2.0):
        carleson = carleson_p_all(fld, p0)
        dominator = maximal(cones[1.0], grid, p0, base=weight)
        print(f"p0 = {p0}: max(Carleson - maximal of cone) = "
              f"{np.max(carleson - dominator):.2e} (<= 0)")

    report = change_of_angle_report(fld, 1.0, 2.0, 2.0, UNIT_WEIGHT, r=2.0, r_tilde=2.0)
    print(f"change of angle 1 -> 2: measured ratio {report.ratio:.4f}, "
          f"class prediction <= C * {report.predicted_increase:.1f}")


if __name__ == "__main__":
    main()
