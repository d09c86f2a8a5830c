#!/usr/bin/env python3
"""Weight-class membership: measured verdicts against closed forms.

For power weights the A_p and RH_s memberships have exact
characterizations, so the grid estimators can be judged: constants are
computed over a refinement sweep and a weight is accepted when they
stabilize or their increments decay geometrically.  Also shown: the
weighted duality (membership of 1/w relative to the measure w dx) and
the bisection estimate of the critical index.
"""

from fractions import Fraction

from tentcalc import (
    ClassKind,
    Grid,
    PowerWeight,
    estimate_critical_index,
    membership_by_refinement,
    power_weight_in_ap,
    power_weight_in_rh,
    weighted_class_constant,
)


def main():
    dim = 1
    print("alpha  class   measured  closed-form")
    for alpha in (-0.8, 0.0, 0.5):
        model = PowerWeight(alpha)
        frac = Fraction(alpha).limit_denominator(10)
        for kind, predicate in (
            (ClassKind("Ap", 2.0), power_weight_in_ap(frac, dim, 2)),
            (ClassKind("RHs", 2.0), power_weight_in_rh(frac, dim, 2)),
        ):
            verdict = membership_by_refinement(model, kind, dim)
            mark = "member" if verdict.member else "not"
            print(f"{alpha:<6} {kind.family}({kind.index:g})  {mark:<9} "
                  f"{'member' if predicate else 'not'}")

    w = PowerWeight(0.5)
    v = PowerWeight(-0.5)
    grid = Grid(dim, 32)
    const = weighted_class_constant(v, w, ClassKind("Ap", 2.0), grid)
    print(f"duality probe: A_2(w)-constant of 1/w on N = 32 grid: {const:.4f}")

    crit = estimate_critical_index(v, w, "Ap", dim, lo=1.0, hi=4.0)
    print(f"bisection bracket for the critical A_p(w) index of 1/w: "
          f"{crit:.4f} (upper estimate; tightens under refinement)")


if __name__ == "__main__":
    main()
