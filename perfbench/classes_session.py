"""One library session of the classes-refine workload.

    python perfbench/classes_session.py CASES VERDICTS_JSON
    python perfbench/classes_session.py --trace LAUNCH TRACE_JSON CASES VERDICTS_JSON

CASES is a JSON list of [alpha, family, index] with alpha a rational
string.  For each case the session diagnoses whether the power weight
|x|^alpha on the 2-torus lies in the class by refinement across
N = 16, 32, 64, and writes the list of verdicts.
"""

import json
import sys
from fractions import Fraction

SIZES = (16, 32, 64)


def session(args):
    from tentcalc import ClassKind, PowerWeight, membership_by_refinement

    cases, out_path = json.loads(args[0]), args[1]
    verdicts = [
        membership_by_refinement(
            PowerWeight(float(Fraction(alpha))), ClassKind(family, index), 2,
            sizes=SIZES,
        ).member
        for alpha, family, index in cases
    ]
    with open(out_path, "w") as fh:
        json.dump(verdicts, fh)


if __name__ == "__main__":
    if sys.argv[1] == "--trace":
        import tracer

        tracer.run_traced(sys.argv[2:], session, ("tentcalc",))
    else:
        session(sys.argv[1:])
