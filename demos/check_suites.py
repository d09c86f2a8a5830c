#!/usr/bin/env python3
"""Run one check suite and read its report.

Runs the heat-control suite at a reduced size so it finishes in a couple
of seconds, then prints every check with its verdict, measured values
and tolerance.  The same reports are what `tentcalc verify` writes to
JSON and CSV; the full-size run uses the default SuiteConfig().
"""

from tentcalc import SuiteConfig, run_suites

# pass/fail values below this are rounding, printed as the bound and not as
# digits that any reordering of floating-point operations moves
ROUNDOFF = 1e-12


def shown(check, value):
    if check.kind == "pass_fail" and abs(value) < ROUNDOFF:
        return f"< {ROUNDOFF:g}"
    return f"{value:.4g}"


def main():
    config = SuiteConfig(sizes=(8, 16), bank_size=6)
    report = run_suites(config, ["heat_control"])[0]
    print(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'}")
    print(f"environment: dim = {report.environment['dim']}, "
          f"sizes = {report.environment['sizes']}, "
          f"weight = {report.environment['weight']}")
    for check in report.checks:
        values = ", ".join(shown(check, v) for v in check.values)
        bound = "" if check.tolerance is None else f"  (tolerance {check.tolerance:g})"
        print(f"  [{check.verdict}] {check.id}: {values}{bound}")


if __name__ == "__main__":
    main()
