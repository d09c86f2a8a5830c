"""Run one tentcalc CLI command under the span tracer.

    python perfbench/traced_cli.py LAUNCH TRACE_JSON ARGS...

LAUNCH is the parent's time.monotonic() just before it started this
process; ARGS are the arguments `python -m tentcalc.cli` would get.  The
exit code is the command's own.
"""

import sys

import tracer


def command(args):
    import tentcalc.cli

    tentcalc.cli.main.main(args=args, prog_name="tentcalc")


if __name__ == "__main__":
    tracer.run_traced(sys.argv[1:], command, ("tentcalc", "tentcalc.cli"))
