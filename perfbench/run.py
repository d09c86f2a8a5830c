"""tentcalc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --selftest

Runs from the root of a source checkout.  A run is a closed loop with one
client: operations (each a fresh `python -m tentcalc.cli` process, or a
fresh library session for classes-refine, with PYTHONPATH=src and a
temporary working directory) run back to back until their summed wall
time reaches --seconds.  Every operation's outputs are checked after it
exits.  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced operations and reports the
per-layer metrics.  The last line of standard output is one JSON object.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import OUT, ROOT, WORKLOADS
import tracer

SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # an operation still running then is killed and fails


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(argv: list[str], cwd: Path, deadline: float) -> tuple[int, float, float]:
    """Run argv to completion; (exit code, wall s, peak RSS MB) of that one
    process.  os.wait4 gives the child's own peak, where RUSAGE_CHILDREN
    would keep the maximum over every child so far."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_op(workload, draw, traced: bool, deadline: float) -> dict:
    with tempfile.TemporaryDirectory(dir=OUT / "tmp") as tmp:
        cwd = Path(tmp)
        workload.write_inputs(cwd, draw)
        trace_path = cwd / "trace.json"
        start = time.monotonic()
        argv = [sys.executable, *workload.argv(
            draw, (start, str(trace_path)) if traced else None)]
        code, wall, rss = launch(argv, cwd, deadline)
        op = {"draw": draw, "traced": traced, "exit": code, "wall_s": wall,
              "peak_rss_mb": rss, "error": None, "sha256": ""}
        if code != 0:
            stderr = (cwd / "stderr.txt").read_text(errors="replace")
            op["error"] = f"exit {code}: {stderr.strip()[-500:]}"
            return op
        op["error"], op["sha256"] = workload.check(cwd, draw)
        if traced:
            op["layers"] = tracer.per_layer(json.loads(trace_path.read_text()), wall)
    return op


def setup_time(module: str) -> float:
    """Median time from launch to `module` imported, over fresh processes,
    after one untimed import that also fills the bytecode cache."""
    argv = [sys.executable, "-c", f"import {module}"]
    times = []
    with tempfile.TemporaryDirectory(dir=OUT / "tmp") as tmp:
        for i in range(SETUP_PROBES + 1):
            start = time.monotonic()
            subprocess.run(argv, cwd=tmp, env=child_env(), check=True,
                           stdout=subprocess.DEVNULL)
            if i:
                times.append(time.monotonic() - start)
    return statistics.median(times)


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError, ValueError):
        top, sha = None, None
    if top is None or Path(top).resolve() != ROOT:
        sha = None  # not a git checkout of its own
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tentcalc").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
    }


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run; returns the result record."""
    workload = WORKLOADS[name]
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    OUT.joinpath("tmp").mkdir(parents=True, exist_ok=True)
    setup = None if traced else setup_time(workload.setup_import)
    ops, measured = [], 0.0
    for draw in workload.draws(seed):
        batch = [run_op(workload, draw, False, deadline)]
        if traced:
            batch.append(run_op(workload, draw, True, deadline))
        ops += batch
        measured += sum(op["wall_s"] for op in batch)
        if measured >= seconds or time.monotonic() >= deadline:
            break
    plain = [op for op in ops if not op["traced"]]
    if traced:
        with_trace = [op for op in ops if op["traced"] and "layers" in op]
        metrics = {}
        if with_trace:
            metrics = {key: statistics.median(op["layers"][key] for op in with_trace)
                       for key in with_trace[0]["layers"]}
            metrics["trace.overhead_s"] = (
                statistics.median(op["wall_s"] for op in with_trace)
                - statistics.median(op["wall_s"] for op in plain))
    else:
        metrics = {
            "wall_s": statistics.median(op["wall_s"] for op in plain),
            "setup_s": setup,
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in plain),
        }
    failed = sum(op["error"] is not None for op in ops)
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
            "attempted": len(ops), "failed": failed, "metrics": metrics,
            "ops": ops, "environment": environment(),
            "run_s": time.monotonic() - started}


def metric_units(traced: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def report(result: dict) -> dict:
    """Print the human-readable lines and save the record; returns the
    final JSON object."""
    units = metric_units(bool(result["trace"]))
    for op in result["ops"]:
        if op["error"]:
            print(f"FAILED op {op['draw']}: {op['error']}", file=sys.stderr)
    for key, unit in units.items():
        print(f"{result['workload']} {key} = {result['metrics'].get(key)!r} {unit}")
    print(f"{result['workload']} failed_ratio = "
          f"{result['failed'] / result['attempted']!r} "
          f"({result['failed']}/{result['attempted']} ops)")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print("outputs " + json.dumps([[op["draw"], op["sha256"]] for op in result["ops"]]))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    missing = [key for key in units if key not in result["metrics"]]
    return {
        "correct": result["failed"] == 0 and not missing,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": result["metrics"][key], "unit": unit}
                    for key, unit in units.items() if key in result["metrics"]},
    }


def selftest() -> list[str]:
    """Oracles reject perturbed outputs; the tracer leaves no binding of a
    layer function unwrapped."""
    from workloads import class_errors, sf_error, verify_failures

    problems = []
    if sf_error(1.0, 1.0, 1.0) is not None:
        problems.append("sf oracle rejects exact values")
    if sf_error(1.0 + 1e-9, 1.0, 1.0) is None or sf_error(1.0, 1.0 - 1e-9, 1.0) is None:
        problems.append("sf oracle accepts a 1e-9 relative perturbation")
    suite = {"suite": "s", "passed": True, "checks": [{"id": "c", "verdict": "pass"}]}
    if verify_failures({"reports": [suite] * 5}):
        problems.append("verify oracle rejects a passing report")
    failing = {**suite, "checks": [{"id": "c", "verdict": "fail"}]}
    if not verify_failures({"reports": [suite] * 4 + [failing]}):
        problems.append("verify oracle accepts a failed check")
    if class_errors([["-1", "Ap", 2.0]], [True]) or not class_errors([["-1", "Ap", 2.0]], [False]):
        problems.append("classes oracle misjudges A_2 for |x|^-1")

    sys.path.insert(0, str(ROOT / "src"))
    import tentcalc.cli  # noqa: F401  (loads every module that binds a layer)
    import tentcalc.verify

    trace = tracer.Tracer()
    trace.install()
    if trace.missing:
        problems.append(f"layer functions not found: {trace.missing}")
    original = tentcalc.verify.cone_all.__wrapped__
    tentcalc.verify.cone_all = original
    if "tentcalc.verify.cone_all" not in trace.unwrapped():
        problems.append("tracer self-test misses an unwrapped binding")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the op it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "tentcalc" / "__init__.py").is_file():
        print(f"error: no tentcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selftest:
        problems = selftest()
        print("\n".join(problems) or "selftest passed")
        return 1 if problems else 0
    if args.all:
        bad = 0
        for name in WORKLOADS:
            bad += report(run(name, args.seed, args.seconds, bool(args.trace)))["failed"]
        return 1 if bad else 0
    if args.workload is None:
        parser.error("give --workload, --all or --selftest")
    print(json.dumps(report(run(args.workload, args.seed, args.seconds, bool(args.trace)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
