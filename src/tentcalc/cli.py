"""Command-line front end.

Three subcommands: exact exponent queries (rationals in, rationals out),
square-function field evaluation with CSV/JSON output, and the check
suites.  Exit codes: 0 success, 1 domain error, 2 usage error, 3 check
failure.  Given the same flags, config and seed, every output is
byte-identical across runs; output files never contain timestamps and
start with a header block naming the tool version, a hash of the
effective config, and the seed.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

import click
import numpy as np
from numpy.typing import NDArray

from . import __version__
from .exponents import (
    INF,
    INF_SPELLINGS,
    ExtReal,
    corollary_ranges,
    ext,
    poisson_upper,
    power_weight_criticals,
    range_W,
    sobolev_exponent,
    surrogate_p_bounds,
)
from .mesh import PowerWeight, Grid, lp_norm, number
from .operator import SpectralOperator, check_dense_budget
from .semigroup import TimeLadder
from .squarefn import SquareFunctionKind, evaluate, result_to_csv
from .verify import (
    BankFunction,
    ProblemConfig,
    SuiteConfig,
    _named,
    materialize,
    reports_to_csv,
    reports_to_json,
    run_suites,
)

KIND_TOKENS = {
    "SH": "S_H",
    "GH": "G_H",
    "GcalH": "Gcal_H",
    "SP": "S_P",
    "GP": "G_P",
    "GcalP": "Gcal_P",
    "g": "vertical_g_H",
}

SUITE_TOKENS = {
    "heat": "heat_control",
    "poisson": "poisson_control",
    "bounded": "boundedness",
    "angles": "angles_carleson",
    "appendix": "appendix_q",
}


@dataclass(frozen=True)
class RunConfig(ProblemConfig):
    """The problem on one grid of n cells per side, for one field run.

    Caps keep runs inside the documented grid budget: dim in {1, 2}, at
    most 128 cells per side and 4096 cells.  The ladder starts at
    ladder_t_min when given, else at the default start, and has at most
    LADDER_CAP nodes.  All of it is checked here, before anything is
    allocated.
    """

    n: int = 16
    ladder_t_min: float | None = None

    def __post_init__(self):
        number("n", self.n, 1, integer=True)
        _named("dim, n", check_dense_budget, self.dim, self.n)
        super().__post_init__()
        if self.ladder_t_min is not None:
            number("ladder_t_min", self.ladder_t_min, 0, self.ladder_t_max,
                   open_lo=True, open_hi=True)
        _named("ladder_ratio, ladder_t_min, ladder_t_max", self.build_ladder,
               Grid(self.dim, self.n))

    def build_ladder(self, grid: Grid) -> TimeLadder:
        if self.ladder_t_min is None:
            return super().build_ladder(grid)
        return TimeLadder(self.ladder_t_min, self.ladder_t_max, self.ladder_ratio)


def _config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _header(payload: dict, seed: int | None) -> dict:
    return {"version": __version__, "config_hash": _config_hash(payload),
            "seed": seed}


def _comment_lines(header: dict) -> str:
    return "".join(f"# {key} {value}\n" for key, value in header.items())


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _parse_rational(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"{flag} expects a rational like 3/2, got {text!r}")


def _parse_exponent(text: str, flag: str) -> ExtReal:
    """A rational exponent, or infinity in any spelling ExtReal reads."""
    return INF if text.strip().lower() in INF_SPELLINGS else ext(_parse_rational(text, flag))


def _load_json(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return data


def _write_text(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


# glibc's mallopt parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, and the
# size both are set to.  A command's numpy temporaries (up to a few MB)
# then stay in the heap when freed, instead of going back to the OS and
# being faulted in afresh by the next allocation.  Both are set because
# any mallopt call freezes glibc's dynamic mmap threshold where it is.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
HEAP_THRESHOLD = 64 << 20


def _tune_heap():
    """Raise the heap's trim and mmap thresholds to HEAP_THRESHOLD; a no-op
    where the C library has no mallopt.  Called by the command line only,
    so importing the library leaves its process's allocator as it is."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    # no mallopt in the C library, or no handle on the process's own
    # symbols (Windows)
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, HEAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, HEAP_THRESHOLD)


@click.group()
@click.version_option(__version__)
def main():
    """Exact exponent calculus, square-function fields, check suites."""
    _tune_heap()


@main.command("exponents")
@click.option("--alpha", default=None, help="weight power, a rational like -3/2")
@click.option("--n", "n", type=int, default=None, help="ambient dimension")
@click.option("--K", "--k", "k", type=int, default=None,
              help="composition count for the Sobolev exponent chain")
@click.option("--p0", default=None, help="lower exponent, a rational or inf")
@click.option("--q0", default=None, help="upper exponent, a rational or inf")
@click.option("--corollary", type=click.Choice(["heat", "poisson"]), default=None,
              help="emit the admissible power interval instead")
@click.option("--out", "-o", type=click.Path(dir_okay=False), default=None,
              help="also write the result (with header) to this JSON file")
def cmd_exponents(alpha, n, k, p0, q0, corollary, out):
    """Exact rational exponent queries for a power weight."""
    if n is None:
        raise click.UsageError("--n is required")
    config = {"alpha": alpha, "n": n, "K": k, "p0": p0, "q0": q0,
              "corollary": corollary}
    try:
        if corollary is not None:
            ranges = corollary_ranges("power_weight", {"n": n, "family": corollary})
            result = {
                "alpha_range": [str(ranges["alpha_lo"]), str(ranges["alpha_hi"])],
                "gamma_range": [str(ranges["gamma_lo"]), str(ranges["gamma_hi"])],
            }
        else:
            if alpha is None:
                raise click.UsageError("--alpha is required without --corollary")
            pair = power_weight_criticals(_parse_rational(alpha, "--alpha"), n)
            result = {"r_w": str(pair.r_w), "s_w": str(pair.s_w)}
            p_minus, p_plus = surrogate_p_bounds(pair, n)
            result["surrogate_p"] = [str(p_minus), str(p_plus)]
            if p0 is not None and k is not None:
                q = _parse_exponent(p0, "--p0")
                result["sobolev_exponent"] = str(sobolev_exponent(q, k, pair.r_w, n))
                result["poisson_upper"] = str(poisson_upper(q, k, pair.r_w, n))
            if p0 is not None and q0 is not None:
                rng = range_W(_parse_exponent(p0, "--p0"), _parse_exponent(q0, "--q0"), pair)
                result["range_W"] = [str(rng.lower), str(rng.upper)]
    except (TypeError, ValueError) as exc:
        _fail(str(exc))
    click.echo(json.dumps(result))
    if out is not None:
        _write_text(out, json.dumps(
            {"header": _header(config, None), **result}, indent=2, allow_nan=False
        ) + "\n")


# `sf` flag ranges.  A bump narrower than BUMP_SIGMA[0] reaches at most one
# cell centre of any grid within the caps (h >= 1/128), and one wider than
# BUMP_SIGMA[1] is constant on the unit torus to 1e-6.  Exponents in
# NORM_P and density powers w^delta with |delta| <= DENSITY_POWER_CAP keep
# |f|^p and the sampled density (d^(alpha delta), d >= 1/256) inside the
# float range for fields of ordinary size; a norm that still leaves it is
# rejected after the run.
BUMP_SIGMA = (1e-3, 1e3)
NORM_P = (0.1, 100.0)
DENSITY_POWER_CAP = 10.0


def _flag_int(name: str, text: str) -> int:
    if text.isascii() and text.isdigit() and len(text) <= 18:
        return int(text)
    _fail(f"{name}: expected an integer in [0, 10^18), got {text!r}")


def _flag_real(name: str, text: str, lo: float, hi: float) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not lo <= value <= hi:  # false for NaN
        _fail(f"{name}: expected a real number in [{lo:g}, {hi:g}], got {text!r}")
    return value


@dataclass(frozen=True)
class FunctionSpec:
    """A parsed `--f` value: the flag text as given (for the header), its
    kind and its mode index, seed or bump width."""

    text: str
    kind: str
    arg: int | float = 0


def _parse_f(ctx, param, text: str) -> FunctionSpec:
    kind, _, arg = text.partition(":")
    if text == "constant":
        return FunctionSpec(text, kind)
    if kind == "eig":
        return FunctionSpec(text, kind, _flag_int("--f eig:K", arg))
    if kind == "random":
        return FunctionSpec(text, kind, _flag_int("--f random:SEED", arg))
    if kind == "bump":
        return FunctionSpec(text, kind, _flag_real("--f bump:SIGMA", arg, *BUMP_SIGMA))
    _fail(f"--f: unknown function spec {text!r}; use constant, eig:K, "
          "random:SEED or bump:SIGMA")


def _parse_order(ctx, param, text: str | None) -> int | None:
    return None if text is None else _flag_int("--m", text)


def _parse_p(ctx, param, texts: tuple[str, ...]) -> tuple[float, ...]:
    return tuple(_flag_real("--p", text, *NORM_P) for text in texts)


def _parse_v(ctx, param, texts: tuple[str, ...]) -> tuple[tuple[str, float], ...]:
    """Each density as (flag text, delta) for v = w^delta; `one` is delta 0."""
    specs = []
    for text in texts:
        kind, _, arg = text.partition(":")
        if text == "one":
            specs.append((text, 0.0))
        elif kind == "w":
            specs.append((text, _flag_real("--v w:DELTA", arg, -DENSITY_POWER_CAP,
                                           DENSITY_POWER_CAP)))
        else:
            _fail(f"--v: unknown density spec {text!r}; use one or w:DELTA")
    return tuple(specs)


def _materialize_f(spec: FunctionSpec, op: SpectralOperator) -> NDArray:
    grid = op.grid
    if spec.kind == "constant":
        return np.ones(grid.n_cells)
    if spec.kind == "eig":
        return op.mode(spec.arg)
    if spec.kind == "random":
        return np.random.default_rng(spec.arg).standard_normal(grid.n_cells)
    # the bank's Gaussian bump, centered on the torus
    return materialize(BankFunction("bump", (0.5,) * grid.dim + (spec.arg,)), op)


@main.command("sf")
@click.option("--kind", type=click.Choice(sorted(KIND_TOKENS)), required=True,
              help="square function family")
@click.option("--m", "--K", "order", default=None, callback=_parse_order,
              metavar="INTEGER",
              help="semigroup order (family minimum when omitted)")
@click.option("--f", "f_spec", default="random:0", show_default=True, callback=_parse_f,
              help="input function: constant, eig:K, random:SEED, "
                   f"bump:SIGMA (SIGMA in [{BUMP_SIGMA[0]:g}, {BUMP_SIGMA[1]:g}])")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON RunConfig file")
@click.option("--p", "p_values", multiple=True, default=("2.0",), show_default=True,
              callback=_parse_p,
              help=f"exponents for the summary norms, in [{NORM_P[0]:g}, {NORM_P[1]:g}]")
@click.option("--v", "v_specs", multiple=True, default=("one",), show_default=True,
              callback=_parse_v,
              help="density for the summary norms: one or w:DELTA "
                   f"(|DELTA| <= {DENSITY_POWER_CAP:g})")
@click.option("--out-field", type=click.Path(dir_okay=False), default="sf_field.csv",
              show_default=True, help="per-cell values CSV")
@click.option("--out-summary", type=click.Path(dir_okay=False),
              default="sf_summary.json", show_default=True, help="summary JSON")
def cmd_sf(kind, order, f_spec, config_path, p_values, v_specs, out_field,
           out_summary):
    """Evaluate one square function on a configured grid."""
    try:
        sf_kind = SquareFunctionKind(KIND_TOKENS[kind], order)
    except ValueError as exc:
        _fail(f"--m: {exc}")
    try:
        config = RunConfig.from_dict(_load_json(config_path)) if config_path \
            else RunConfig()
        if f_spec.kind == "eig" and f_spec.arg >= config.n**config.dim:
            _fail(f"--f eig:K: eigenmode index {f_spec.arg} outside "
                  f"[0, {config.n**config.dim})")
        op = config.build_operator(config.n)
        ladder = config.build_ladder(op.grid)
        f = _materialize_f(f_spec, op)
        values = evaluate(sf_kind, op, f, ladder)
        with np.errstate(over="ignore"):
            norms = [
                {"p": p, "v": v_text,
                 "norm": lp_norm(values, p, PowerWeight(config.weight_alpha * delta),
                                 op.weight, op.grid)}
                for p in p_values for v_text, delta in v_specs
            ]
    except (TypeError, ValueError) as exc:
        _fail(str(exc))
    for entry in norms:
        if not np.isfinite(entry["norm"]):
            _fail(f"--p {entry['p']:g}, --v {entry['v']}: the norm overflows")

    payload = {**asdict(config), "kind": kind, "order": sf_kind.order,
               "f": f_spec.text}
    header = _header(payload, config.seed)
    result_to_csv(op.grid, values, out_field, _comment_lines(header))
    _write_text(out_summary, json.dumps({
        "header": header,
        "kind": kind,
        "family": sf_kind.family,
        "order": sf_kind.order,
        "f": f_spec.text,
        "config": asdict(config),
        "norms": norms,
    }, indent=2, allow_nan=False) + "\n")
    click.echo(f"wrote {out_field} and {out_summary}")


@main.command("verify")
@click.option("--suite", type=click.Choice([*sorted(SUITE_TOKENS), "all"]),
              default="all", show_default=True)
@click.option("--seed", type=int, default=None, help="overrides the config seed")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON SuiteConfig file")
@click.option("--out-json", type=click.Path(dir_okay=False),
              default="verify_report.json", show_default=True)
@click.option("--out-csv", type=click.Path(dir_okay=False),
              default="verify_report.csv", show_default=True)
def cmd_verify(suite, seed, config_path, out_json, out_csv):
    """Run the check suites and write the reports."""
    try:
        data = _load_json(config_path) if config_path else {}
        if seed is not None:
            data["seed"] = seed
        config = SuiteConfig.from_dict(data)
        names = None if suite == "all" else [SUITE_TOKENS[suite]]
        reports = run_suites(config, names)
    except (TypeError, ValueError) as exc:
        _fail(str(exc))

    header = _header({**asdict(config), "suite": suite}, config.seed)
    _write_text(out_json, reports_to_json(reports, header))
    csv_body = reports_to_csv(reports)
    _write_text(out_csv, _comment_lines(header) + csv_body)

    failed = [
        f"{r.suite}/{c.id}" for r in reports for c in r.checks
        if c.verdict != "pass"
    ]
    for report in reports:
        click.echo(f"{report.suite}: {'PASS' if report.passed else 'FAIL'}")
    click.echo(f"wrote {out_json} and {out_csv}")
    if failed:
        click.echo(f"failed checks: {', '.join(failed)}", err=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
