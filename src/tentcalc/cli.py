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
    corollary_ranges,
    ext,
    poisson_upper,
    power_weight_criticals,
    range_W,
    sobolev_exponent,
    surrogate_p_bounds,
)
from .mesh import PowerWeight, UNIT_WEIGHT, Grid, WeightModel, lp_norm
from .operator import SpectralOperator, check_dense_budget
from .semigroup import TimeLadder
from .squarefn import SquareFunctionKind, evaluate, result_to_csv
from .verify import (
    BankFunction,
    ProblemConfig,
    SuiteConfig,
    _check_int,
    _check_real,
    _named,
    materialize,
    reports_to_csv,
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

    Caps keep runs inside the budget of the eigendecomposition (an M x M
    `eigh` when the weight has no mirror symmetry): dim in {1, 2}, at
    most 128 cells per side and 4096 cells.  The ladder starts at
    ladder_t_min when given, else at the default start, and has at most
    LADDER_CAP nodes.  All of it is checked here, before anything is
    allocated.
    """

    n: int = 16
    ladder_t_min: float | None = None

    def __post_init__(self):
        _check_int("n", self.n, 1)
        _named("dim, n", check_dense_budget, self.dim, self.n)
        super().__post_init__()
        if self.ladder_t_min is not None:
            _check_real("ladder_t_min", self.ladder_t_min)
            if not 0.0 < self.ladder_t_min < self.ladder_t_max:
                raise ValueError(
                    f"ladder_t_min must be in (0, t_max), got {self.ladder_t_min}"
                )
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


def _load_json(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return data


def _write_text(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


@click.group()
@click.version_option(__version__)
def main():
    """Exact exponent calculus, square-function fields, check suites."""


@main.command("exponents")
@click.option("--alpha", default=None, help="weight power, a rational like -3/2")
@click.option("--n", "n", type=int, default=None, help="ambient dimension")
@click.option("--K", "--k", "k", type=int, default=None,
              help="composition count for the Sobolev exponent chain")
@click.option("--p0", default=None, help="rational lower exponent")
@click.option("--q0", default=None, help="rational upper exponent")
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
                q = ext(_parse_rational(p0, "--p0"))
                result["sobolev_exponent"] = str(sobolev_exponent(q, k, pair.r_w, n))
                result["poisson_upper"] = str(poisson_upper(q, k, pair.r_w, n))
            if p0 is not None and q0 is not None:
                lo = ext(_parse_rational(p0, "--p0"))
                hi = ext(_parse_rational(q0, "--q0"))
                rng = range_W(lo, hi, pair)
                result["range_W"] = [str(rng.lower), str(rng.upper)]
    except (TypeError, ValueError) as exc:
        _fail(str(exc))
    click.echo(json.dumps(result))
    if out is not None:
        _write_text(out, json.dumps(
            {"header": _header(config, None), **result}, indent=2
        ) + "\n")


def _materialize_f(spec: str, op: SpectralOperator) -> NDArray:
    grid = op.grid
    if spec == "constant":
        return np.ones(grid.n_cells)
    if spec.startswith("eig:"):
        index = int(spec.split(":", 1)[1])
        if not 0 <= index < grid.n_cells:
            raise ValueError(f"eigenmode index {index} outside [0, {grid.n_cells})")
        return op.mode(index)
    if spec.startswith("random:"):
        seed = int(spec.split(":", 1)[1])
        return np.random.default_rng(seed).standard_normal(grid.n_cells)
    if spec.startswith("bump:"):
        sigma = float(spec.split(":", 1)[1])
        if sigma <= 0:
            raise ValueError(f"bump width must be positive, got {sigma}")
        # the bank's Gaussian bump, centered on the torus
        return materialize(BankFunction("bump", (0.5,) * grid.dim + (sigma,)), op)
    raise ValueError(
        f"unknown function spec {spec!r}; use constant, eig:K, random:SEED or bump:SIGMA"
    )


def _density_model(spec: str, config: RunConfig) -> WeightModel:
    if spec == "one":
        return UNIT_WEIGHT
    if spec.startswith("w:"):
        delta = float(spec.split(":", 1)[1])
        return PowerWeight(config.weight_alpha * delta)
    raise ValueError(f"unknown density spec {spec!r}; use one or w:DELTA")


@main.command("sf")
@click.option("--kind", type=click.Choice(sorted(KIND_TOKENS)), required=True,
              help="square function family")
@click.option("--m", "--K", "order", type=int, default=None,
              help="semigroup order (family minimum when omitted)")
@click.option("--f", "f_spec", default="random:0", show_default=True,
              help="input function: constant, eig:K, random:SEED, bump:SIGMA")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON RunConfig file")
@click.option("--p", "p_values", multiple=True, type=float, default=(2.0,),
              show_default=True, help="exponents for the summary norms")
@click.option("--v", "v_specs", multiple=True, default=("one",), show_default=True,
              help="density for the summary norms: one or w:DELTA")
@click.option("--out-field", type=click.Path(dir_okay=False), default="sf_field.csv",
              show_default=True, help="per-cell values CSV")
@click.option("--out-summary", type=click.Path(dir_okay=False),
              default="sf_summary.json", show_default=True, help="summary JSON")
def cmd_sf(kind, order, f_spec, config_path, p_values, v_specs, out_field,
           out_summary):
    """Evaluate one square function on a configured grid."""
    try:
        config = RunConfig.from_dict(_load_json(config_path)) if config_path \
            else RunConfig()
        sf_kind = SquareFunctionKind(KIND_TOKENS[kind], order)
        op = config.build_operator(config.n)
        ladder = config.build_ladder(op.grid)
        f = _materialize_f(f_spec, op)
        values = evaluate(sf_kind, op, f, ladder)
        norms = [
            {"p": p, "v": v_spec,
             "norm": lp_norm(values, p, _density_model(v_spec, config),
                             op.weight, op.grid)}
            for p in p_values for v_spec in v_specs
        ]
    except (TypeError, ValueError) as exc:
        _fail(str(exc))

    payload = {**asdict(config), "kind": kind, "order": sf_kind.order,
               "f": f_spec}
    header = _header(payload, config.seed)
    result_to_csv(op.grid, values, out_field, _comment_lines(header))
    _write_text(out_summary, json.dumps({
        "header": header,
        "kind": kind,
        "family": sf_kind.family,
        "order": sf_kind.order,
        "f": f_spec,
        "config": asdict(config),
        "norms": norms,
    }, indent=2) + "\n")
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
    json_text = json.dumps({
        "header": header,
        "reports": [r.to_json_dict() for r in reports],
    }, indent=2) + "\n"
    _write_text(out_json, json_text)
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
