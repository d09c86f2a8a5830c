"""CLI tests: flag parsing, exit codes, output files, determinism."""

import ast
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import tentcalc
from tentcalc import cli, verify
from tentcalc.cli import RunConfig, main

SMALL_SUITE = {"sizes": [8, 16], "bank_size": 6}


@pytest.fixture
def runner():
    return CliRunner()


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def _no_constant(name):
    raise ValueError(f"output holds the non-JSON constant {name}")


def _run_python(code, cwd=None):
    """Run `code` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    root = str(Path(tentcalc.__file__).resolve().parents[1])
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + rest if rest else "")
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.dim == 2
        assert cfg.n == 16
        assert cfg.seed == 7

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"weight_beta": 1.0})

    def test_rejects_alpha_at_cap(self):
        with pytest.raises(ValueError, match="alpha outside"):
            RunConfig(dim=2, weight_alpha=2.0)

    def test_rejects_oversized_grid(self):
        with pytest.raises(ValueError, match="grid size"):
            RunConfig(dim=2, n=128)

    def test_rejects_bad_ladder(self):
        with pytest.raises(ValueError, match="ladder_ratio"):
            RunConfig(ladder_ratio=1.0)
        with pytest.raises(ValueError, match="ladder_t_min"):
            RunConfig(ladder_t_min=2.0, ladder_t_max=1.0)
        with pytest.raises(ValueError, match="nodes"):
            RunConfig(ladder_t_min=1e-9, ladder_ratio=1.001)


@pytest.mark.parametrize("bad, match", [
    ({"dim": 3}, "dim must be 1 or 2"),
    ({"weight_alpha": 2.0}, "alpha outside"),
    ({"weight_alpha": -2.0}, "alpha outside"),
    ({"dim": 1, "weight_alpha": 1.0}, "alpha outside"),
    ({"weight_alpha": float("nan")}, "alpha outside"),
    ({"ladder_ratio": 1.0}, "ladder_ratio"),
    ({"ladder_ratio": 2.5}, "ladder_ratio"),
    ({"ladder_t_max": 0.0}, "ladder_t_max"),
    ({"ladder_t_max": 9.0}, "ladder_t_max"),
    ({"coeff_entries": (1.0,)}, "coeff_entries"),
    ({"coeff_entries": (1.0, 2.0, 3.0)}, "coeff_entries"),
    ({"coeff_entries": (1.0, 0.0)}, "coeff_entries"),
    ({"coeff_entries": 5}, "coeff_entries"),
    ({"coeff_entries": ("x", 1.0)}, "coeff_entries"),
    ({"seed": 1.5}, "seed"),
    ({"seed": -1}, "seed"),
    ({"seed": True}, "seed"),
    ({"dim": 2.0}, "dim must be an integer"),
    ({"dim": True}, "dim must be an integer"),
    ({"weight_alpha": "x"}, "weight_alpha must be a real number"),
    ({"weight_alpha": True}, "weight_alpha must be a real number"),
    ({"ladder_ratio": "x"}, "ladder_ratio must be a real number"),
    ({"ladder_t_max": "x"}, "ladder_t_max must be a real number"),
])
@pytest.mark.parametrize("config_cls", [RunConfig, verify.SuiteConfig])
def test_shared_fields_rejected_alike(config_cls, bad, match):
    with pytest.raises(ValueError, match=match):
        config_cls(**bad)


class TestExponents:
    def test_power_weight_criticals(self, runner):
        result = runner.invoke(main, ["exponents", "--alpha", "1", "--n", "2"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["r_w"] == "3/2"
        assert data["s_w"] == "1"

    def test_corollary_poisson(self, runner):
        result = runner.invoke(main, ["exponents", "--corollary", "poisson",
                                      "--n", "6"])
        assert result.exit_code == 0
        assert json.loads(result.output)["alpha_range"] == ["-3/2", "4"]

    def test_corollary_heat(self, runner):
        result = runner.invoke(main, ["exponents", "--corollary", "heat",
                                      "--n", "2"])
        assert json.loads(result.output)["alpha_range"] == ["-1", "2"]

    def test_alpha_out_of_range_is_domain_error(self, runner):
        result = runner.invoke(main, ["exponents", "--alpha", "5", "--n", "2"])
        assert result.exit_code == 1
        assert "alpha outside (-n, n)" in result.output

    def test_nonpositive_n_is_named(self, runner):
        result = runner.invoke(main, ["exponents", "--alpha", "0", "--n", "-3"])
        assert result.exit_code == 1
        assert "n must be >= 1, got -3" in result.output

    def test_missing_n_is_usage_error(self, runner):
        result = runner.invoke(main, ["exponents", "--alpha", "1"])
        assert result.exit_code == 2

    def test_bad_rational_is_usage_error(self, runner):
        result = runner.invoke(main, ["exponents", "--alpha", "one", "--n", "2"])
        assert result.exit_code == 2

    def test_sobolev_chain(self, runner):
        result = runner.invoke(main, ["exponents", "--alpha", "1", "--n", "2",
                                      "--p0", "2", "--K", "1"])
        data = json.loads(result.output)
        assert data["sobolev_exponent"] == "6"
        assert data["poisson_upper"] == "inf"

    def test_range_w(self, runner):
        result = runner.invoke(main, ["exponents", "--alpha", "1", "--n", "2",
                                      "--p0", "3/2", "--q0", "4"])
        assert json.loads(result.output)["range_W"] == ["9/4", "4"]

    @pytest.mark.parametrize("q0", ["inf", "Infinity", " +INF", "oo"])
    def test_range_w_to_infinity(self, runner, q0):
        # the heat ranges are (p_-, inf), so q0 takes each infinity
        # spelling that ExtReal reads
        result = runner.invoke(main, ["exponents", "--alpha", "1", "--n", "2",
                                      "--p0", "1", "--q0", q0])
        assert result.exit_code == 0, result.output
        assert '"range_W": ["3/2", "inf"]' in result.output

    @pytest.mark.parametrize("p0, q0, code", [
        ("1", "infinite", 2), ("1", "1/0", 2), ("x", "4", 2), ("1", "-1", 1),
        ("-1/2", "4", 1),
    ])
    def test_exponent_flag_exit_codes(self, runner, p0, q0, code):
        # unparsable text is a usage error, a negative exponent a domain error
        result = runner.invoke(main, ["exponents", "--alpha", "1", "--n", "2",
                                      "--p0", p0, "--q0", q0])
        assert result.exit_code == code, result.output

    def test_loads_no_scipy(self):
        # scipy is a test dependency only: neither importing the CLI nor an
        # exponent query loads it
        code = (
            "import sys\n"
            "import tentcalc.cli\n"
            "def loaded():\n"
            "    return [m for m in sys.modules if m.startswith('scipy')]\n"
            "assert not loaded(), loaded()\n"
            "try:\n"
            "    tentcalc.cli.main.main(args=['exponents', '--alpha', '1', '--n', '2'],\n"
            "                           prog_name='tentcalc')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "assert not loaded(), loaded()\n"
        )
        result = _run_python(code)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["r_w"] == "3/2"

    def test_out_file_carries_header(self, runner):
        with runner.isolated_filesystem():
            result = runner.invoke(main, ["exponents", "--alpha", "1", "--n", "2",
                                          "-o", "exp.json"])
            assert result.exit_code == 0
            data = json.loads(Path("exp.json").read_text(), parse_constant=_no_constant)
            assert data["header"]["version"]
            assert len(data["header"]["config_hash"]) == 12
            assert data["r_w"] == "3/2"


def test_sf_and_verify_load_no_scipy(tmp_path):
    # assembly diagonalises with numpy's eigh, so a field and a verify run
    # load no scipy either
    _write_json(tmp_path / "sf.json", {"dim": 2, "n": 8})
    _write_json(tmp_path / "suite.json", {"sizes": [8, 16], "bank_size": 2})
    code = (
        "import sys\n"
        "import tentcalc.cli\n"
        "for args in (['sf', '--kind', 'SH', '--m', '1', '--f', 'random:1',\n"
        "              '--config', 'sf.json'],\n"
        "             ['verify', '--suite', 'appendix', '--seed', '7',\n"
        "              '--config', 'suite.json']):\n"
        "    try:\n"
        "        tentcalc.cli.main.main(args=args, prog_name='tentcalc')\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, (args, exc.code)\n"
        "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
        "assert not loaded, loaded\n"
    )
    result = _run_python(code, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "sf_field.csv").exists()
    assert (tmp_path / "verify_report.json").exists()


def test_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with every scipy import failing,
    # the commands and the six demos (subordination included) still run
    _write_json(tmp_path / "sf.json", {"dim": 2, "n": 8})
    _write_json(tmp_path / "suite.json", {"sizes": [8, 16], "bank_size": 2})
    demos = sorted(str(p) for p in
                   (Path(tentcalc.__file__).resolve().parents[2] / "demos").glob("*.py"))
    assert len(demos) == 6, demos
    code = (
        "import runpy, sys\n"
        "sys.modules['scipy'] = None\n"
        "import tentcalc.cli\n"
        "for args in (['exponents', '--alpha', '1', '--n', '2'],\n"
        "             ['sf', '--kind', 'SH', '--config', 'sf.json'],\n"
        "             ['verify', '--suite', 'all', '--config', 'suite.json']):\n"
        "    try:\n"
        "        tentcalc.cli.main.main(args=args, prog_name='tentcalc')\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, (args, exc.code)\n"
        f"for demo in {demos!r}:\n"
        "    runpy.run_path(demo, run_name='__main__')\n"
    )
    result = _run_python(code, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "sf_summary.json").exists()
    assert (tmp_path / "verify_report.json").exists()


def test_package_imports_no_scipy():
    package = Path(tentcalc.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "scipy"]
    assert not found, found


class TestSf:
    def test_constant_gives_zero_field(self, runner):
        with runner.isolated_filesystem():
            _write_json("cfg.json", {"dim": 1, "n": 16, "weight_alpha": 0.5})
            result = runner.invoke(main, ["sf", "--kind", "SH", "--m", "1",
                                          "--f", "constant", "--config", "cfg.json"])
            assert result.exit_code == 0
            summary = json.loads(Path("sf_summary.json").read_text())
            assert summary["norms"][0]["norm"] <= 1e-10
            lines = Path("sf_field.csv").read_text().splitlines()
            assert lines[0].startswith("# version")
            assert lines[1].startswith("# config_hash")
            assert lines[2].startswith("# seed")
            assert lines[3] == "x,value"
            values = np.array([float(line.split(",")[1]) for line in lines[4:]])
            assert values.shape == (16,)
            assert np.all(values <= 1e-10)

    def test_eigenmode_norm_close_to_one_eighth(self, runner):
        with runner.isolated_filesystem():
            _write_json("cfg.json", {"dim": 1, "n": 16, "weight_alpha": 0.5,
                                     "ladder_t_min": 0.004, "ladder_t_max": 4.0})
            result = runner.invoke(main, ["sf", "--kind", "SH", "--m", "1",
                                          "--f", "eig:3", "--config", "cfg.json"])
            assert result.exit_code == 0
            norm = json.loads(Path("sf_summary.json").read_text())["norms"][0]["norm"]
            assert norm**2 == pytest.approx(0.125, rel=1e-4)

    def test_field_csv_bytes(self, runner):
        with runner.isolated_filesystem():
            _write_json("cfg.json", {"dim": 2, "n": 8})
            result = runner.invoke(main, ["sf", "--kind", "SH", "--config", "cfg.json"])
            assert result.exit_code == 0
            with open("sf_field.csv", "rb") as fh:
                data = fh.read()
            assert b"\r" not in data and data.endswith(b"\n")
            lines = data[:-1].split(b"\n")
            assert lines[0] == b"# version 0.1.0"
            assert lines[1].startswith(b"# config_hash ")
            assert len(lines[1].split(b" ")[2]) == 12
            assert lines[2] == b"# seed 7"
            assert lines[3] == b"x,y,value"
            assert len(lines) == 4 + 64
            assert not any(line.startswith(b"#") for line in lines[3:])

    def test_poisson_order_zero_rejected(self, runner):
        result = runner.invoke(main, ["sf", "--kind", "SP", "--K", "0"])
        assert result.exit_code == 1
        assert "S_P" in result.output

    @pytest.mark.parametrize("config, field", [
        ({"n": 16.5}, "n must be an integer"),
        ({"n": "x"}, "n must be an integer"),
        ({"dim": 2.0}, "dim must be an integer"),
        ({"ladder_t_min": "x"}, "ladder_t_min must be a real number"),
    ], ids=["n-float", "n-string", "dim-float", "t-min-string"])
    def test_mistyped_config_rejected(self, runner, config, field):
        # rejected when read, with the field named rather than a Python
        # comparison error, and no output written
        with runner.isolated_filesystem():
            _write_json("cfg.json", config)
            result = runner.invoke(main, ["sf", "--kind", "SH",
                                          "--config", "cfg.json"])
            assert result.exit_code == 1, result.output
            assert result.output.startswith(f"error: {field}")
            assert not os.path.exists("sf_field.csv")

    def test_unknown_config_key_rejected(self, runner):
        with runner.isolated_filesystem():
            _write_json("cfg.json", {"dim": 1, "n": 16, "weight_beta": 0.5})
            result = runner.invoke(main, ["sf", "--kind", "SH",
                                          "--config", "cfg.json"])
            assert result.exit_code == 1
            assert "unknown config keys" in result.output

    def test_missing_config_file_is_usage_error(self, runner):
        result = runner.invoke(main, ["sf", "--kind", "SH",
                                      "--config", "absent.json"])
        assert result.exit_code == 2

    def test_unknown_f_spec_rejected(self, runner):
        with runner.isolated_filesystem():
            _write_json("cfg.json", {"dim": 1, "n": 16, "weight_alpha": 0.5})
            result = runner.invoke(main, ["sf", "--kind", "SH",
                                          "--f", "spline:3", "--config", "cfg.json"])
            assert result.exit_code == 1
            assert "unknown function spec" in result.output

    @pytest.mark.parametrize("flags, flag", [
        (["--p", "nan"], "--p"),
        (["--p", "inf"], "--p"),
        (["--p", "-1"], "--p"),
        (["--v", "w:nan"], "--v w:DELTA"),
        (["--v", "w:inf"], "--v w:DELTA"),
        (["--f", "bump:nan"], "--f bump:SIGMA"),
        (["--f", "bump:1e-300"], "--f bump:SIGMA"),
        (["--f", "random:-1"], "--f random:SEED"),
        (["--f", "eig:x"], "--f eig:K"),
        (["--f", "eig:256"], "--f eig:K"),
        (["--m", "9"], "--m"),
        (["--m", "x"], "--m"),
    ], ids=["p-nan", "p-inf", "p-negative", "v-nan", "v-inf", "bump-nan",
            "bump-tiny", "random-negative", "eig-string", "eig-past-cells",
            "m-past-cap", "m-string"])
    def test_bad_flag_rejected_before_assembly(self, runner, monkeypatch, flags, flag):
        def no_assembly(*args, **kwargs):
            pytest.fail("operator assembled for a flag that must be rejected")

        monkeypatch.setattr(verify, "assemble", no_assembly)
        with runner.isolated_filesystem():
            result = runner.invoke(main, ["sf", "--kind", "SH", *flags])
            assert result.exit_code == 1, result.output
            assert result.output.startswith(f"error: {flag}: "), result.output
            assert not os.path.exists("sf_summary.json")

    def test_density_options(self, runner):
        with runner.isolated_filesystem():
            _write_json("cfg.json", {"dim": 1, "n": 16, "weight_alpha": 0.5})
            result = runner.invoke(main, [
                "sf", "--kind", "SH", "--f", "random:3", "--config", "cfg.json",
                "--p", "2", "--p", "4", "--v", "one", "--v", "w:-1",
            ])
            assert result.exit_code == 0
            norms = json.loads(Path("sf_summary.json").read_text())["norms"]
            assert len(norms) == 4
            assert all(n["norm"] > 0 for n in norms)


class TestVerifyCommand:
    def test_small_suite_passes(self, runner):
        with runner.isolated_filesystem():
            _write_json("cfg.json", SMALL_SUITE)
            result = runner.invoke(main, ["verify", "--suite", "heat",
                                          "--seed", "7", "--config", "cfg.json"])
            assert result.exit_code == 0, result.output
            assert "heat_control: PASS" in result.output
            report = json.loads(Path("verify_report.json").read_text())
            assert report["header"]["seed"] == 7
            assert report["reports"][0]["suite"] == "heat_control"
            lines = Path("verify_report.csv").read_text().splitlines()
            assert lines[0].startswith("# version")
            assert lines[3] == "suite,check,value,verdict"

    def test_byte_determinism(self, runner):
        outputs = []
        for _ in range(2):
            with runner.isolated_filesystem():
                _write_json("cfg.json", SMALL_SUITE)
                result = runner.invoke(main, ["verify", "--suite", "appendix",
                                              "--seed", "7", "--config", "cfg.json"])
                assert result.exit_code == 0
                outputs.append((
                    Path("verify_report.json").read_bytes(),
                    Path("verify_report.csv").read_bytes(),
                    result.output,
                ))
        assert outputs[0] == outputs[1]

    def test_bogus_suite_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "bogus"])
        assert result.exit_code == 2

    def test_failing_check_exits_three(self, runner):
        with runner.isolated_filesystem():
            _write_json("cfg.json", {**SMALL_SUITE, "drift_limit": 1e-9})
            result = runner.invoke(main, ["verify", "--suite", "heat",
                                          "--config", "cfg.json"])
            assert result.exit_code == 3
            assert "failed checks" in result.output

    def test_unknown_config_key_rejected(self, runner):
        with runner.isolated_filesystem():
            _write_json("cfg.json", {"sizes": [8, 16], "bank": 6})
            result = runner.invoke(main, ["verify", "--suite", "heat",
                                          "--config", "cfg.json"])
            assert result.exit_code == 1
            assert "unknown config keys" in result.output

    @pytest.mark.parametrize("config", [
        {"sizes": [16, 256], "dim": 1},
        {"sizes": [32, 128]},
        {"sizes": [2, 16]},
        {"ladder_ratio": 1 + 1e-12},
    ], ids=["side", "cells", "small", "ladder"])
    def test_oversized_config_is_domain_error(self, runner, config):
        # rejected while the config is read, before any operator or ladder
        with runner.isolated_filesystem():
            _write_json("cfg.json", config)
            result = runner.invoke(main, ["verify", "--config", "cfg.json"])
            assert result.exit_code == 1
            assert "grid size" in result.output or "nodes" in result.output
            assert not os.path.exists("verify_report.json")

    @pytest.mark.parametrize("config, field", [
        ({"weight_alpha": 3.0}, "alpha"),
        ({"weight_alpha": -2.5}, "alpha"),
        ({"ladder_ratio": 4.0}, "ladder_ratio"),
        ({"coeff_entries": [1.0]}, "coeff_entries"),
        ({"appendix_alphas": []}, "appendix_alphas"),
        ({"appendix_alphas": [1.0]}, "appendix_alphas"),
        ({"appendix_alphas": [1.0, -0.5]}, "appendix_alphas"),
        ({"drift_limit": -1}, "drift_limit"),
        ({"drift_limit": float("nan")}, "drift_limit"),
        ({"bank_size": True, "sizes": [8, 16]}, "bank_size"),
        ({"bank_size": 2.5}, "bank_size"),
        ({"seed": 1.5}, "seed"),
        ({"coeff_entries": 5}, "coeff_entries"),
        ({"sizes": [8.5, 16]}, "sizes must be an integer"),
        ({"sizes": 16}, "sizes"),
        ({"appendix_r": float("nan")}, "appendix_r must be finite"),
        ({"appendix_q": float("nan")}, "appendix_q must be finite"),
        ({"appendix_s": float("inf")}, "appendix_s must be finite"),
        ({"weight_alpha": "x"}, "weight_alpha must be a real number"),
        ({"drift_limit": "x"}, "drift_limit must be a real number"),
        ({"appendix_alphas": [1, "x"]}, "appendix_alphas must be a real number"),
        ({"appendix_alphas": 1}, "appendix_alphas"),
        ({"appendix_alphas": [1.0, float("inf")]}, "appendix_alphas"),
        ({"sizes": [8, 16], "bank_size": 3, "appendix_q": 0}, "appendix_q"),
        ({"appendix_r": -5}, "appendix_r"),
        ({"appendix_r": 0.5}, "appendix_r"),
        ({"appendix_s": -1, "appendix_q": -2}, "appendix_s"),
        ({"sizes": [8, 16], "bank_size": 100000}, "bank_size"),
        ({"coeff_entries": [1e8, 1e-8]}, "coeff_entries"),
        ({"coeff_entries": [1e3, 1e3]}, "coeff_entries"),
        ({"appendix_r": 10**400}, "appendix_r"),
    ], ids=["alpha-high", "alpha-low", "ratio", "coeff", "alphas-empty",
            "alphas-one", "alphas-negative", "drift-negative", "drift-nan",
            "bank-bool", "bank-float", "seed-float", "coeff-scalar",
            "sizes-float", "sizes-scalar", "r-nan", "q-nan", "s-inf",
            "alpha-string", "drift-string", "alphas-string", "alphas-scalar",
            "alphas-inf", "q-zero", "r-negative", "r-below-one", "s-negative",
            "bank-cap", "coeff-contrast", "coeff-max", "r-huge-int"])
    def test_bad_config_rejected_before_assembly(self, runner, monkeypatch, config,
                                                 field):
        def no_assembly(*args, **kwargs):
            pytest.fail("operator assembled for a config that must be rejected")

        monkeypatch.setattr(verify, "assemble", no_assembly)
        with runner.isolated_filesystem():
            _write_json("cfg.json", config)
            result = runner.invoke(main, ["verify", "--config", "cfg.json"])
            assert result.exit_code == 1, result.output
            assert result.output.startswith("error: ")
            assert field in result.output
            assert not os.path.exists("verify_report.json")

    @pytest.mark.parametrize("alpha, suite", [(1.25, "poisson_control"),
                                              (-1.5, "boundedness")])
    def test_inadmissible_weight_alpha_rejected_before_assembly(self, runner, monkeypatch,
                                                                alpha, suite):
        # p = 2 outside an exact range of the suite: exit 1 naming the
        # field and the suite before any suite runs
        def no_assembly(*args, **kwargs):
            pytest.fail("operator assembled for a weight power that must be rejected")

        monkeypatch.setattr(verify, "assemble", no_assembly)
        with runner.isolated_filesystem():
            _write_json("cfg.json", {"weight_alpha": alpha, "sizes": [8, 16]})
            result = runner.invoke(main, ["verify", "--suite", "all", "--seed", "7",
                                          "--config", "cfg.json"])
            assert result.exit_code == 1, result.output
            assert result.stderr.startswith("error: weight_alpha:"), result.stderr
            assert suite in result.stderr
            assert not os.path.exists("verify_report.json")
            assert not os.path.exists("verify_report.csv")

    def test_report_csv_bytes(self, runner):
        with runner.isolated_filesystem():
            _write_json("cfg.json", SMALL_SUITE)
            result = runner.invoke(main, ["verify", "--suite", "appendix",
                                          "--config", "cfg.json"])
            assert result.exit_code == 0
            with open("verify_report.csv", "rb") as fh:
                data = fh.read()
            assert b"\r" not in data and data.endswith(b"\n")
            lines = data[:-1].split(b"\n")
            assert lines[0] == b"# version 0.1.0"
            assert lines[1].startswith(b"# config_hash ")
            assert len(lines[1].split(b" ")[2]) == 12
            assert lines[2] == b"# seed 7"
            assert lines[3] == b"suite,check,value,verdict"
            assert len(lines) > 4
            assert all(line.startswith(b"appendix_q,") for line in lines[4:])

    def test_non_finite_values_written_as_strings(self, runner, monkeypatch):
        # an infinite drift and a nan sup ratio are legitimate values; the
        # report writes them as strings and stays strict JSON
        report = verify.SuiteReport("heat_control", (
            verify.Check(id="drift", kind="report_only",
                         values=(1.0, math.inf, -math.inf), verdict="fail",
                         tolerance=0.15, predicted_form="bounded"),
            verify.Check(id="ratio", kind="pass_fail", values=(math.nan,),
                         verdict="fail", tolerance=math.inf),
        ), {"class_constants_A2_of_w": {"one": math.inf}})
        monkeypatch.setattr(cli, "run_suites", lambda config, names: [report])
        with runner.isolated_filesystem():
            result = runner.invoke(main, ["verify"])
            assert result.exit_code == 3, result.output
            text = Path("verify_report.json").read_text()
            data = json.loads(text, parse_constant=_no_constant)
            csv_rows = Path("verify_report.csv").read_text().splitlines()[4:]
        checks = data["reports"][0]["checks"]
        assert checks[0]["values"] == [1.0, "inf", "-inf"]
        assert checks[1]["values"] == ["nan"] and checks[1]["tolerance"] == "inf"
        assert data["reports"][0]["environment"]["class_constants_A2_of_w"] == {
            "one": "inf"}
        assert verify.reports_to_json([report], data["header"]) == text
        assert csv_rows[1:3] == ["heat_control,drift,inf,fail",
                                 "heat_control,drift,-inf,fail"]

    def test_bytes_without_heap_setting(self, tmp_path):
        # the allocator setting changes no output byte; each run is a fresh
        # process, so the one without it has the allocator's defaults
        outputs = []
        for patch in ("tentcalc.cli._tune_heap = lambda: None", ""):
            cwd = tmp_path / f"run{len(outputs)}"
            cwd.mkdir()
            _write_json(cwd / "cfg.json", {"sizes": [8, 16], "bank_size": 2})
            code = (
                "import tentcalc.cli\n"
                f"{patch}\n"
                "tentcalc.cli.main.main(args=['verify', '--config', 'cfg.json'],\n"
                "                       prog_name='tentcalc')\n"
            )
            result = _run_python(code, cwd=cwd)
            assert result.returncode == 0, result.stderr
            outputs.append((result.stdout, (cwd / "verify_report.json").read_bytes(),
                            (cwd / "verify_report.csv").read_bytes()))
        assert outputs[0] == outputs[1]


def test_heap_setting_only_from_the_command_line(tmp_path):
    # importing the library and running the suites leave the allocator
    # alone; a command sets it once
    code = (
        "import ctypes, sys\n"
        "calls = []\n"
        "class Recorder:\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        self.mallopt = lambda *a: calls.append(a) or 1\n"
        "ctypes.CDLL = Recorder\n"
        "import tentcalc\n"
        "from tentcalc.verify import SuiteConfig, run_suites\n"
        "run_suites(SuiteConfig(sizes=(8, 16), bank_size=1))\n"
        "assert calls == [] and 'tentcalc.cli' not in sys.modules, calls\n"
        "import tentcalc.cli\n"
        "assert calls == []\n"
        "try:\n"
        "    tentcalc.cli.main.main(args=['exponents', '--alpha', '1', '--n', '2'],\n"
        "                           prog_name='tentcalc')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(calls)\n"
    )
    result = _run_python(code, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[(-3, 67108864), (-1, 67108864)]"


@given(dim=st.sampled_from([1, 2]), alpha=st.floats(-0.9, 0.9),
       bank=st.integers(1, 3), seed=st.integers(0, 2**31),
       drift=st.floats(1e-6, 1.0))
@settings(max_examples=6, deadline=None)
def test_verify_report_is_strict_json(dim, alpha, bank, seed, drift):
    # whatever the config, a report parses without NaN or Infinity; a
    # weight that puts p = 2 outside a suite's range is a domain error
    # that names weight_alpha
    runner = CliRunner()
    with runner.isolated_filesystem():
        _write_json("cfg.json", {"dim": dim, "weight_alpha": alpha * dim,
                                 "sizes": [8, 16], "bank_size": bank,
                                 "seed": seed, "drift_limit": drift})
        result = runner.invoke(main, ["verify", "--config", "cfg.json"])
        if result.exit_code == 1:
            assert result.output.startswith("error: weight_alpha:"), result.output
            return
        assert result.exit_code in (0, 3), result.output
        json.loads(Path("verify_report.json").read_text(), parse_constant=_no_constant)


class Assembled(Exception):
    """Raised in place of assembly: the config got past the reader."""


def _reach_assembly(*args, **kwargs):
    raise Assembled


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True), st.floats(-3.0, 3.0),
    st.text(max_size=3),
)
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=4))


# drawn --f, --p and --v values: well-formed and in range, or not
FLAG_ARGS = st.one_of(
    st.text(max_size=4), st.integers(-3, 10**20).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(0.1, 100.0).map(repr),
)
FLAGS = st.lists(st.one_of(
    st.sampled_from(["--f=constant", "--v=one"]),
    st.tuples(st.sampled_from(["eig", "random", "bump", "spline"]), FLAG_ARGS)
    .map(lambda kind_arg: "--f=" + ":".join(kind_arg)),
    FLAG_ARGS.map("--p={}".format),
    FLAG_ARGS.map("--v=w:{}".format),
    st.sampled_from(["--f", "--p", "--v"]).flatmap(
        lambda flag: st.text(max_size=4).map(f"{flag}={{}}".format)),
), max_size=3)
FLAG_ERROR = r"error: (--f|--p|--v)\b"


@pytest.mark.parametrize("command", [
    ["sf", "--kind", "SH"],
    ["verify"],
], ids=["sf", "verify"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_config_reader_property(command, data):
    # any JSON object over the schema keys, and for sf any flag values, is
    # rejected when read, with a field or flag named, or reaches assembly;
    # never exit 3, never a traceback
    config_cls = RunConfig if command[0] == "sf" else verify.SuiteConfig
    keys = sorted(config_cls.__dataclass_fields__)
    config = data.draw(st.dictionaries(st.sampled_from(keys), VALUES, max_size=5))
    flags = data.draw(FLAGS) if command[0] == "sf" else []
    runner = CliRunner()
    with mock.patch.object(verify, "assemble", _reach_assembly), \
            runner.isolated_filesystem():
        _write_json("cfg.json", config)
        result = runner.invoke(main, [*command, *flags, "--config", "cfg.json"])
    if isinstance(result.exception, Assembled):
        return
    assert isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code == 1, result.output
    assert re.match(rf"error: ({'|'.join(keys)})\b|{FLAG_ERROR}", result.output), \
        result.output


@given(flags=FLAGS)
@settings(max_examples=100, deadline=None)
def test_sf_flag_property(flags):
    # any flag values on a valid config: exit 0 with a summary that is
    # strict JSON (no NaN or Infinity), or exit 1 naming the flag; never
    # exit 3, a traceback or a warning
    def no_constant(name):
        raise ValueError(f"summary holds {name}")

    runner = CliRunner()
    with warnings.catch_warnings(), runner.isolated_filesystem():
        warnings.simplefilter("error")
        _write_json("cfg.json", {"dim": 1, "n": 16, "weight_alpha": 0.5})
        result = runner.invoke(main, ["sf", "--kind", "SH", *flags,
                                      "--config", "cfg.json"])
        if result.exit_code == 0:
            with open("sf_summary.json") as fh:
                json.loads(fh.read(), parse_constant=no_constant)
            return
    assert isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code == 1, result.output
    assert re.match(FLAG_ERROR, result.output), result.output
