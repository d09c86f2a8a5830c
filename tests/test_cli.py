"""CLI tests: flag parsing, exit codes, output files, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import tentcalc
from tentcalc import verify
from tentcalc.cli import RunConfig, main

SMALL_SUITE = {"sizes": [8, 16], "bank_size": 6}


@pytest.fixture
def runner():
    return CliRunner()


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


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

    def test_loads_no_scipy(self):
        # scipy is imported only for subordination quadrature, so neither
        # importing the CLI nor an exponent query loads it
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
            data = json.load(open("exp.json"))
            assert data["header"]["version"]
            assert len(data["header"]["config_hash"]) == 12
            assert data["r_w"] == "3/2"


def test_sf_and_verify_load_no_scipy(tmp_path):
    # assembly diagonalises with numpy's eigh, so a field and a verify run
    # without subordination load no scipy either
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


class TestSf:
    def test_constant_gives_zero_field(self, runner):
        with runner.isolated_filesystem():
            _write_json("cfg.json", {"dim": 1, "n": 16, "weight_alpha": 0.5})
            result = runner.invoke(main, ["sf", "--kind", "SH", "--m", "1",
                                          "--f", "constant", "--config", "cfg.json"])
            assert result.exit_code == 0
            summary = json.load(open("sf_summary.json"))
            assert summary["norms"][0]["norm"] <= 1e-10
            lines = open("sf_field.csv").read().splitlines()
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
            norm = json.load(open("sf_summary.json"))["norms"][0]["norm"]
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

    def test_density_options(self, runner):
        with runner.isolated_filesystem():
            _write_json("cfg.json", {"dim": 1, "n": 16, "weight_alpha": 0.5})
            result = runner.invoke(main, [
                "sf", "--kind", "SH", "--f", "random:3", "--config", "cfg.json",
                "--p", "2", "--p", "4", "--v", "one", "--v", "w:-1",
            ])
            assert result.exit_code == 0
            norms = json.load(open("sf_summary.json"))["norms"]
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
            report = json.load(open("verify_report.json"))
            assert report["header"]["seed"] == 7
            assert report["reports"][0]["suite"] == "heat_control"
            lines = open("verify_report.csv").read().splitlines()
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
                    open("verify_report.json", "rb").read(),
                    open("verify_report.csv", "rb").read(),
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

        verify._assemble_cached.cache_clear()
        monkeypatch.setattr(verify, "assemble", no_assembly)
        with runner.isolated_filesystem():
            _write_json("cfg.json", config)
            result = runner.invoke(main, ["verify", "--config", "cfg.json"])
            assert result.exit_code == 1, result.output
            assert result.output.startswith("error: ")
            assert field in result.output
            assert not os.path.exists("verify_report.json")

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


@pytest.mark.parametrize("command", [
    ["sf", "--kind", "SH"],
    ["verify"],
], ids=["sf", "verify"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_config_reader_property(command, data):
    # any JSON object over the schema keys is rejected when read, with a
    # field named, or reaches assembly; never exit 3, never a traceback
    config_cls = RunConfig if command[0] == "sf" else verify.SuiteConfig
    keys = sorted(config_cls.__dataclass_fields__)
    config = data.draw(st.dictionaries(st.sampled_from(keys), VALUES, max_size=5))
    runner = CliRunner()
    verify._assemble_cached.cache_clear()
    with mock.patch.object(verify, "assemble", _reach_assembly), \
            runner.isolated_filesystem():
        _write_json("cfg.json", config)
        result = runner.invoke(main, [*command, "--config", "cfg.json"])
    if isinstance(result.exception, Assembled):
        return
    assert isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code == 1, result.output
    assert re.match(rf"error: ({'|'.join(keys)})\b", result.output), result.output
