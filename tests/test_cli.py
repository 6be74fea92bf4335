import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import rankone2d
from rankone2d.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


def run_fresh(*args):
    """The CLI in a fresh process, so stderr is what a user sees: Python
    shows a warning once per location and process, and pytest captures
    them."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(rankone2d.__file__)))
    return subprocess.run([sys.executable, "-m", "rankone2d.cli", *args],
                          env=env, capture_output=True, text=True)


# Hencky isochoric part with a stiff volumetric part; not rank-one convex
STIFF_HENCKY_FILE = "h = 0.35*log(t)^2\nf = 2.6*exp(1.4*log(z)^2)\n"


class TestCheck:
    def test_elliptic_catalog_energy_exits_zero(self, runner):
        res = invoke(runner, "check", "--catalog", "example1")
        assert res.exit_code == 0
        assert "overall: RankOneConvex" in res.output
        assert "h0: -0.10167" in res.output

    def test_hencky_exits_one(self, runner):
        res = invoke(runner, "check", "--catalog", "hencky",
                     "--mu", "1", "--kappa", "1")
        assert res.exit_code == 1
        assert "NotRankOneConvex" in res.output

    def test_json_report_schema(self, runner):
        res = invoke(runner, "check", "--catalog", "example1",
                     "--report", "json")
        payload = json.loads(res.output)
        assert payload["schema_version"] == 2
        assert payload["overall"] == "RankOneConvex"
        assert set(payload["routes"]) == {"main", "voliso", "ks"}
        assert payload["routes_agree"] is True
        assert payload["f0"]["value"] == pytest.approx(0.11547005, abs=1e-6)

    def test_stiff_hencky_routes_agree(self, runner, tmp_path):
        p = tmp_path / "stiff.energy"
        p.write_text(STIFF_HENCKY_FILE)
        res = invoke(runner, "check", "--energy-file", str(p), "--report", "json")
        payload = json.loads(res.output)
        assert res.exit_code == 1
        assert payload["routes_agree"] is True
        assert {r["overall"] for r in payload["routes"].values()} == {
            "NotRankOneConvex"}

    def test_ks_samples_the_check_grids(self, runner):
        res = invoke(runner, "check", "--catalog", "example1", "--report", "json",
                     "--t-min", "0.1", "--t-max", "10", "--t-points", "801",
                     "--z-min", "0.01", "--z-max", "100", "--z-points", "61")
        ks = json.loads(res.output)["routes"]["ks"]["conditions"]
        samples = {c["id"]: c["samples"] for c in ks}
        # a stride of 4 keeps 201 of the 801 t, and all 61 z are kept
        assert samples["KS_i"] == 201 * 61
        assert samples["KS_iii"] == 61
        ts, zs = np.logspace(-1, 1, 801), np.logspace(-2, 2, 61)
        for c in ks:
            x, y = c["witness"]
            assert np.min(np.abs(ts / (x / y) - 1.0)) < 1e-12, c
            assert np.min(np.abs(zs / (x * y) - 1.0)) < 1e-12, c

    def test_json_is_deterministic(self, runner):
        outs = [invoke(runner, "check", "--catalog", "example2",
                       "--report", "json").output for _ in range(2)]
        assert outs[0] == outs[1]

    def test_unknown_catalog_exits_three(self, runner):
        res = invoke(runner, "check", "--catalog", "made_up")
        assert res.exit_code == 3

    def test_both_sources_rejected(self, runner, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("h = 0\nf = z^2\n")
        res = invoke(runner, "check", "--catalog", "example1",
                     "--energy-file", str(p))
        assert res.exit_code == 3

    def test_no_source_rejected(self, runner):
        res = invoke(runner, "check")
        assert res.exit_code == 3

    def test_bad_tolerance_rejected(self, runner):
        for command in ("check", "oracle", "stress", "scan"):
            for tol in ("-1", "nan", "inf", "-inf"):
                res = invoke(runner, command, "--catalog", "example1", "--tol", tol)
                assert res.exit_code == 3, (command, tol)
                assert "error: --tol must be positive" in res.output

    def test_nan_infimum_reports_error_without_runtime_warning(self):
        res = run_fresh("check", "--catalog", "exp_hencky", "--k", "12")
        assert res.returncode == 3
        assert "error: weighted second derivative is NaN" in res.stderr
        assert "RuntimeWarning" not in res.stderr


class TestExtremeInputs:
    """Grids at the ends of the float range and overflowing energies give
    their exit code and at most one error line, never a RuntimeWarning."""

    @pytest.mark.parametrize("args, code, message", [
        (("check", "--catalog", "example1", "--t-max", "inf"), 3,
         "error: bad grid [0.0001, inf] x 4001"),
        (("check", "--catalog", "example1", "--z-max", "inf"), 3,
         "error: bad grid [0.0001, inf] x 1001"),
        (("check", "--catalog", "hadamard_k", "--t-max", "1e300"), 3,
         "error: Main3 undefined at"),
        (("check", "--catalog", "example1", "--t-min", "1e-300"), 3,
         "error: Main3 undefined at [1e-300]"),
        (("scan", "--catalog", "example1", "--lambda-min", "1e-200",
          "--lambda-max", "1e200"), 2, ""),
        (("classify", "--catalog", "exp_hencky", "--k", "40"), 3,
         "overflowed at t = 0.001 in the symmetry check"),
        (("stress", "--catalog", "example1", "--at", "1e200", "1e-200"), 3,
         "error: singular values (1e+200, 1e-200) have a ratio or product"),
    ], ids=["t-max-inf", "z-max-inf", "t-max-1e300", "t-min-1e-300",
            "scan-1e200", "exp-hencky-k40", "stress-1e200"])
    def test_exit_code_without_runtime_warning(self, args, code, message):
        res = run_fresh(*args)
        assert res.returncode == code, res.stderr
        assert message in res.stderr
        assert len(res.stderr.splitlines()) <= 1
        assert "RuntimeWarning" not in res.stderr


class TestSinglePointJets:
    """A jet that is undefined or overflows at one evaluation point is an
    input error (exit 3, one line), not a Python exception."""

    @pytest.mark.parametrize("command", ["classify", "stress"])
    def test_removable_singularity_at_one(self, tmp_path, command):
        path = tmp_path / "log_ratio.txt"
        path.write_text("h = (t + 1/t)/2\nf = log(z)/(z - 1)\n")
        res = run_fresh(command, "--energy-file", str(path))
        assert res.returncode == 3, res.stderr
        assert res.stderr == "error: 'log(z)/(z - 1)' undefined at 1.0\n"

    def test_stretch_ratio_overflows(self):
        res = run_fresh("stress", "--catalog", "example2", "--at", "1e100", "1e-100")
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("error: '(6/5)*(t - 1/t)^2' ")
        assert len(res.stderr.splitlines()) == 1
        assert "Traceback" not in res.stderr


class TestReportFrame:
    """Every subcommand's report starts with the energy: JSON carries
    schema_version and energy, text opens with an energy line."""

    @pytest.mark.parametrize("args", [
        ("check",), ("classify",), ("stress", "--at", "2", "0.5"),
        ("oracle", "--grid", "2", "--samples", "0"), ("scan", "--grid", "4"),
    ], ids=lambda args: args[0])
    def test_header(self, runner, args):
        res = invoke(runner, *args, "--catalog", "hencky", "--mu", "2",
                     "--report", "json")
        payload = json.loads(res.output)
        assert payload["schema_version"] == 2
        assert payload["energy"] == "hencky(mu=2)"
        text = invoke(runner, *args, "--catalog", "hencky", "--mu", "2")
        assert text.exit_code == res.exit_code
        assert text.output.startswith("energy: hencky(mu=2)\n")


class TestEnergyFile:
    def test_params_substituted(self, runner, tmp_path):
        p = tmp_path / "custom.txt"
        p.write_text(
            "name = my hadamard\n"
            "h = mu*((t + 1/t)/2 - 1)\n"
            "f = (z - 1)^2\n"
            "mu = 0.5\n"
        )
        res = invoke(runner, "check", "--energy-file", str(p))
        assert res.exit_code == 0
        assert "my hadamard" in res.output

    _EXP_HENCKY_FILE = "h = exp(k*log(t)^2)\nf = (z - 1)^2\nk = 0.1\n"

    def test_bound_parameter_decides_verdict(self, runner, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text(self._EXP_HENCKY_FILE)
        res = invoke(runner, "check", "--energy-file", str(p))
        assert res.exit_code == 1
        assert "overall: NotRankOneConvex" in res.output

    @pytest.mark.parametrize("key", ["t", "z", "e", "pi", "exp", "my k"])
    def test_reserved_parameter_name_is_input_error(self, runner, tmp_path, key):
        p = tmp_path / "e.txt"
        p.write_text(self._EXP_HENCKY_FILE + f"{key} = 3\n")
        res = invoke(runner, "check", "--energy-file", str(p))
        assert res.exit_code == 3
        assert repr(key) in res.output

    def test_comments_and_blank_lines_ignored(self, runner, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# a comment\n\nh = 0\nf = z^2\n")
        assert invoke(runner, "classify", "--energy-file", str(p)).exit_code in (0, 2)

    def test_missing_field_is_input_error(self, runner, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("h = 0\n")
        assert invoke(runner, "check", "--energy-file", str(p)).exit_code == 3

    def test_missing_energy_file_is_input_error(self, runner, tmp_path):
        p = tmp_path / "absent.energy"
        res = invoke(runner, "check", "--energy-file", str(p))
        assert res.exit_code == 3
        assert str(p) in res.output

    def test_directory_as_energy_file_is_input_error(self, runner, tmp_path):
        res = invoke(runner, "check", "--energy-file", str(tmp_path))
        assert res.exit_code == 3
        assert str(tmp_path) in res.output

    def test_syntax_error_is_input_error(self, runner, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("h = t +\nf = z^2\n")
        assert invoke(runner, "check", "--energy-file", str(p)).exit_code == 3

    def test_asymmetric_h_is_input_error(self, runner, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("h = t^2\nf = z^2\n")
        assert invoke(runner, "check", "--energy-file", str(p)).exit_code == 3

    @pytest.mark.parametrize("text, lineno, key", [
        ("h = mu*((t + 1/t)/2 - 1)\nf = (z - 1)^2\nmu = 0.5\nmu = -3\n", 4, "mu"),
        ("h = 0\nf = z^2\nh = (t + 1/t)/2\n", 3, "h"),
    ], ids=["parameter", "h"])
    def test_duplicate_key_is_input_error(self, runner, tmp_path, text, lineno, key):
        p = tmp_path / "dup.txt"
        p.write_text(text)
        res = invoke(runner, "classify", "--energy-file", str(p))
        assert res.exit_code == 3
        assert f"error: {p}:{lineno}: duplicate key {key!r}" in res.output

    def test_param_flags_rejected_with_energy_file(self, runner, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("h = 0\nf = z^2\n")
        res = invoke(runner, "check", "--energy-file", str(p), "--mu", "2")
        assert res.exit_code == 3


class TestClassify:
    def test_hadamard_structure(self, runner):
        res = invoke(runner, "classify", "--catalog", "hadamard_k",
                     "--mu", "2", "--kappa", "1", "--report", "json")
        payload = json.loads(res.output)
        assert payload["kind"] == "hadamard_k"
        assert payload["mu"] == pytest.approx(2.0)
        assert res.exit_code == 0

    def test_general_structure_is_inconclusive_exit(self, runner):
        res = invoke(runner, "classify", "--catalog", "example2")
        assert res.exit_code == 2


class TestOracle:
    def test_no_violation(self, runner):
        res = invoke(runner, "oracle", "--catalog", "example1",
                     "--grid", "10", "--samples", "100")
        assert res.exit_code == 0
        assert "NoViolationFound" in res.output

    def test_violation_prints_witness(self, runner):
        res = invoke(runner, "oracle", "--catalog", "exp_hencky_iso",
                     "--grid", "10", "--samples", "100")
        assert res.exit_code == 1
        assert "witness F" in res.output

    @pytest.mark.parametrize("flag, value", [("--grid", "0"),
                                             ("--samples", "-5")])
    def test_bad_size_rejected(self, runner, flag, value):
        res = invoke(runner, "oracle", "--catalog", "example1", flag, value)
        assert res.exit_code == 3
        assert f"{flag} must be at least" in res.output

    @pytest.mark.parametrize("samples", ["5", "0"])
    @pytest.mark.parametrize("seed", ["-1", "4294967296"])
    def test_seed_out_of_range_rejected(self, runner, seed, samples):
        res = invoke(runner, "oracle", "--catalog", "example1", "--seed", seed,
                     "--samples", samples)
        assert res.exit_code == 3
        assert "error: --seed must be in [0, 4294967295]" in res.output

    @pytest.mark.parametrize("seed", ["0", "4294967295"])
    def test_seed_range_ends_accepted(self, runner, seed):
        res = invoke(runner, "oracle", "--catalog", "example1", "--grid", "4",
                     "--samples", "5", "--seed", seed)
        assert res.exit_code == 0

    def test_stiff_volumetric_part_exits_one(self, runner, tmp_path):
        p = tmp_path / "stiff.energy"
        p.write_text(STIFF_HENCKY_FILE)
        res = invoke(runner, "oracle", "--energy-file", str(p), "--report", "json")
        assert res.exit_code == 1
        assert json.loads(res.output)["min_value"] < -1e-8

    def test_seed_determinism(self, runner):
        args = ("oracle", "--catalog", "exp_hencky_iso", "--grid", "8",
                "--samples", "50", "--seed", "9", "--report", "json")
        assert invoke(runner, *args).output == invoke(runner, *args).output


class TestStress:
    def test_example2_moduli(self, runner):
        res = invoke(runner, "stress", "--catalog", "example2",
                     "--at", "1", "1", "--report", "json")
        payload = json.loads(res.output)
        assert payload["moduli"]["mu"] == pytest.approx(9.6)
        assert payload["moduli"]["kappa"] == pytest.approx(-8.0)
        assert payload["verdicts"]["invertibility"] == "Degenerate"
        assert res.exit_code == 1

    def test_json_report_with_log_volumetric_part(self, runner):
        res = invoke(runner, "stress", "--catalog", "hencky",
                     "--at", "2.0", "0.5", "--report", "json")
        payload = json.loads(res.output)
        assert payload["moduli"]["stress_free"] is True
        assert payload["verdicts"]["invertibility"] == "Degenerate"
        assert res.exit_code == 1

    def test_invertible_energy_exits_zero(self, runner):
        res = invoke(runner, "stress", "--catalog", "hadamard_k",
                     "--mu", "1", "--kappa", "1")
        assert res.exit_code == 0
        assert "LocallyInvertible" in res.output


class TestScan:
    def test_writes_outputs(self, runner, tmp_path):
        csv = tmp_path / "map.csv"
        svg = tmp_path / "map.svg"
        res = invoke(runner, "scan", "--catalog", "example1", "--grid", "9",
                     "--lambda-min", "0.1", "--lambda-max", "10",
                     "--out-csv", str(csv), "--out-svg", str(svg))
        assert res.exit_code == 0
        assert csv.read_text().startswith("lambda1,lambda2,verdict,min_margin")
        assert svg.read_text().startswith("<svg")

    def test_nonelliptic_exits_one(self, runner):
        res = invoke(runner, "scan", "--catalog", "exp_hencky_iso",
                     "--grid", "15", "--lambda-min", "0.01",
                     "--lambda-max", "100")
        assert res.exit_code == 1

    def test_csv_bytes_deterministic(self, runner, tmp_path):
        texts = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            invoke(runner, "scan", "--catalog", "exp_hencky_iso", "--grid",
                   "9", "--out-csv", str(out))
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("flag", ["--grid", "--angles"])
    def test_bad_size_rejected(self, runner, flag):
        res = invoke(runner, "scan", "--catalog", "example1", flag, "0")
        assert res.exit_code == 3
        assert f"{flag} must be at least" in res.output

    @pytest.mark.parametrize("spacing, lo, hi", [
        ("linear", "-1", "2"), ("log", "-1", "2"), ("log", "0", "2"),
        ("log", "5", "1"), ("linear", "5", "1")])
    def test_bad_stretch_range_is_input_error(self, runner, spacing, lo, hi):
        res = invoke(runner, "scan", "--catalog", "hadamard_k", "--grid", "4",
                     "--spacing", spacing, "--lambda-min", lo,
                     "--lambda-max", hi)
        assert res.exit_code == 3
        assert "0 < lambda_min < lambda_max" in res.output

    def test_worst_skips_nan_cells(self, runner, tmp_path):
        p = tmp_path / "log_vol.energy"
        p.write_text("h = (t + 1/t)/2 - 1\nf = -log(z - 1)\n")
        res = invoke(runner, "scan", "--energy-file", str(p), "--grid", "16",
                     "--report", "json")
        worst = json.loads(res.output)["worst"]
        # the smallest defined margin is condition A there,
        # t^2 h''(t) + z^2 f''(z) = 1/t + (z/(z - 1))^2
        l1, l2 = worst["lambda1"], worst["lambda2"]
        t, z = max(l1, l2) / min(l1, l2), l1 * l2
        assert worst["margin"] == pytest.approx(1 / t + (z / (z - 1))**2,
                                                rel=1e-9)
        text = invoke(runner, "scan", "--energy-file", str(p), "--grid", "16")
        assert text.exit_code == 2  # two Boundary cells with NaN margins
        assert "worst margin 0.000948983177 at" in text.output

    @pytest.mark.parametrize("flag", ["--out-csv", "--out-svg"])
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_output_is_input_error(self, runner, tmp_path, flag,
                                              where):
        target = (tmp_path / "no" / "map.out" if where == "missing_dir"
                  else tmp_path)
        res = invoke(runner, "scan", "--catalog", "example1", "--grid", "4",
                     flag, str(target))
        assert res.exit_code == 3
        assert f"{target}: cannot write output file" in res.output
