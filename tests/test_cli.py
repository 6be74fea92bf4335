import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import rankone2d
from rankone2d.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


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
        assert payload["schema_version"] == 1
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
        res = invoke(runner, "check", "--catalog", "example1", "--tol", "-1")
        assert res.exit_code == 3

    def test_nan_infimum_reports_error_without_runtime_warning(self):
        # a fresh process, so stderr is what a user sees: Python shows a
        # warning once per location and process, and pytest captures them
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(rankone2d.__file__)))
        res = subprocess.run(
            [sys.executable, "-m", "rankone2d.cli", "check",
             "--catalog", "exp_hencky", "--k", "12"],
            env=env, capture_output=True, text=True)
        assert res.returncode == 3
        assert "error: weighted second derivative is NaN" in res.stderr
        assert "RuntimeWarning" not in res.stderr


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
