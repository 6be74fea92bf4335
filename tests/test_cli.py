import contextlib
import errno
import importlib
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import rankone2d
from rankone2d import cli
from rankone2d.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


def run_main(*args):
    """``main`` in-process, as (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        main(list(args))
    return exc.value.code, out.getvalue(), err.getvalue()


def run_fresh(*args, stdout=subprocess.PIPE, python=("-m", "rankone2d.cli"),
              env=()):
    """The CLI in a fresh process, so stderr is what a user sees: Python
    shows a warning once per location and process, and pytest captures
    them.  ``python`` is what the interpreter runs, with ``args`` after it,
    and ``env`` holds variables set on top of this process's environment."""
    env = dict(os.environ, **dict(env),
               PYTHONPATH=os.path.dirname(os.path.dirname(rankone2d.__file__)))
    return subprocess.run([sys.executable, *python, *args], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True)


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

    def test_vacuous_condition_reads_holds(self, runner, tmp_path):
        # f = log z fails KS_i at every t > 1, so KS_iv has no sample left:
        # it holds with a margin of +inf, and check exits 1 on KS_i
        p = tmp_path / "had_log.energy"
        p.write_text("h = (t + 1/t)/2\nf = log(z)\n")
        res = invoke(runner, "check", "--energy-file", str(p))
        assert res.exit_code == 1, res.output
        assert re.search(r"KS_iv +Holds +worst_margin=inf witness=None", res.output)
        res = invoke(runner, "check", "--energy-file", str(p), "--report", "json")
        ks = json.loads(res.output)["routes"]["ks"]["conditions"]
        assert ks[3] == {"id": "KS_iv", "verdict": "Holds", "worst_margin": None,
                         "witness": None, "samples": 0}

    def test_ks_samples_the_check_grids(self, runner):
        res = invoke(runner, "check", "--catalog", "example1", "--report", "json",
                     "--t-min", "0.1", "--t-max", "10", "--t-points", "801",
                     "--z-min", "0.01", "--z-max", "100", "--z-points", "61")
        ks = json.loads(res.output)["routes"]["ks"]["conditions"]
        samples = {c["id"]: c["samples"] for c in ks}
        # a stride of 4 keeps 201 of the 801 t, which fold onto t = 1 and
        # the 100 above it, and all 61 z are kept
        assert samples["KS_i"] == 101 * 61
        assert samples["KS_iii"] == 61
        ts, zs = np.logspace(-1, 1, 801), np.logspace(-2, 2, 61)
        for c in ks:
            x, y = c["witness"]
            assert np.min(np.abs(ts / (x / y) - 1.0)) < 1e-12, c
            assert np.min(np.abs(zs / (x * y) - 1.0)) < 1e-12, c

    @pytest.mark.parametrize("grid", [(), ("--t-points", "1001")])
    def test_nec_a_states_the_convexity_samples(self, runner, grid):
        # the convexity verdicts of h and of f, each on the infima's dense
        # grid of 8192 points, whatever the t grid
        res = invoke(runner, "check", "--catalog", "example1", "--report", "json",
                     *grid)
        nec_a = json.loads(res.output)["necessary"][0]
        assert nec_a["id"] == "Nec_a"
        assert nec_a["samples"] == 16384

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
        assert re.fullmatch(r"error: '\(mu/k\)\*exp\(\(k/2\)\*log\(t\)\^2\)' "
                            r"undefined at 52962\.1\d*\n", res.stderr), res.stderr
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
        # t below 1 folds to 1/t: the first undefined row is the smallest
        # t >= 1 where h' and h'' overflow
        (("check", "--catalog", "example1", "--t-min", "1e-300"), 3,
         "error: Main3 undefined at [4.570881896149014e+36]"),
        (("scan", "--catalog", "example1", "--lambda-min", "1e-200",
          "--lambda-max", "1e200"), 2, ""),
        (("classify", "--catalog", "exp_hencky", "--k", "40"), 3,
         "overflowed at t = 0.001 in the symmetry check"),
        (("stress", "--catalog", "example1", "--at", "1e200", "1e-200"), 3,
         "error: singular values (1e+200, 1e-200) have a ratio or product"),
        # both t points fold onto the one row t = 1
        (("check", "--catalog", "example1", "--t-min", "0.9999999999999",
          "--t-max", "1.0000000000001", "--t-points", "2"), 3,
         "error: no admissible samples for Main3"),
    ], ids=["t-max-inf", "z-max-inf", "t-max-1e300", "t-min-1e-300",
            "scan-1e200", "exp-hencky-k40", "stress-1e200", "t-grid-one-row"])
    def test_exit_code_without_runtime_warning(self, args, code, message):
        res = run_fresh(*args)
        assert res.returncode == code, res.stderr
        assert message in res.stderr
        assert len(res.stderr.splitlines()) <= 1
        assert "RuntimeWarning" not in res.stderr


class TestOutOfMemory:
    """A grid too large to allocate is an input error: one line, exit 3.
    The checks are made to raise, so no test allocates such a grid."""

    @pytest.mark.parametrize("module, function, args", [
        ("criteria", "main_check", ("check", "--z-points", "100000000000")),
        ("scan", "scan_domain", ("scan", "--grid", "1000000")),
        ("oracle", "brute_force_check",
         ("oracle", "--grid", "1000000", "--samples", "0")),
    ], ids=["check", "scan", "oracle"])
    def test_memory_error_exits_three(self, runner, monkeypatch, module,
                                      function, args):
        def oversized(*_, **__):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(importlib.import_module(f"rankone2d.{module}"),
                            function, oversized)
        res = invoke(runner, *args, "--catalog", "example1")
        assert res.exit_code == 3
        assert res.output == ("error: out of memory: "
                              "Unable to allocate 745. GiB\n")


class TestSinglePointJets:
    """A jet that is undefined or overflows at one evaluation point is an
    input error (exit 3, one line), not a Python exception."""

    # classify reads the structure from the tree and samples f only on the
    # convexity grid, which misses z = 1; log(z)/(z - 1) is convex
    @pytest.mark.parametrize("command, code, stdout, stderr", [
        ("classify", 0, "kind: hadamard_k\nmu: 1\ndeciding part: Convex\n"
         "overall: RankOneConvex\n", ""),
        ("stress", 3, "", "error: 'log(z)/(z - 1)' undefined at 1.0\n"),
    ], ids=["classify", "stress"])
    def test_removable_singularity_at_one(self, tmp_path, command, code, stdout,
                                          stderr):
        path = tmp_path / "log_ratio.txt"
        path.write_text("h = (t + 1/t)/2\nf = log(z)/(z - 1)\n")
        res = run_fresh(command, "--energy-file", str(path))
        assert res.returncode == code, res.stderr
        assert res.stdout.endswith(stdout)
        assert res.stderr == stderr

    def test_stretch_ratio_overflows(self):
        res = run_fresh("stress", "--catalog", "example2", "--at", "1e100", "1e-100")
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("error: '(6/5)*(t - 1/t)^2' ")
        assert len(res.stderr.splitlines()) == 1
        assert "Traceback" not in res.stderr

    def test_constant_factor_keeps_the_overflow(self, runner):
        res = invoke(runner, "stress", "--catalog", "example2",
                     "--at", "1e100", "1e-100")
        assert res.exit_code == 3
        assert res.output == "error: '(6/5)*(t - 1/t)^2' overflowed at 1e+200\n"


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

    def test_float_that_is_not_finite_is_null(self):
        # 4 f''(z) / lambda2^2 overflows: the JSON is null, RFC 8259 has no
        # Infinity, and the text report prints inf
        args = ("stress", "--catalog", "hadamard_k", "--at", "1e-160", "1e-160")
        code, out, err = run_main(*args, "--report", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in JSON"))
        assert payload["det_D_sigma"] is None
        assert "det D sigma = inf\n" in run_main(*args)[1]


class TestEnergyFile:
    # exp(-exp(1000)) is the number 0, though exp(1000) overflows
    ZERO_FACTOR_FILE = "h = (t + 1/t)/2\nf = exp(-exp(1000))*z + (z-1)^2\n"

    @pytest.mark.parametrize("command", ["check", "classify", "stress", "oracle"])
    def test_constant_with_an_infinite_part_folds(self, runner, tmp_path, command):
        p = tmp_path / "zero_factor.txt"
        p.write_text(self.ZERO_FACTOR_FILE)
        res = invoke(runner, command, "--energy-file", str(p), "--report", "json")
        assert res.exit_code == 0, res.output
        if command in ("check", "classify"):
            assert json.loads(res.output)["overall"] == "RankOneConvex"

    def test_constant_with_an_infinite_part_scans(self, runner, tmp_path):
        p = tmp_path / "zero_factor.txt"
        p.write_text(self.ZERO_FACTOR_FILE)
        res = invoke(runner, "scan", "--energy-file", str(p), "--grid", "8",
                     "--report", "json")
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["counts"] == {
            "Boundary": 0, "Elliptic": 64, "NonElliptic": 0}

    # f is undefined for z <= 1/2, where log's derivative formulas stay finite
    UNDEFINED_LOG_FILE = "h = (t + 1/t)/2\nf = (z - 1)^2 - log(z - 1/2)\n"

    @pytest.mark.parametrize("command", ["check", "classify", "oracle"])
    def test_log_outside_its_domain_is_an_error(self, tmp_path, command):
        p = tmp_path / "undefined_log.txt"
        p.write_text(self.UNDEFINED_LOG_FILE)
        res = run_fresh(command, "--energy-file", str(p))
        assert res.returncode == 3, res.stdout
        assert res.stdout == ""
        assert re.fullmatch(r"error: '\(z - 1\)\^2 - log\(z - 1/2\)' undefined "
                            r"at \S+\n", res.stderr), res.stderr

    def test_log_outside_its_domain_scans_as_boundary(self, runner, tmp_path):
        p = tmp_path / "undefined_log.txt"
        p.write_text(self.UNDEFINED_LOG_FILE)
        out = tmp_path / "map.csv"
        res = invoke(runner, "scan", "--energy-file", str(p), "--grid", "16",
                     "--out-csv", str(out))
        assert res.exit_code == 2, res.output
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 256
        for row in rows:
            l1, l2, verdict, _ = row.split(",")
            undefined = float(l1) * float(l2) < 0.5
            assert verdict == ("Boundary" if undefined else "Elliptic"), row

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

    def test_end_of_input_is_named(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("h = (t+1/t)/2 +\nf = (z-1)^2\n")
        res = run_fresh("check", "--energy-file", str(p))
        assert res.returncode == 3
        assert res.stderr == "error: unexpected end of input (at offset 11)\n"

    # a number literal that is not finite is a syntax error; a constant
    # that overflows is an error where it is first evaluated
    @pytest.mark.parametrize("f, message", [
        ("1e999*(z - 1)^2", "error: number 1e999 is not finite (at offset 0)\n"),
        ("exp(1000)*(z - 1)^2", None),
        ("(z - 1)^2 + 0*exp(1000)", None),
        ("(z-1)^2/exp(1000)", None),
    ])
    @pytest.mark.parametrize("command", ["classify", "check"])
    def test_constant_that_is_not_finite_is_input_error(self, runner, tmp_path,
                                                        command, f, message):
        p = tmp_path / "inf.energy"
        p.write_text(f"h = (t + 1/t)/2\nf = {f}\n")
        res = invoke(runner, command, "--energy-file", str(p))
        assert res.exit_code == 3
        assert res.output.startswith("error: ") and res.output.count("\n") == 1
        assert message is None or res.output == message

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

    @pytest.mark.parametrize("text, message", [
        ("h = (t + 1/t)/2\nf = (z - 1)^2\nmu 2\n",
         "{p}:3: expected key=value, got 'mu 2'"),
        ("h = mu*((t + 1/t)/2 - 1)\nf = (z - 1)^2\nmu = two\n",
         "{p}: parameter 'mu' is not numeric: 'two'"),
        ("h = (t + 1/t/2\nf = (z - 1)^2\n", "expected ')' (at offset 10)"),
    ], ids=["no_equals", "not_numeric", "unclosed_paren"])
    def test_malformed_file_is_input_error(self, runner, tmp_path, text, message):
        p = tmp_path / "bad.energy"
        p.write_text(text)
        res = invoke(runner, "check", "--energy-file", str(p))
        assert res.exit_code == 3
        assert res.output == f"error: {message.format(p=p)}\n"

    def test_file_that_is_not_utf8_is_input_error(self, runner, tmp_path):
        p = tmp_path / "latin1.energy"
        p.write_bytes(b"name = caf\xe9\nh = (t + 1/t)/2\nf = (z - 1)^2\n")
        res = invoke(runner, "classify", "--energy-file", str(p))
        assert res.exit_code == 3
        assert res.output == (f"error: {p}: cannot read energy file: "
                              "not UTF-8 text (invalid continuation byte)\n")

    def test_utf8_is_read_whatever_the_locale(self, tmp_path):
        p = tmp_path / "utf8.energy"
        p.write_bytes("name = caf\u00e9\nh = (t + 1/t)/2\nf = (z - 1)^2\n"
                      .encode("utf-8"))
        res = run_fresh("classify", "--energy-file", str(p), "--report", "json",
                        env={"LC_ALL": "C", "PYTHONUTF8": "0"})
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["energy"] == "caf\u00e9"

    @pytest.mark.parametrize("command", ["classify", "check"])
    def test_text_report_escapes_what_the_locale_cannot_encode(self, tmp_path,
                                                               command):
        p = tmp_path / "utf8.energy"
        p.write_bytes("name = caf\u00e9\nh = (t + 1/t)/2\nf = (z - 1)^2\n"
                      .encode("utf-8"))
        # an empty PYTHONIOENCODING counts as unset
        res = run_fresh(command, "--energy-file", str(p),
                        env={"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONIOENCODING": ""})
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout.splitlines()[0] == "energy: caf\\xe9"

    def test_byte_order_mark_is_skipped(self, runner, tmp_path):
        text = "name = e\nh = (t + 1/t)/2\nf = (z - 1)^2\n"
        plain, marked = tmp_path / "plain.energy", tmp_path / "bom.energy"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        want = invoke(runner, "classify", "--energy-file", str(plain))
        got = invoke(runner, "classify", "--energy-file", str(marked))
        assert (got.exit_code, got.output) == (want.exit_code, want.output)
        assert want.exit_code == 0

    def test_param_flags_rejected_with_energy_file(self, runner, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("h = 0\nf = z^2\n")
        res = invoke(runner, "check", "--energy-file", str(p), "--mu", "2")
        assert res.exit_code == 3


class TestParameterValues:
    """A catalog flag's or an energy file's parameter value is read as a
    number literal in h or f is, with an optional sign."""

    BAD = [("1e-400", "rounds to 0"), ("-2.5E-330", "rounds to 0"),
           ("1e999", "is not finite"), ("1_0", "is not numeric"),
           ("inf", "is not numeric"), ("nan", "is not numeric"),
           ("0x10", "is not numeric")]
    GOOD = ["2.", "-.5e1", "+1e-320", "-0.00e-999"]

    @pytest.mark.parametrize("value, reason", BAD)
    def test_bad_flag(self, value, reason):
        code, out, err = run_main("classify", "--catalog", "hadamard_k",
                                  "--mu", value)
        assert (code, out, err) == (
            3, "", f"error: argument --mu: value {value!r} {reason}\n")

    @pytest.mark.parametrize("value, reason", BAD)
    def test_bad_energy_file_value(self, tmp_path, value, reason):
        p = tmp_path / "mu.energy"
        p.write_text(f"h = mu*((t + 1/t)/2 - 1)\nf = (z - 1)^2\nmu = {value}\n")
        code, out, err = run_main("classify", "--energy-file", str(p))
        assert (code, out, err) == (
            3, "", f"error: {p}: parameter 'mu' {reason}: {value!r}\n")

    def test_non_ascii_digits_are_not_numeric(self, tmp_path):
        # ARABIC-INDIC THREE as a flag's value, ARABIC-INDIC ONE in f
        assert run_main("classify", "--catalog", "hadamard_k", "--mu", "٣") == (
            3, "", "error: argument --mu: value '٣' is not numeric\n")
        p = tmp_path / "digit.energy"
        p.write_text("h = (t + 1/t)/2\nf = ١e-400*z + (z - 1)^2\n",
                     encoding="utf-8")
        code, out, err = run_main("classify", "--energy-file", str(p))
        assert (code, out) == (3, "")
        assert "unexpected character '١'" in err

    @pytest.mark.parametrize("value", GOOD)
    def test_flag(self, value):
        out = run_main("classify", "--catalog", "hadamard_k", "--mu", value)[1]
        assert out.startswith(f"energy: hadamard_k(mu={float(value):g})\n")

    @pytest.mark.parametrize("value", GOOD)
    def test_energy_file_value(self, tmp_path, value):
        h, f = "mu*((t + 1/t)/2 - 1)", "(z - 1)^2"
        p = tmp_path / "mu.energy"
        p.write_text(f"h = {h}\nf = {f}\nmu = {value}\n")
        assert cli._load_energy_file(str(p)) == rankone2d.make_split(
            h, f, name=str(p), params={"mu": float(value)})


class TestClassify:
    def test_hadamard_structure(self, runner):
        res = invoke(runner, "classify", "--catalog", "hadamard_k",
                     "--mu", "2", "--kappa", "1", "--report", "json")
        payload = json.loads(res.output)
        assert payload["kind"] == "hadamard_k"
        assert payload["mu"] == pytest.approx(2.0)
        assert res.exit_code == 0

    def test_hadamard_mu_is_read_exactly(self, runner):
        res = invoke(runner, "classify", "--catalog", "hadamard_k",
                     "--mu", "2.26", "--report", "json")
        assert '"mu": 2.26,' in res.output

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

    def test_flat_volumetric_part_is_not_certified(self, runner):
        # k_energy's f = 0: f'' neither certifies nor breaks invertibility
        res = invoke(runner, "stress", "--catalog", "k_energy", "--report", "json")
        assert res.exit_code == 2
        assert json.loads(res.output)["verdicts"]["invertibility"] == "NotCertified"

    def test_isochoric_factor_witness(self, runner, tmp_path):
        # t h'' + h' = -2/t, most negative at the grid's first t = 1e-3
        p = tmp_path / "neg_hencky.energy"
        p.write_text("h = -log(t)^2\nf = (z - 1)^2\n")
        res = invoke(runner, "stress", "--energy-file", str(p), "--report", "json")
        assert res.exit_code == 1
        verdicts = json.loads(res.output)["verdicts"]
        assert verdicts["invertibility"] == "Degenerate"
        assert verdicts["invertibility_witness"] == {
            "factor": "isochoric", "t": 0.001, "value": -2000.0}

    def test_undefined_sample_is_an_input_error(self, runner, tmp_path):
        # f is undefined below z = 1/2, so no verdict rests on its samples
        p = tmp_path / "undefined_dip.txt"
        p.write_text("h = (t + 1/t)/2\nf = (z - 1)^2 + (1/1000)*log(z - 1/2)\n")
        res = invoke(runner, "stress", "--energy-file", str(p), "--at", "2", "1")
        assert res.exit_code == 3, res.output
        assert res.output == ("error: '(z - 1)^2 + (1/1000)*log(z - 1/2)' "
                              "undefined at 0.001\n")


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
        # f is undefined for z <= 1; the smallest defined margin is
        # condition B' at the largest t with z > 1, 2t h'(t)/(t - 1) = 1 + 1/t
        l1, l2 = worst["lambda1"], worst["lambda2"]
        t, z = max(l1, l2) / min(l1, l2), l1 * l2
        assert z > 1.0
        assert worst["margin"] == pytest.approx(1 + 1 / t, rel=1e-9)
        text = invoke(runner, "scan", "--energy-file", str(p), "--grid", "16")
        assert text.exit_code == 2  # Boundary cells with NaN margins
        assert "worst margin 1.00002154 at" in text.output

    @pytest.mark.parametrize("flag", ["--out-csv", "--out-svg"])
    @pytest.mark.parametrize("where", [
        "missing_dir", "directory",
        # opens, but its every write fails
        pytest.param("full_device", marks=pytest.mark.skipif(
            not os.path.exists("/dev/full"), reason="needs /dev/full")),
    ])
    def test_unwritable_output_is_input_error(self, tmp_path, flag, where):
        target = {"missing_dir": tmp_path / "no" / "map.out",
                  "directory": tmp_path, "full_device": "/dev/full"}[where]
        code, out, err = run_main("scan", "--catalog", "example1", "--grid", "8",
                                  flag, str(target))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {target}: cannot write output file: ")
        assert err.count("\n") == 1
        if where == "full_device":
            assert err.endswith(f": {os.strerror(errno.ENOSPC)}\n")


class TestCommandLine:
    """A malformed command line is an input error like any other: exit 3 and
    one ``error:`` line naming what is wrong.  The assertions name the flag,
    not the parser's wording, which differs between Python versions."""

    @pytest.mark.parametrize("args, named", [
        (("check", "--catalog", "example1", "--tol", "abc"), "--tol"),
        (("check", "--catalog", "example1", "--bogus", "1"), "--bogus"),
        (("check", "--catalog", "example1", "--report", "xml"), "--report"),
        (("scan", "--catalog", "example1", "--spacing", "cubic"), "--spacing"),
        (("stress", "--catalog", "example1", "--at", "1"), "--at"),
        ((), ""),
        (("chec", "--catalog", "example1"), "chec"),
        # no option is abbreviated
        (("check", "--cat", "example1"), "--cat"),
        (("classify", "--catalog", "example1", "--rep", "json"), "--rep"),
    ], ids=["tol", "unknown", "report", "spacing", "at", "no_command",
            "command", "catalog_abbrev", "report_abbrev"])
    def test_malformed_exits_three(self, args, named):
        code, out, err = run_main(*args)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize("args, code, message", [
        (("classify", "--catalog", "hadamard_k", "--mu", "-1e-3"), 2,
         "energy: hadamard_k(mu=-0.001)\n"),
        (("stress", "--catalog", "hadamard_k", "--kappa", "-1.5"), 1,
         "energy: hadamard_k(kappa=-1.5)\n"),
        (("check", "--catalog", "example1", "--tol", "-nan"), 3,
         "error: --tol must be positive and finite\n"),
    ], ids=["mu", "kappa", "tol"])
    def test_negative_number_is_a_value(self, args, code, message):
        got, out, err = run_main(*args)
        assert got == code
        assert (out + err).startswith(message)

    def test_help_lists_the_subcommands(self):
        code, out, err = run_main("--help")
        assert code == 0 and err == ""
        for name in ("check", "classify", "oracle", "stress", "scan"):
            assert name in out


# commands with small grids, so each fresh process costs mostly start-up
EXIT_PATH_COMMANDS = {"check": (), "classify": (), "stress": (),
                      "oracle": ("--grid", "3", "--samples", "10"),
                      "scan": ("--grid", "8")}

# a command whose body is the format field, run through cli.run
COMMAND_SCRIPT = """
import sys
from rankone2d import cli

@cli._command("boom")
def boom(e):
    {}

cli.run()
"""

# the module's __main__ block with an exit handler that teardown would run
MAIN_BLOCK_SCRIPT = """
import atexit, runpy
atexit.register(print, "teardown ran")
runpy.run_module("rankone2d.cli", run_name="__main__")
"""


class TestExitPath:
    """A CLI process ends through ``cli.run``, which skips interpreter
    teardown: its output and exit code are what ``main`` gives in-process,
    and an unexpected exception still ends with a traceback."""

    def test_console_script_is_run(self):
        pyproject = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")
        with open(pyproject) as fh:
            target = re.search(r"^rankone2d = \"(.+)\"$", fh.read(), re.M).group(1)
        module, _, name = target.partition(":")
        assert getattr(importlib.import_module(module), name) is cli.run

    @pytest.mark.parametrize("catalog_id, codes", [
        ("example1", {0, 2}), ("hencky", {1}), ("exp_hencky", {0, 2})])
    @pytest.mark.parametrize("command", EXIT_PATH_COMMANDS)
    def test_matches_in_process_run(self, runner, command, catalog_id, codes):
        for report in ("json", "text"):
            args = (command, *EXIT_PATH_COMMANDS[command], "--catalog",
                    catalog_id, "--report", report)
            fresh = run_fresh(*args)
            in_process = invoke(runner, *args)
            assert fresh.returncode == in_process.exit_code, report
            assert fresh.returncode in codes, report
            assert fresh.stdout == in_process.stdout, report
            assert fresh.stderr == "", report

    def test_scan_files_match_in_process_files(self, runner, tmp_path):
        outputs = {}
        for label in ("fresh", "in_process"):
            paths = (tmp_path / f"{label}.csv", tmp_path / f"{label}.svg")
            args = ("scan", "--catalog", "exp_hencky_iso", "--grid", "16",
                    "--out-csv", str(paths[0]), "--out-svg", str(paths[1]))
            if label == "fresh":
                assert run_fresh(*args).returncode == 1
            else:
                assert invoke(runner, *args).exit_code == 1
            outputs[label] = [p.read_bytes() for p in paths]
        assert outputs["fresh"] == outputs["in_process"]

    def test_usage_error_exits_three(self):
        res = run_fresh("check", "--catalog", "example1", "--report", "xml")
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert "--report" in res.stderr

    def test_closed_stdout_exits_one_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            res = run_fresh("classify", "--catalog", "example1", "--report",
                            "json", stdout=write_end)
        finally:
            os.close(write_end)
        assert res.returncode == 1
        assert res.stderr == ""

    def test_main_block_skips_teardown(self):
        res = run_fresh("classify", "--catalog", "example1",
                        python=("-c", MAIN_BLOCK_SCRIPT))
        assert res.returncode == 2
        assert res.stdout.startswith("energy: example1")
        assert "teardown ran" not in res.stdout

    def test_unexpected_exception_prints_traceback(self):
        res = run_fresh("boom", "--catalog", "example1", python=(
            "-c", COMMAND_SCRIPT.format('raise RuntimeError("boom")')))
        assert res.returncode == 1
        assert "Traceback" in res.stderr
        assert "RuntimeError: boom" in res.stderr

    def test_exit_with_message_takes_normal_exit(self):
        res = run_fresh("boom", "--catalog", "example1", python=(
            "-c", COMMAND_SCRIPT.format('sys.exit("boom")')))
        assert res.returncode == 1
        assert res.stderr == "boom\n"
