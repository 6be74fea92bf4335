"""Command-line front end.

Subcommands: check, classify, oracle, stress, scan.  Exit codes: 0 for a
rank-one convex verdict (or plain success), 1 for a certified failure with
a printed witness, 2 for inconclusive/marginal outcomes, 3 for input
errors.

Energy-definition files are plain key/value text, read as UTF-8 whatever
the locale, with a leading byte order mark skipped::

    name = my energy
    h = mu * ((t + 1/t)/2 - 1)
    f = (z - 1)^2
    mu = 0.5

Keys other than ``name``, ``h`` and ``f`` are numeric parameters.  They
are bound at parse time: a parameter name in h or f reads as its number.
A value is read as a number literal in h or f is, with an optional sign, and
so is the value of a catalog parameter flag.  A key that is not an
identifier, that names the variable (``t`` in h, ``z`` in f), a function
(``exp``, ``log``, ...) or a constant (``e``, ``pi``), or whose value is
not such a literal, is not finite or is a nonzero literal that rounds to 0
is an input error, and so is a key given twice.  Keys that neither source
uses are ignored.

Every subcommand is declared with ``_command`` and takes the energy source
options (``--catalog``, ``--energy-file`` and one flag per catalog
parameter) and ``--report``.  ``main`` parses the command line, checks
``--tol`` where the command has one, resolves the energy and calls the body
with it and the command's own options.  The body returns ``(exit code,
payload, text lines)``; ``main`` prints the JSON payload with
``schema_version`` and ``energy`` added and every float that is not finite
as null, or the text lines after ``energy: <name>``.  A malformed command line, a ``RankOneError`` or a ``MemoryError``
(a grid too large to allocate) from any of these steps becomes one
``error:`` line on stderr and exit 3.  The command line is checked first,
then ``--tol``, the energy and the body's inputs, so with two bad inputs
the first of these is the one reported.

Each body imports the modules it runs, and option defaults come from
``energy``, so a process loads only what its subcommand uses.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING, Optional

from . import energy, expr
from .errors import RankOneError

if TYPE_CHECKING:
    from .scalar_inf import InfimumResult

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


# ---------------------------------------------------------------------------
# energy resolution


def _load_energy_file(path: str) -> energy.SplitEnergy:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise RankOneError(f"{path}: cannot read energy file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise RankOneError(
            f"{path}: cannot read energy file: not UTF-8 text ({exc.reason})") from None
    entries = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise RankOneError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in entries:
            raise RankOneError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    for required in ("h", "f"):
        if required not in entries:
            raise RankOneError(f"{path}: missing required key {required!r}")
    name = entries.pop("name", path)
    h_src = entries.pop("h")
    f_src = entries.pop("f")
    params = {}
    for key, value in entries.items():
        try:
            params[key] = expr._number(value)
        except ValueError as exc:
            raise RankOneError(f"{path}: parameter {key!r} {exc}: {value!r}") from None
    return energy.make_split(h_src, f_src, name=name, params=params)


def _resolve_energy(catalog: Optional[str], energy_file: Optional[str],
                    params: dict) -> energy.SplitEnergy:
    if (catalog is None) == (energy_file is None):
        raise RankOneError(
            "provide exactly one energy source: --catalog or --energy-file")
    if energy_file is not None:
        if any(v is not None for v in params.values()):
            raise RankOneError("parameter flags apply to --catalog energies only")
        return _load_energy_file(energy_file)
    kwargs = {k: v for k, v in params.items() if v is not None}
    return energy.catalog(catalog, **kwargs)


_PARAM_NAMES = tuple(dict.fromkeys(p for entry in energy.CATALOG.values()
                                   for p in entry.defaults))


def _parameter(text: str) -> float:
    """A catalog parameter flag's value, read as an energy file's."""
    try:
        return expr._number(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"value {text!r} {exc}") from None


def _option(*flags, **kwargs):
    """An option, given as ``argparse.ArgumentParser.add_argument`` takes it."""
    return flags, kwargs


_SHARED_OPTIONS = [
    _option("--catalog", dest="catalog_id", help="Catalog energy id."),
    _option("--energy-file", help="Energy definition file (key=value text)."),
    *(_option(f"--{name}", type=_parameter) for name in _PARAM_NAMES),
    _option("--report", dest="report_format", choices=["json", "text"],
            default="text", help="Report format."),
]

_tol_option = _option("--tol", type=float, default=energy.DEFAULT_TOL)


def _check_at_least(option: str, value: int, lowest: int) -> None:
    if value < lowest:
        raise RankOneError(f"{option} must be at least {lowest}")


# ---------------------------------------------------------------------------
# report helpers


def _write_output(path: str, emit, emap, **kwargs) -> None:
    """``emit(emap, fh)`` into the file ``path``; a failed open, write or
    close is an input error."""
    try:
        with open(path, "w", **kwargs) as fh:
            emit(emap, fh)
    except OSError as exc:
        raise RankOneError(
            f"{path}: cannot write output file: {exc.strerror}") from None


def _inf_dict(r: InfimumResult) -> dict:
    return {
        "value": r.value,
        "unbounded": r.unbounded,
        "attained_at": r.attained_at,
    }


def _json_value(value):
    """``value`` with every float in it that is not finite as None, which
    JSON writes as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


def _verdict_exit(overall: str) -> int:
    return {"RankOneConvex": EXIT_OK,
            "NotRankOneConvex": EXIT_FAIL}.get(overall, EXIT_INCONCLUSIVE)


def _condition_lines(reports) -> list:
    return [f"  {r.condition_id:<12} {r.verdict:<10} "
            f"worst_margin={r.worst_margin:.6g} witness={r.witness}" for r in reports]


# ---------------------------------------------------------------------------
# the command line


class _Parser(argparse.ArgumentParser):
    """A parser that rejects abbreviated options, reads a token such as
    ``-1e-3``, ``-inf`` or ``-nan`` as an option's value, and raises
    ``RankOneError`` on a malformed command line, so that it exits 3."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        # set after -h is added, so that no option looks like a negative number
        self._negative_number_matcher = re.compile(r"-[^-]")

    def error(self, message):
        raise RankOneError(message)


_COMMANDS = {}  # name -> (body, options)


def _command(name: str, *options):
    """Register ``body(e, **options) -> (exit code, payload, text lines)`` as
    a subcommand taking the shared options, then ``options`` in order."""

    def decorate(body):
        _COMMANDS[name] = body, [*_SHARED_OPTIONS, *options]
        return body

    return decorate


def main(args=None, prog_name: str = "rankone2d") -> None:
    """Run the subcommand that ``args`` (default ``sys.argv[1:]``) names and
    end in ``SystemExit`` with its exit code.  ``main.name`` and ``main.main``
    let a test runner call it as ``main.main(args=..., prog_name=main.name)``."""
    parser = _Parser(prog=prog_name, description="Rank-one convexity checks "
                     "for planar volumetric-isochoric energies.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (body, options) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=body.__doc__, description=body.__doc__)
        for flags, kwargs in options:
            sub.add_argument(*flags, **kwargs)
    try:
        kwargs = vars(parser.parse_args(args))
        body = _COMMANDS[kwargs.pop("command")][0]
        report_format = kwargs.pop("report_format")
        source = kwargs.pop("catalog_id"), kwargs.pop("energy_file")
        params = {p: kwargs.pop(p) for p in _PARAM_NAMES}
        # NaN fails the bounds too
        if "tol" in kwargs and not 0.0 < kwargs["tol"] < math.inf:
            raise RankOneError("--tol must be positive and finite")
        e = _resolve_energy(*source, params)
        code, payload, lines = body(e, **kwargs)
    except RankOneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_INPUT)
    except MemoryError as exc:  # a grid too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        sys.exit(EXIT_INPUT)
    if report_format == "json":
        out = json.dumps(_json_value({"schema_version": SCHEMA_VERSION,
                                      "energy": e.name, **payload}),
                         indent=2, sort_keys=True, allow_nan=False)
    else:
        out = "\n".join([f"energy: {e.name}", *lines])
    # a character stdout cannot encode is written as a backslash escape
    encoding = sys.stdout.encoding or "utf-8"
    out = out.encode(encoding, "backslashreplace").decode(encoding)
    try:
        print(out, flush=True)
    except BrokenPipeError:  # the reader closed stdout: exit 1 quietly
        # what is left goes to devnull, so no later flush raises
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_FAIL
    sys.exit(code)


main.name = "rankone2d"
main.main = main


@_command(
    "check",
    _option("--t-min", type=float, default=energy.DEFAULT_T_GRID.lo),
    _option("--t-max", type=float, default=energy.DEFAULT_T_GRID.hi),
    _option("--t-points", type=int, default=energy.DEFAULT_T_GRID.n),
    _option("--z-min", type=float, default=energy.DEFAULT_Z_GRID.lo),
    _option("--z-max", type=float, default=energy.DEFAULT_Z_GRID.hi),
    _option("--z-points", type=int, default=energy.DEFAULT_Z_GRID.n),
    _tol_option,
)
def check(e, t_min, t_max, t_points, z_min, z_max, z_points, tol):
    """Full cross-route rank-one convexity check."""
    from . import criteria

    t_grid = energy.GridSpec(t_min, t_max, t_points)
    z_grid = energy.GridSpec(z_min, z_max, z_points)
    main_res = criteria.main_check(e, t_grid=t_grid, tol=tol)
    vol = criteria.voliso_check(e, t_grid=t_grid, z_grid=z_grid, tol=tol)
    ks = criteria.ks_check(e, t_grid=t_grid, z_grid=z_grid, tol=tol)
    nec = criteria.necessary_battery(e, t_grid=t_grid, tol=tol)

    overall = main_res.verdict.overall
    agree = len({main_res.verdict.overall, vol.overall, ks.overall}) == 1
    payload = {
        "h0": _inf_dict(main_res.h0),
        "f0": _inf_dict(main_res.f0),
        "routes": {
            "main": main_res.verdict.to_dict(e.name),
            "voliso": vol.to_dict(e.name),
            "ks": ks.to_dict(e.name),
        },
        "necessary": [r.to_dict() for r in nec],
        "routes_agree": agree,
        "overall": overall,
    }
    lines = [f"h0: {'-inf' if main_res.h0.unbounded else f'{main_res.h0.value:.9g}'}"
             f" at {main_res.h0.attained_at}",
             f"f0: {'-inf' if main_res.f0.unbounded else f'{main_res.f0.value:.9g}'}"
             f" at {main_res.f0.attained_at}"]
    for label, verdict in (("main", main_res.verdict), ("voliso", vol), ("ks", ks)):
        lines.append(f"route {label}: {verdict.overall}")
        lines.extend(_condition_lines(verdict.reports))
    lines.append("necessary battery:")
    lines.extend(_condition_lines(nec))
    lines.append(f"routes agree: {agree}")
    lines.append(f"overall: {overall}")
    return _verdict_exit(overall), payload, lines


@_command("classify")
def classify(e):
    """Structural classification with short-circuit verdict."""
    from . import criteria

    cls = criteria.classify_structure(e)
    lines = [f"kind: {cls.kind}"]
    if cls.mu is not None:
        lines.append(f"mu: {cls.mu:.9g}")
    if cls.ratio is not None:
        lines.append(f"ratio: {cls.ratio:.9g}")
    if cls.convexity is not None:
        lines.append(f"deciding part: {cls.convexity}")
    lines.append(f"overall: {cls.verdict}")
    code = EXIT_INCONCLUSIVE if cls.verdict is None else _verdict_exit(cls.verdict)
    return code, cls.to_dict(), lines


@_command(
    "oracle",
    _option("--seed", type=int, default=0),
    _option("--samples", type=int, default=1000,
            help="Random refinement samples around the worst grid point."),
    _option("--grid", dest="grid_n", type=int,
            default=energy.DEFAULT_ORACLE_GRID.n,
            help="Stretch samples per axis."),
    _tol_option,
)
def oracle_cmd(e, seed, samples, grid_n, tol):
    """Brute-force Legendre-Hadamard violation search."""
    from . import oracle

    _check_at_least("--grid", grid_n, 1)
    _check_at_least("--samples", samples, 0)
    if not 0 <= seed <= oracle.SEED_MAX:
        raise RankOneError(f"--seed must be in [0, {oracle.SEED_MAX}]")
    res = oracle.brute_force_check(e, n_lambda=grid_n, n_refine=samples,
                                   seed=seed, tol=tol)
    payload = {
        "result": res.summary,
        "min_value": res.value,
        "F": [[res.F[0, 0], res.F[0, 1]], [res.F[1, 0], res.F[1, 1]]],
        "xi": list(res.xi),
        "eta": list(res.eta),
    }
    lines = [f"result: {res.summary}", f"min second derivative: {res.value:.9g}"]
    if res.violation:
        lines.append(f"witness F: {res.F.tolist()}")
        lines.append(f"witness xi: {res.xi.tolist()}")
        lines.append(f"witness eta: {res.eta.tolist()}")
    return (EXIT_FAIL if res.violation else EXIT_OK), payload, lines


@_command(
    "stress",
    _option("--at", nargs=2, type=float, default=(1.0, 1.0),
            help="Principal stretches lambda1 lambda2."),
    _tol_option,
)
def stress_cmd(e, at, tol):
    """Principal stresses, moduli and stress-map invertibility."""
    from . import stress

    pair = energy.SingularPair(at[0], at[1])
    st = stress.principal_cauchy(e, pair)
    moduli = stress.infinitesimal_moduli(e, tol=tol)
    linear = stress.linear_rank_one_check(moduli.mu, moduli.kappa)
    inv = stress.invertibility_verdict(e, tol=tol)
    payload = {
        "at": [pair.lambda1, pair.lambda2],
        "sigma1": st.sigma1,
        "sigma2": st.sigma2,
        "tau_iso": st.tau_iso,
        "tau_vol": st.tau_vol,
        "det_D_sigma": st.det_D_sigma,
        "moduli": {"mu": moduli.mu, "kappa": moduli.kappa,
                   "lame_lambda": moduli.lame_lambda,
                   "stress_free": moduli.stress_free},
        "verdicts": {"linear": linear, "invertibility": inv.verdict,
                     "invertibility_witness": inv.witness},
    }
    lines = [
        f"at (lambda1, lambda2) = ({pair.lambda1:g}, {pair.lambda2:g})",
        f"sigma1 = {st.sigma1:.9g}",
        f"sigma2 = {st.sigma2:.9g}",
        f"tau_iso = {st.tau_iso:.9g}, tau_vol = {st.tau_vol:.9g}",
        f"det D sigma = {st.det_D_sigma:.9g}",
        f"moduli: mu = {moduli.mu:.9g}, kappa = {moduli.kappa:.9g}"
        f" (stress-free reference: {moduli.stress_free})",
        f"linearized verdict: {linear}",
        f"invertibility: {inv.verdict} witness={inv.witness}",
    ]
    if inv.verdict == "Degenerate" or linear == "NotRankOneConvex":
        code = EXIT_FAIL
    elif inv.verdict == "NotCertified":
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_OK
    return code, payload, lines


@_command(
    "scan",
    _option("--grid", dest="grid_n", type=int, default=energy.DEFAULT_SCAN_GRID.n,
            help="Grid points per stretch axis."),
    _option("--lambda-min", type=float, default=energy.DEFAULT_SCAN_GRID.lo),
    _option("--lambda-max", type=float, default=energy.DEFAULT_SCAN_GRID.hi),
    _option("--spacing", choices=["log", "linear"], default="log"),
    _option("--angles", type=int, default=48,
            help="Accepted for compatibility and checked to be at least 1; "
                 "it no longer affects the map, whose labels come from the "
                 "exact split conditions."),
    _tol_option,
    _option("--out-csv"),
    _option("--out-svg"),
)
def scan_cmd(e, grid_n, lambda_min, lambda_max, spacing, angles, tol, out_csv,
             out_svg):
    """Ellipticity-domain map over the (lambda1, lambda2) plane."""
    from . import scan

    _check_at_least("--grid", grid_n, 1)
    _check_at_least("--angles", angles, 1)
    emap = scan.scan_domain(e, lambda_range=(lambda_min, lambda_max),
                            n_points=grid_n, tol=tol, spacing=spacing)
    if out_csv:
        _write_output(out_csv, scan.emit_csv, emap, newline="")
    if out_svg:
        _write_output(out_svg, scan.emit_svg, emap)
    counts = {v: int((emap.verdicts == v).sum())
              for v in ("Elliptic", "NonElliptic", "Boundary")}
    wl1, wl2, wmargin = emap.worst()
    payload = {
        "grid": grid_n,
        "counts": counts,
        "worst": {"lambda1": wl1, "lambda2": wl2,
                  "margin": wmargin},
    }
    lines = [f"cells: {counts}",
             f"worst margin {wmargin:.9g} at "
             f"(lambda1, lambda2) = ({wl1:.6g}, {wl2:.6g})"]
    if out_csv:
        lines.append(f"csv written to {out_csv}")
    if out_svg:
        lines.append(f"svg written to {out_svg}")
    if counts["NonElliptic"] > 0:
        code = EXIT_FAIL
    elif counts["Boundary"] > 0:
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_OK
    return code, payload, lines


def run() -> None:
    """Process entry point: run ``main``, flush stdout and stderr, and end
    the process with ``os._exit``, skipping interpreter teardown.

    Teardown, a full garbage-collector pass over numpy and this package,
    costs a CLI process about as much as most commands compute.
    Nothing is lost by skipping it: every file a command writes is closed by
    its ``with`` block, and the package registers no ``atexit`` handler.
    Any exception other than ``SystemExit``, or an exit code that is neither
    None nor an int, takes the normal traceback and exit path, and so does
    a flush that fails.
    """
    try:
        main()
    except SystemExit as exc:  # main always exits
        if exc.code is not None and not isinstance(exc.code, int):
            raise
        code = exc.code or 0
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
