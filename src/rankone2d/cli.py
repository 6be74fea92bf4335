"""Command-line front end.

Subcommands: check, classify, oracle, stress, scan.  Exit codes: 0 for a
rank-one convex verdict (or plain success), 1 for a certified failure with
a printed witness, 2 for inconclusive/marginal outcomes, 3 for input
errors.

Energy-definition files are plain key/value text::

    name = my energy
    h = mu * ((t + 1/t)/2 - 1)
    f = (z - 1)^2
    mu = 0.5

Keys other than ``name``, ``h`` and ``f`` are numeric parameters.  They
are bound at parse time: a parameter name in h or f reads as its number.
A key that is not an identifier, that names the variable (``t`` in h, ``z``
in f), a function (``exp``, ``log``, ...) or a constant (``e``, ``pi``), or
whose value is not a finite number is an input error, and so is a key given
twice.  Keys that neither source uses are ignored.

Every subcommand is declared with ``_command``, which owns the frame they
share.  It adds the energy source options (``--catalog``, ``--energy-file``
and one flag per catalog parameter) and ``--report``.  It checks ``--tol``
where the command has one, resolves the energy and calls the body with it
and the command's own options.  The body returns ``(exit code, payload,
text lines)``; ``_command`` prints the JSON payload with ``schema_version``
and ``energy`` added, or the text lines after ``energy: <name>``.  A
``RankOneError`` or ``ClickException`` from any of these steps becomes one
``error:`` line on stderr and exit 3.  ``--tol`` is checked first, then the
energy, then the body's own inputs, so with two bad inputs the first of
these is the one reported.

Each body imports the modules it runs, and option defaults come from
``energy``, so a process loads only what its subcommand uses.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Optional

import click

from . import energy
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
    entries = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise click.ClickException(
            f"{path}: cannot read energy file: {exc.strerror}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise click.ClickException(
                    f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in entries:
                raise click.ClickException(
                    f"{path}:{lineno}: duplicate key {key!r}")
            entries[key] = value.strip()
    for required in ("h", "f"):
        if required not in entries:
            raise click.ClickException(f"{path}: missing required key {required!r}")
    name = entries.pop("name", path)
    h_src = entries.pop("h")
    f_src = entries.pop("f")
    params = {}
    for key, value in entries.items():
        try:
            params[key] = float(value)
        except ValueError:
            raise click.ClickException(
                f"{path}: parameter {key!r} is not numeric: {value!r}")
    return energy.make_split(h_src, f_src, name=name, params=params)


def _resolve_energy(catalog: Optional[str], energy_file: Optional[str],
                    params: dict) -> energy.SplitEnergy:
    if (catalog is None) == (energy_file is None):
        raise click.ClickException(
            "provide exactly one energy source: --catalog or --energy-file")
    if energy_file is not None:
        if any(v is not None for v in params.values()):
            raise click.ClickException(
                "parameter flags apply to --catalog energies only")
        return _load_energy_file(energy_file)
    kwargs = {k: v for k, v in params.items() if v is not None}
    return energy.catalog(catalog, **kwargs)


_PARAM_NAMES = tuple(dict.fromkeys(p for entry in energy.CATALOG.values()
                                   for p in entry.defaults))

_SHARED_OPTIONS = [
    click.option("--catalog", "catalog_id", default=None,
                 help="Catalog energy id."),
    click.option("--energy-file", default=None, type=click.Path(),
                 help="Energy definition file (key=value text)."),
    *(click.option(f"--{name}", type=float, default=None) for name in _PARAM_NAMES),
    click.option("--report", "report_format", type=click.Choice(["json", "text"]),
                 default="text", help="Report format."),
]

_tol_option = click.option("--tol", type=float, default=energy.DEFAULT_TOL)


def _check_at_least(option: str, value: int, lowest: int) -> None:
    if value < lowest:
        raise click.ClickException(f"{option} must be at least {lowest}")


# ---------------------------------------------------------------------------
# report helpers


def _open_output(path: str, **kwargs):
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise click.ClickException(
            f"{path}: cannot write output file: {exc.strerror}") from None


def _inf_dict(r: InfimumResult) -> dict:
    return {
        "value": None if r.unbounded else r.value,
        "unbounded": r.unbounded,
        "attained_at": r.attained_at,
    }


def _verdict_exit(overall: str) -> int:
    return {"RankOneConvex": EXIT_OK,
            "NotRankOneConvex": EXIT_FAIL}.get(overall, EXIT_INCONCLUSIVE)


def _condition_lines(reports) -> list:
    lines = []
    for r in reports:
        margin = "-inf" if math.isinf(r.worst_margin) else f"{r.worst_margin:.6g}"
        lines.append(f"  {r.condition_id:<12} {r.verdict:<10} "
                     f"worst_margin={margin} witness={r.witness}")
    return lines


# ---------------------------------------------------------------------------
# the command group


@click.group()
def main() -> None:
    """Rank-one convexity checks for planar volumetric-isochoric energies."""


def _command(name: str, *options):
    """Register ``body(e, **options) -> (exit code, payload, text lines)`` as
    a subcommand taking the shared options, then ``options`` in order."""

    def decorate(body):
        @functools.wraps(body)
        def run(catalog_id, energy_file, report_format, **kwargs):
            params = {p: kwargs.pop(p) for p in _PARAM_NAMES}
            try:
                # NaN fails the bounds too
                if "tol" in kwargs and not 0.0 < kwargs["tol"] < math.inf:
                    raise click.ClickException("--tol must be positive and finite")
                e = _resolve_energy(catalog_id, energy_file, params)
                code, payload, lines = body(e, **kwargs)
            except (RankOneError, click.ClickException) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(EXIT_INPUT)
            if report_format == "json":
                click.echo(json.dumps({"schema_version": SCHEMA_VERSION,
                                       "energy": e.name, **payload},
                                      indent=2, sort_keys=True))
            else:
                for line in [f"energy: {e.name}", *lines]:
                    click.echo(line)
            sys.exit(code)

        for deco in reversed([*_SHARED_OPTIONS, *options]):
            run = deco(run)
        return main.command(name)(run)

    return decorate


@_command(
    "check",
    click.option("--t-min", type=float, default=energy.DEFAULT_T_GRID.lo),
    click.option("--t-max", type=float, default=energy.DEFAULT_T_GRID.hi),
    click.option("--t-points", type=int, default=energy.DEFAULT_T_GRID.n),
    click.option("--z-min", type=float, default=energy.DEFAULT_Z_GRID.lo),
    click.option("--z-max", type=float, default=energy.DEFAULT_Z_GRID.hi),
    click.option("--z-points", type=int, default=energy.DEFAULT_Z_GRID.n),
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
    click.option("--seed", type=int, default=0),
    click.option("--samples", type=int, default=1000,
                 help="Random refinement samples around the worst grid point."),
    click.option("--grid", "grid_n", type=int, default=20,
                 help="Stretch samples per axis."),
    _tol_option,
)
def oracle_cmd(e, seed, samples, grid_n, tol):
    """Brute-force Legendre-Hadamard violation search."""
    from . import oracle

    _check_at_least("--grid", grid_n, 1)
    _check_at_least("--samples", samples, 0)
    if not 0 <= seed <= oracle.SEED_MAX:
        raise click.ClickException(f"--seed must be in [0, {oracle.SEED_MAX}]")
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
    click.option("--at", nargs=2, type=float, default=(1.0, 1.0),
                 help="Principal stretches lambda1 lambda2."),
    _tol_option,
)
def stress_cmd(e, at, tol):
    """Principal stresses, moduli and stress-map invertibility."""
    from . import stress

    pair = energy.SingularPair(at[0], at[1])
    st = stress.principal_cauchy(e, pair)
    det = stress.stress_jacobian_det(e, pair)
    moduli = stress.infinitesimal_moduli(e, tol=tol)
    linear = stress.linear_rank_one_check(moduli.mu, moduli.kappa)
    inv = stress.invertibility_verdict(e, tol=tol)
    payload = {
        "at": [pair.lambda1, pair.lambda2],
        "sigma1": st.sigma1,
        "sigma2": st.sigma2,
        "tau_iso": st.tau_iso,
        "tau_vol": st.tau_vol,
        "det_D_sigma": det,
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
        f"det D sigma = {det:.9g}",
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
    click.option("--grid", "grid_n", type=int, default=energy.DEFAULT_SCAN_GRID.n,
                 help="Grid points per stretch axis."),
    click.option("--lambda-min", type=float, default=energy.DEFAULT_SCAN_GRID.lo),
    click.option("--lambda-max", type=float, default=energy.DEFAULT_SCAN_GRID.hi),
    click.option("--spacing", type=click.Choice(["log", "linear"]), default="log"),
    click.option("--angles", type=int, default=48,
                 help="Accepted for compatibility and checked to be at least 1; "
                      "it no longer affects the map, whose labels come from the "
                      "exact split conditions."),
    _tol_option,
    click.option("--out-csv", type=click.Path(), default=None),
    click.option("--out-svg", type=click.Path(), default=None),
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
        with _open_output(out_csv, newline="") as fh:
            scan.emit_csv(emap, fh)
    if out_svg:
        with _open_output(out_svg) as fh:
            scan.emit_svg(emap, fh)
    counts = {v: int((emap.verdicts == v).sum())
              for v in ("Elliptic", "NonElliptic", "Boundary")}
    wl1, wl2, wmargin = emap.worst()
    payload = {
        "grid": grid_n,
        "counts": counts,
        "worst": {"lambda1": wl1, "lambda2": wl2,
                  "margin": None if math.isnan(wmargin) else wmargin},
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

    Teardown, a full garbage-collector pass over numpy, click and this
    package, costs a CLI process about as much as most commands compute.
    Nothing is lost by skipping it: every file a command writes is closed by
    its ``with`` block, and the package registers no ``atexit`` handler.
    Any exception other than ``SystemExit``, or an exit code that is neither
    None nor an int, takes the normal traceback and exit path, and so does
    a flush that fails.
    """
    try:
        main()
    except SystemExit as exc:  # click's standalone mode always exits
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
