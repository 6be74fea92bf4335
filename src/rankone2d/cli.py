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
whose value is not a finite number is an input error.  Keys that neither
source uses are ignored.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Optional

import click

from . import criteria, energy, oracle, scan, stress
from .errors import RankOneError
from .scalar_inf import InfimumResult

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


# ---------------------------------------------------------------------------
# energy resolution


def _load_energy_file(path: str) -> energy.SplitEnergy:
    entries = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise click.ClickException(
                    f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
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


def _energy_options(fn):
    """Energy source options plus one flag per catalog parameter; a command
    takes the parameter flags as ``**params``."""
    names = dict.fromkeys(p for entry in energy.CATALOG.values()
                          for p in entry.defaults)
    for deco in reversed([
        click.option("--catalog", "catalog_id", default=None,
                     help="Catalog energy id."),
        click.option("--energy-file", default=None, type=click.Path(),
                     help="Energy definition file (key=value text)."),
    ] + [click.option(f"--{name}", type=float, default=None) for name in names]):
        fn = deco(fn)
    return fn


def _grid_options(fn):
    for deco in reversed([
        click.option("--t-min", type=float, default=criteria.DEFAULT_T_GRID.lo),
        click.option("--t-max", type=float, default=criteria.DEFAULT_T_GRID.hi),
        click.option("--t-points", type=int, default=criteria.DEFAULT_T_GRID.n),
        click.option("--z-min", type=float, default=criteria.DEFAULT_Z_GRID.lo),
        click.option("--z-max", type=float, default=criteria.DEFAULT_Z_GRID.hi),
        click.option("--z-points", type=int, default=criteria.DEFAULT_Z_GRID.n),
        click.option("--tol", type=float, default=criteria.DEFAULT_TOL),
    ]):
        fn = deco(fn)
    return fn


_report_option = click.option(
    "--report", "report_format", type=click.Choice(["json", "text"]),
    default="text", help="Report format.")


def _check_positive_tol(tol: float) -> None:
    if tol <= 0.0:
        raise click.ClickException("--tol must be positive")


def _check_at_least(option: str, value: int, lowest: int) -> None:
    if value < lowest:
        raise click.ClickException(f"{option} must be at least {lowest}")


# ---------------------------------------------------------------------------
# report helpers


def _inf_dict(r: InfimumResult) -> dict:
    return {
        "value": None if r.unbounded else r.value,
        "unbounded": r.unbounded,
        "attained_at": (r.attained_at if isinstance(r.attained_at, str)
                        else float(r.attained_at)),
    }


def _emit(payload: dict, report_format: str, text_lines) -> None:
    if report_format == "json":
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            click.echo(line)


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


def _run(fn, *args, **kwargs) -> None:
    try:
        code = fn(*args, **kwargs)
    except RankOneError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT)
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(EXIT_INPUT)
    sys.exit(code)


@main.command()
@_energy_options
@_grid_options
@_report_option
def check(catalog_id, energy_file, t_min, t_max, t_points, z_min, z_max,
          z_points, tol, report_format, **params):
    """Full cross-route rank-one convexity check."""

    def body():
        _check_positive_tol(tol)
        e = _resolve_energy(catalog_id, energy_file, params)
        t_grid = criteria.GridSpec(t_min, t_max, t_points)
        z_grid = criteria.GridSpec(z_min, z_max, z_points)
        xy_grid = criteria.DEFAULT_XY_GRID

        main_res = criteria.main_check(e, t_grid=t_grid, tol=tol)
        vol = criteria.voliso_check(e, t_grid=t_grid, z_grid=z_grid, tol=tol)
        ks = criteria.ks_check(energy.as_general(e), grid=xy_grid, tol=tol)
        nec = criteria.necessary_battery(e, t_grid=t_grid, tol=tol)

        overall = main_res.verdict.overall
        agree = len({main_res.verdict.overall, vol.overall, ks.overall}) == 1
        payload = {
            "schema_version": SCHEMA_VERSION,
            "energy": e.name,
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
        lines = [f"energy: {e.name}",
                 f"h0: {'-inf' if main_res.h0.unbounded else f'{main_res.h0.value:.9g}'}"
                 f" at {payload['h0']['attained_at']}",
                 f"f0: {'-inf' if main_res.f0.unbounded else f'{main_res.f0.value:.9g}'}"
                 f" at {payload['f0']['attained_at']}"]
        for label, verdict in (("main", main_res.verdict), ("voliso", vol), ("ks", ks)):
            lines.append(f"route {label}: {verdict.overall}")
            lines.extend(_condition_lines(verdict.reports))
        lines.append("necessary battery:")
        lines.extend(_condition_lines(nec))
        lines.append(f"routes agree: {agree}")
        lines.append(f"overall: {overall}")
        _emit(payload, report_format, lines)
        return _verdict_exit(overall)

    _run(body)


@main.command()
@_energy_options
@_report_option
def classify(catalog_id, energy_file, report_format, **params):
    """Structural classification with short-circuit verdict."""

    def body():
        e = _resolve_energy(catalog_id, energy_file, params)
        cls = criteria.classify_structure(e)
        payload = {"schema_version": SCHEMA_VERSION, "energy": e.name}
        payload.update(cls.to_dict())
        lines = [f"energy: {e.name}", f"kind: {cls.kind}"]
        if cls.mu is not None:
            lines.append(f"mu: {cls.mu:.9g}")
        if cls.ratio is not None:
            lines.append(f"ratio: {cls.ratio:.9g}")
        if cls.convexity is not None:
            lines.append(f"deciding part: {cls.convexity}")
        lines.append(f"overall: {cls.verdict}")
        _emit(payload, report_format, lines)
        if cls.verdict is None:
            return EXIT_INCONCLUSIVE
        return _verdict_exit(cls.verdict)

    _run(body)


@main.command("oracle")
@_energy_options
@_report_option
@click.option("--seed", type=int, default=0)
@click.option("--samples", type=int, default=1000,
              help="Random refinement samples around the worst grid point.")
@click.option("--grid", "grid_n", type=int, default=20,
              help="Stretch samples per axis.")
@click.option("--tol", type=float, default=criteria.DEFAULT_TOL)
def oracle_cmd(catalog_id, energy_file, report_format, seed, samples, grid_n,
               tol, **params):
    """Brute-force Legendre-Hadamard violation search."""

    def body():
        _check_positive_tol(tol)
        _check_at_least("--grid", grid_n, 1)
        _check_at_least("--samples", samples, 0)
        e = _resolve_energy(catalog_id, energy_file, params)
        res = oracle.brute_force_check(e, n_lambda=grid_n, n_refine=samples,
                                       seed=seed, tol=tol)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "energy": e.name,
            "result": res.summary,
            "min_value": res.value,
            "F": [[res.F[0, 0], res.F[0, 1]], [res.F[1, 0], res.F[1, 1]]],
            "xi": list(res.xi),
            "eta": list(res.eta),
        }
        lines = [f"energy: {e.name}", f"result: {res.summary}",
                 f"min second derivative: {res.value:.9g}"]
        if res.violation:
            lines.append(f"witness F: {res.F.tolist()}")
            lines.append(f"witness xi: {res.xi.tolist()}")
            lines.append(f"witness eta: {res.eta.tolist()}")
        _emit(payload, report_format, lines)
        return EXIT_FAIL if res.violation else EXIT_OK

    _run(body)


@main.command("stress")
@_energy_options
@_report_option
@click.option("--at", nargs=2, type=float, default=(1.0, 1.0),
              help="Principal stretches lambda1 lambda2.")
@click.option("--tol", type=float, default=criteria.DEFAULT_TOL)
def stress_cmd(catalog_id, energy_file, report_format, at, tol, **params):
    """Principal stresses, moduli and stress-map invertibility."""

    def body():
        _check_positive_tol(tol)
        e = _resolve_energy(catalog_id, energy_file, params)
        pair = energy.SingularPair(at[0], at[1])
        st = stress.principal_cauchy(e, pair)
        det = stress.stress_jacobian_det(e, pair)
        moduli = stress.infinitesimal_moduli(e, tol=tol)
        linear = stress.linear_rank_one_check(moduli.mu, moduli.kappa)
        inv = stress.invertibility_verdict(e, tol=tol)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "energy": e.name,
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
            f"energy: {e.name}",
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
        _emit(payload, report_format, lines)
        if inv.verdict == "Degenerate" or linear == "NotRankOneConvex":
            return EXIT_FAIL
        if inv.verdict == "NotCertified":
            return EXIT_INCONCLUSIVE
        return EXIT_OK

    _run(body)


@main.command("scan")
@_energy_options
@_report_option
@click.option("--grid", "grid_n", type=int, default=128,
              help="Grid points per stretch axis.")
@click.option("--lambda-min", type=float, default=10**-2.5)
@click.option("--lambda-max", type=float, default=10**2.5)
@click.option("--spacing", type=click.Choice(["log", "linear"]), default="log")
@click.option("--angles", type=int, default=48,
              help="Number of eta angles in [0, pi); the minimum over xi is "
                   "exact.")
@click.option("--tol", type=float, default=criteria.DEFAULT_TOL)
@click.option("--out-csv", type=click.Path(), default=None)
@click.option("--out-svg", type=click.Path(), default=None)
def scan_cmd(catalog_id, energy_file, report_format, grid_n, lambda_min,
             lambda_max, spacing, angles, tol, out_csv, out_svg, **params):
    """Ellipticity-domain map over the (lambda1, lambda2) plane."""

    def body():
        _check_positive_tol(tol)
        _check_at_least("--grid", grid_n, 1)
        _check_at_least("--angles", angles, 1)
        e = _resolve_energy(catalog_id, energy_file, params)
        emap = scan.scan_domain(e, lambda_range=(lambda_min, lambda_max),
                                n_points=grid_n, n_angles=angles, tol=tol,
                                spacing=spacing)
        if out_csv:
            with open(out_csv, "w", newline="") as fh:
                scan.emit_csv(emap, fh)
        if out_svg:
            with open(out_svg, "w") as fh:
                scan.emit_svg(emap, fh)
        counts = {v: int((emap.verdicts == v).sum())
                  for v in ("Elliptic", "NonElliptic", "Boundary")}
        wl1, wl2, wmargin = emap.worst()
        payload = {
            "schema_version": SCHEMA_VERSION,
            "energy": e.name,
            "grid": grid_n,
            "counts": counts,
            "worst": {"lambda1": wl1, "lambda2": wl2,
                      "margin": None if math.isnan(wmargin) else wmargin},
        }
        lines = [f"energy: {e.name}",
                 f"cells: {counts}",
                 f"worst margin {wmargin:.9g} at "
                 f"(lambda1, lambda2) = ({wl1:.6g}, {wl2:.6g})"]
        if out_csv:
            lines.append(f"csv written to {out_csv}")
        if out_svg:
            lines.append(f"svg written to {out_svg}")
        _emit(payload, report_format, lines)
        if counts["NonElliptic"] > 0:
            return EXIT_FAIL
        if counts["Boundary"] > 0:
            return EXIT_INCONCLUSIVE
        return EXIT_OK

    _run(body)


if __name__ == "__main__":
    main()
