"""Output checks: every CLI result is judged against theory or against the
independent reference evaluated at the points the program reports.

No check compares against stored output, so a correct speed-up (a new
kernel, vectorized jets, a faster vol-iso search) still passes, while a
flipped verdict or a witness value off by 1% does not.
"""

from __future__ import annotations

import json
import re
from typing import Optional

import numpy as np

from workloads import INC, NOT, R1C, Op

_EXIT = {R1C: 0, NOT: 1}
TOL = 1e-8  # the CLI's default --tol
# A NonElliptic cell must not pass the exact Knowles-Sternberg test by more
# than rounding; the test's margins are normalized by their own size.
KS_SLACK = 1e-9
# Cells whose reference minimum over the CLI's angle grid lies below
# -(GRID_ABS + GRID_REL * scale) must be NonElliptic.  The absolute part is
# twice the CLI's tolerance, the relative part covers rounding between two
# algebraically equal forms of the second derivative.
GRID_ABS = 2 * TOL
GRID_REL = 1e-6


class CheckFailed(Exception):
    pass


def _expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a, b, rel: float, abs_: float = 0.0) -> bool:
    return a is not None and abs(a - b) <= rel * abs(b) + abs_


def verdict_exit(overall: Optional[str]) -> int:
    return _EXIT.get(overall, 2)


def parse(stdout: str) -> Optional[dict]:
    """The JSON report, or None when the CLI produced none."""
    try:
        return json.loads(stdout)
    except ValueError:
        return None


# ---------------------------------------------------------------------------


def check_classify(op: Op, rc: int, d: dict, ref) -> None:
    case = op.case
    _expect(d["kind"] == case.kind, f"kind {d['kind']} != {case.kind}")
    mu, kappa = (float(v) for v in ref.moduli())
    if case.kind == "general":
        _expect(d["overall"] is None, f"general energy decided {d['overall']}")
    else:
        _expect(d["overall"] in case.theory and d["overall"] != INC,
                f"classify verdict {d['overall']} not in {sorted(case.theory)}")
        if case.kind == "hadamard_k":
            _expect(_close(d["mu"], mu, 1e-6), f"mu {d['mu']} != {mu}")
        else:
            _expect(_close(d["ratio"], kappa / mu, 1e-6),
                    f"ratio {d['ratio']} != {kappa / mu}")
    _expect(rc == verdict_exit(d["overall"]), f"exit {rc} for {d['overall']}")


def check_check(op: Op, rc: int, d: dict, ref) -> None:
    overall = d["overall"]
    _expect(overall in op.case.theory,
            f"verdict {overall} not in {sorted(op.case.theory)}")
    _expect(rc == verdict_exit(overall), f"exit {rc} for {overall}")
    routes = {r["overall"] for r in d["routes"].values()}
    _expect(d["routes_agree"] is True and routes == {overall},
            f"routes disagree: {routes}")
    for part in ("h", "f"):
        rep = d[part + "0"]
        unbounded = ref.unbounded(part)
        _expect(rep["unbounded"] == unbounded,
                f"{part}0 unbounded={rep['unbounded']}, reference {unbounded}")
        if unbounded:
            _expect(rep["value"] is None, f"{part}0 unbounded with a value")
            continue
        value, _ = ref.infimum(part)
        _expect(_close(rep["value"], value, 1e-7, 1e-12),
                f"{part}0 = {rep['value']}, reference {value}")
        at = rep["attained_at"]
        if not isinstance(at, str):
            w_at = float(ref.weighted_second(part)(np.array([at]))[0])
            _expect(_close(rep["value"], w_at, 1e-9, 1e-14),
                    f"{part}0 = {rep['value']} but x^2 u'' = {w_at} at {at}")


def check_stress(op: Op, rc: int, d: dict, ref) -> None:
    l1, l2 = float(op.extra[1]), float(op.extra[2])
    _expect(d["at"] == [l1, l2], f"at {d['at']} != {[l1, l2]}")
    s1, s2, det = ref.cauchy(l1, l2)
    scale = abs(s1) + abs(s2)
    for key, want in (("sigma1", s1), ("sigma2", s2)):
        _expect(_close(d[key], want, 1e-9, 1e-12 * scale + 1e-300),
                f"{key} = {d[key]}, reference {want}")
    _expect(_close(d["det_D_sigma"], det, 1e-7, 1e-10),
            f"det D sigma = {d['det_D_sigma']}, reference {det}")
    mu, kappa = (float(v) for v in ref.moduli())
    for key, want in (("mu", mu), ("kappa", kappa)):
        _expect(_close(d["moduli"][key], want, 1e-9, 1e-12),
                f"{key} = {d['moduli'][key]}, reference {want}")

    if mu < 0 or mu + kappa < 0:
        linear = NOT
    elif mu > 0 and mu + kappa > 0:
        linear = "StrictlyRankOneConvex"
    else:
        linear = R1C
    _expect(d["verdicts"]["linear"] == linear,
            f"linear verdict {d['verdicts']['linear']} != {linear}")

    grid = np.logspace(-3, 3, 2001)  # the documented certificate grids
    vol, _ = ref.min_on_grid("f", "f2", grid)
    iso, _ = ref.min_on_grid("h", "iso", grid)
    if vol <= -TOL or iso <= -TOL:
        inv = "Degenerate"
    elif vol > TOL and iso > TOL:
        inv = "LocallyInvertible"
    else:
        inv = "NotCertified"
    _expect(d["verdicts"]["invertibility"] == inv,
            f"invertibility {d['verdicts']['invertibility']} != {inv}")
    witness = d["verdicts"]["invertibility_witness"]
    if inv == "Degenerate" and witness["factor"] == "volumetric":
        got, _ = ref.min_on_grid("f", "f2", np.array([witness["z"]]))
        _expect(got <= -TOL and _close(witness["value"], got, 1e-9),
                f"volumetric witness {witness} vs reference f'' = {got}")
    want_rc = 1 if inv == "Degenerate" or linear == NOT else (
        2 if inv == "NotCertified" else 0)
    _expect(rc == want_rc, f"exit {rc}, expected {want_rc}")


def check_oracle(op: Op, rc: int, d: dict, ref) -> None:
    expect_violation = NOT in op.case.theory
    violation = d["result"] == "Violation"
    _expect(violation == expect_violation,
            f"oracle {d['result']} but theory says {sorted(op.case.theory)}")
    _expect(rc == (1 if violation else 0), f"exit {rc} for {d['result']}")
    F = np.array(d["F"], dtype=float)
    xi = np.array(d["xi"], dtype=float)
    eta = np.array(d["eta"], dtype=float)
    _expect(np.linalg.det(F) > 0, "witness F has det F <= 0")
    for name, v in (("xi", xi), ("eta", eta)):
        _expect(abs(np.linalg.norm(v) - 1.0) < 1e-12, f"|{name}| != 1")
    want = ref.second_difference(F, xi, eta)
    _expect(_close(d["min_value"], want, 1e-8, 1e-15),
            f"min_value {d['min_value']} but W'' = {want} at the witness")
    _expect(not violation or want < -TOL, f"violation witness has W'' = {want}")


_CSV_HEADER = "lambda1,lambda2,verdict,min_margin"
_SVG_COLORS = {"Elliptic": "#3a7ca5", "NonElliptic": "#d1495b",
               "Boundary": "#edae49"}


def check_scan(op: Op, rc: int, d: dict, ref, csv_text: str, svg_text: str,
               n_angles: int) -> None:
    n = d["grid"]
    lines = csv_text.splitlines()
    _expect(lines[0] == _CSV_HEADER and len(lines) == n * n + 1,
            f"csv has {len(lines) - 1} rows for a {n}x{n} grid")
    fields = [line.split(",") for line in lines[1:]]
    l1 = np.array([float(f[0]) for f in fields]).reshape(n, n)
    l2 = np.array([float(f[1]) for f in fields]).reshape(n, n)
    verdict = np.array([f[2] for f in fields]).reshape(n, n)
    margin = np.array([float(f[3]) for f in fields]).reshape(n, n)

    counts = {v: int((verdict == v).sum()) for v in _SVG_COLORS}
    _expect(counts == d["counts"], f"csv counts {counts} != report {d['counts']}")
    _expect((l1 == l1[:, :1]).all() and (l2 == l2[:1, :]).all()
            and (l1[:, 0] == l2[0, :]).all(), "csv grid is not a square grid")
    _expect((verdict == verdict.T).all(), "verdicts are not symmetric")
    nan = np.isnan(margin)
    _expect((nan == nan.T).all() and (margin[~nan] == margin.T[~nan]).all(),
            "margins are not symmetric")
    rects = re.findall(r'<rect x="\d+" y="\d+" width="\d+" height="\d+" '
                       r'fill="(#[0-9a-f]{6})"/>', svg_text)
    _expect(len(rects) == n * n, f"svg has {len(rects)} cells for {n * n}")
    for v, color in _SVG_COLORS.items():
        _expect(rects.count(color) == counts[v], f"svg {v} cells != csv")
    worst = d["worst"]["margin"]
    if not nan.all():
        _expect(f"{worst:.9g}" == f"{np.nanmin(margin):.9g}",
                f"worst margin {worst} != csv minimum {np.nanmin(margin)}")
    want_rc = 1 if counts["NonElliptic"] else (2 if counts["Boundary"] else 0)
    _expect(rc == want_rc, f"exit {rc} for counts {counts}")

    nonell = verdict == "NonElliptic"
    if NOT not in op.case.theory:
        _expect(not nonell.any(), f"rank-one convex energy has "
                f"{int(nonell.sum())} NonElliptic cells")
    if nonell.any():
        ks = ref.ks_margin(l1[nonell], l2[nonell])
        k = int(np.argmax(ks))
        _expect(ks[k] < KS_SLACK, f"NonElliptic cell passes Knowles-Sternberg "
                f"(margin {ks[k]:.3g} at {l1[nonell][k]}, {l2[nonell][k]})")
    gmin, scale = ref.grid_min(l1, l2, n_angles)
    missed = (gmin < -(GRID_ABS + GRID_REL * scale)) & ~nonell
    _expect(not missed.any(), f"{int(missed.sum())} cells violate on the angle "
            "grid but are not NonElliptic")


CHECKS = {"classify": check_classify, "check": check_check,
          "stress": check_stress, "oracle": check_oracle}
