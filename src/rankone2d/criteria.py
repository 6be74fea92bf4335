"""Rank-one convexity criteria for planar isotropic energies.

Four routes are provided and must agree:

* ``ks_check``      -- the five classical singular-value conditions on g(x, y);
* ``voliso_check``  -- the equivalent four split conditions on (h, f) over (t, z);
* ``main_check``    -- the reduced one-dimensional conditions coupled through
                       the scalar infima h0 and f0;
* ``classify_structure`` -- short-circuit classification for distortion-type
                       and same-shape-function energies.

A sampled witness with a negative margin certifies non-convexity; positive
margins support convexity up to grid resolution, which the reports record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from .energy import GeneralIsotropicEnergy, SplitEnergy, as_general
from .errors import DegenerateGrid, DomainError
from .scalar_inf import InfimumResult, convexity_verdict, infimum_weighted_second

DEFAULT_TOL = 1e-8

Witness = Union[None, str, List[float]]


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced 1-D grid specification."""

    lo: float
    hi: float
    n: int

    def points(self) -> np.ndarray:
        if not (0.0 < self.lo < self.hi) or self.n < 2:
            raise DegenerateGrid(f"bad grid [{self.lo}, {self.hi}] x {self.n}")
        return np.logspace(math.log10(self.lo), math.log10(self.hi), self.n)


DEFAULT_T_GRID = GridSpec(1e-4, 1e4, 4001)
DEFAULT_Z_GRID = GridSpec(1e-4, 1e4, 1001)
DEFAULT_XY_GRID = GridSpec(1e-2, 1e2, 201)


@dataclass
class ConditionReport:
    """Verdict for a single inequality condition on a sampling grid."""

    condition_id: str
    verdict: str  # Holds | Fails | Marginal | Unbounded
    worst_margin: float
    witness: Witness
    samples_used: int
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "id": self.condition_id,
            "verdict": self.verdict,
            "worst_margin": None if math.isinf(self.worst_margin) else self.worst_margin,
            "witness": self.witness,
            "samples": self.samples_used,
        }


@dataclass
class RankOneVerdict:
    """Aggregated outcome of one checking route."""

    overall: str  # RankOneConvex | NotRankOneConvex | Inconclusive
    reports: List[ConditionReport]
    route: str

    def to_dict(self, energy_name: str = "") -> dict:
        return {
            "energy": energy_name,
            "route": self.route,
            "conditions": [r.to_dict() for r in self.reports],
            "overall": self.overall,
        }


def _report(condition_id: str, margin: float, witness: Witness,
            samples: int, tol: float) -> ConditionReport:
    if math.isinf(margin) and margin < 0:
        verdict = "Unbounded"
    elif margin < -tol:
        verdict = "Fails"
    elif margin < 0.0:
        verdict = "Marginal"
    else:
        verdict = "Holds"
    return ConditionReport(condition_id, verdict, margin, witness, samples, tol)


def _grid_report(condition_id: str, margins: np.ndarray, points: Sequence[np.ndarray],
                 tol: float) -> ConditionReport:
    if margins.size == 0:
        raise DegenerateGrid(f"no admissible samples for {condition_id}")
    if np.isnan(margins).any():
        i = int(np.argmax(np.isnan(margins)))
        at = [float(p.ravel()[i]) for p in points]
        raise DomainError(f"{condition_id} undefined at {at}")
    i = int(np.argmin(margins))
    witness = [float(p.ravel()[i]) for p in points]
    return _report(condition_id, float(margins.ravel()[i]), witness,
                   int(margins.size), tol)


def _overall(reports: Sequence[ConditionReport], route: str) -> RankOneVerdict:
    verdicts = [r.verdict for r in reports]
    if any(v in ("Fails", "Unbounded") for v in verdicts):
        overall = "NotRankOneConvex"
    elif all(v == "Holds" for v in verdicts):
        overall = "RankOneConvex"
    else:
        overall = "Inconclusive"
    return RankOneVerdict(overall=overall, reports=list(reports), route=route)


# ---------------------------------------------------------------------------
# split-condition coefficients


def _abc_from_jets(t, h1, h2):
    a = t**2 * (t**2 - 1.0) * h1 * h2 - 2.0 * t * h1**2
    b = (t**2 + 3.0) * h1 + 2.0 * t * (t**2 + 1.0) * h2
    c = 4.0 * t * (h1 + t * h2)
    return a, b, c


# ---------------------------------------------------------------------------
# route 1: five singular-value conditions on g(x, y)


_NOISE_FLOOR = 1e-12


def _normalized(margin: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Dimensionless margins: divide by a positive magnitude scale and snap
    roundoff-level values to zero.

    The g-partials of split energies mix terms of wildly different size
    (f' and f'' grow like powers of z = x*y), so raw margins carry
    cancellation noise proportional to the largest ingredient.  Dividing by
    the ingredient magnitude turns that noise into O(machine epsilon),
    which the snap removes without masking any genuine violation.
    """
    out = margin / (1.0 + scale)
    out[np.abs(out) < _NOISE_FLOOR] = 0.0
    return out


def ks_check(g: GeneralIsotropicEnergy, grid: GridSpec = DEFAULT_XY_GRID,
             tol: float = DEFAULT_TOL) -> RankOneVerdict:
    """Evaluate the five classical conditions for rank-one convexity on GL+(2).

    Reported margins are normalized to dimensionless form (see
    ``_normalized``); signs and verdicts are unaffected.
    """
    pts = grid.points()
    x, y = np.meshgrid(pts, pts, indexing="ij")
    with np.errstate(all="ignore"):
        _, g_x, g_y, g_xx, g_xy, g_yy = g.partials(x, y)

        off = np.abs(x - y) > 1e-9 * (x + y)

        scale_te = np.abs(g_xx) + np.abs(g_yy)
        reports = [
            _grid_report("KS_i", _normalized(np.minimum(g_xx, g_yy), scale_te),
                         (x, y), tol),
        ]

        m_ii = (x * g_x - y * g_y) / (x - y)
        s_ii = (np.abs(x * g_x) + np.abs(y * g_y)) / np.abs(x - y)
        reports.append(_grid_report("KS_ii", _normalized(m_ii, s_ii)[off],
                                    (x[off], y[off]), tol))

        # condition on the diagonal x = y
        _, dg_x, dg_y, dg_xx, dg_xy, dg_yy = g.partials(pts, pts)
        diag_margin = np.minimum(dg_xx - dg_xy + dg_x / pts,
                                 dg_yy - dg_xy + dg_y / pts)
        diag_scale = (np.abs(dg_xx) + np.abs(dg_yy) + np.abs(dg_xy)
                      + (np.abs(dg_x) + np.abs(dg_y)) / pts)
        reports.append(_grid_report("KS_iii", _normalized(diag_margin, diag_scale),
                                    (pts, pts), tol))

        prod = g_xx * g_yy
        root = np.sqrt(np.maximum(prod, 0.0))
        ok = prod >= 0.0  # negative products already fail condition i
        s_root = root + np.abs(g_xy)
        m_iv = root + g_xy + (g_x - g_y) / (x - y)
        s_iv = s_root + (np.abs(g_x) + np.abs(g_y)) / np.abs(x - y)
        sel = off & ok
        reports.append(_grid_report("KS_iv", _normalized(m_iv, s_iv)[sel],
                                    (x[sel], y[sel]), tol))
        m_v = root - g_xy + (g_x + g_y) / (x + y)
        s_v = s_root + (np.abs(g_x) + np.abs(g_y)) / (x + y)
        reports.append(_grid_report("KS_v", _normalized(m_v, s_v)[ok],
                                    (x[ok], y[ok]), tol))

    return _overall(reports, "KS")


# ---------------------------------------------------------------------------
# route 2: split conditions over the (t, z) plane


def _h_tables(e: SplitEnergy, ts: np.ndarray):
    hj = e.h_jet_array(ts)
    return hj.d1, hj.d2


def voliso_check(e: SplitEnergy, t_grid: GridSpec = DEFAULT_T_GRID,
                 z_grid: GridSpec = DEFAULT_Z_GRID,
                 tol: float = DEFAULT_TOL) -> RankOneVerdict:
    """Evaluate the four equivalent split conditions on the (t, z) grid."""
    ts = t_grid.points()
    zs = z_grid.points()
    h1, h2 = _h_tables(e, ts)
    wz = zs**2 * e.f_jet_array(zs).d2  # z^2 f''(z)
    wt = ts**2 * h2                    # t^2 h''(t)
    for name, arr in (("h jets", wt), ("f jets", wz)):
        if np.isnan(arr).any():
            raise DomainError(f"{name} undefined inside the grid")

    reports = []

    # A) separate convexity: min decouples into the two 1-D minima
    it, iz = int(np.argmin(wt)), int(np.argmin(wz))
    reports.append(_report("A", float(wt[it] + wz[iz]),
                           [float(ts[it]), float(zs[iz])],
                           int(ts.size * zs.size), tol))

    # B) monotonicity of h on t >= 1
    upper = ts >= 1.0
    reports.append(_grid_report("B", h1[upper], (ts[upper],), tol))

    a, b, c = _abc_from_jets(ts, h1, h2)
    off = np.abs(ts - 1.0) > 1e-12

    def disjunction(q, coeff, mask):
        """min over (t, z) of max(q(t) + wz, a(t) + coeff(t) * wz)."""
        best = math.inf
        witness = [float("nan"), float("nan")]
        tsel = ts[mask]
        q = q[mask]
        asel = a[mask]
        csel = coeff[mask]
        chunk = 512
        for s in range(0, tsel.size, chunk):
            sl = slice(s, s + chunk)
            b1 = q[sl, None] + wz[None, :]
            b2 = asel[sl, None] + csel[sl, None] * wz[None, :]
            m = np.maximum(b1, b2)
            j = int(np.argmin(m))
            if m.ravel()[j] < best:
                best = float(m.ravel()[j])
                witness = [float(tsel[sl][j // zs.size]), float(zs[j % zs.size])]
        return best, witness, int(tsel.size * zs.size)

    with np.errstate(all="ignore"):
        q_c = 2.0 * ts / (ts - 1.0) * h1 - wt
    m_c, w_c, n_c = disjunction(q_c, b - c, off)
    reports.append(_report("C", m_c, w_c, n_c, tol))
    m_d, w_d, n_d = disjunction(2.0 * ts / (ts + 1.0) * h1 + wt, b + c,
                                np.ones_like(ts, dtype=bool))
    reports.append(_report("D", m_d, w_d, n_d, tol))

    return _overall(reports, "Voliso")


# ---------------------------------------------------------------------------
# route 3: reduced one-dimensional conditions


@dataclass
class MainCheckResult:
    verdict: RankOneVerdict
    h0: InfimumResult
    f0: InfimumResult


def main_check(e: SplitEnergy, t_grid: GridSpec = DEFAULT_T_GRID,
               tol: float = DEFAULT_TOL,
               inf_domain: tuple = (1e-6, 1e6)) -> MainCheckResult:
    """Evaluate the reduced conditions coupled through the infima h0 and f0."""
    h0 = infimum_weighted_second(e.h, *inf_domain)
    f0 = infimum_weighted_second(e.f, *inf_domain)
    reports = []

    if h0.unbounded or f0.unbounded:
        marker = h0.attained_at if h0.unbounded else f0.attained_at
        reports.append(_report("Main1", -math.inf, str(marker), 2, tol))
    else:
        reports.append(_report("Main1", h0.value + f0.value,
                               [_loc(h0), _loc(f0)], 2, tol))

    ts = t_grid.points()
    h1, h2 = _h_tables(e, ts)
    wt = ts**2 * h2
    upper = ts >= 1.0
    reports.append(_grid_report("Main2", h1[upper], (ts[upper],), tol))

    if f0.unbounded:
        # both coupled conditions degenerate together with condition 1
        marker = str(f0.attained_at)
        reports.append(_report("Main3", -math.inf, marker, int(ts.size), tol))
        reports.append(_report("Main4", -math.inf, marker, int(ts.size), tol))
        return MainCheckResult(_overall(reports, "MainTheorem"), h0, f0)

    f0v = f0.value
    a, b, c = _abc_from_jets(ts, h1, h2)
    off = np.abs(ts - 1.0) > 1e-12

    with np.errstate(all="ignore"):
        m3 = np.maximum(2.0 * ts / (ts - 1.0) * h1 - wt + f0v,
                        a + (b - c) * f0v)[off]
        m4 = np.maximum(2.0 * ts / (ts + 1.0) * h1 + wt - f0v,
                        a + (b + c) * f0v)
    reports.append(_grid_report("Main3", m3, (ts[off],), tol))
    reports.append(_grid_report("Main4", m4, (ts,), tol))

    return MainCheckResult(_overall(reports, "MainTheorem"), h0, f0)


def _loc(r: InfimumResult):
    return r.attained_at if isinstance(r.attained_at, str) else float(r.attained_at)


# ---------------------------------------------------------------------------
# necessary conditions


def necessary_battery(e: SplitEnergy, t_grid: GridSpec = DEFAULT_T_GRID,
                      tol: float = DEFAULT_TOL) -> List[ConditionReport]:
    """Necessary-condition battery; any failure certifies non-convexity."""
    ts = t_grid.points()
    h1, h2 = _h_tables(e, ts)
    f2 = e.f_jet_array(ts).d2

    h_kind, _ = convexity_verdict(e.h, t_grid.lo, t_grid.hi)
    f_kind, _ = convexity_verdict(e.f, t_grid.lo, t_grid.hi)
    convex = "Convex" in (h_kind, f_kind)
    reports = [ConditionReport("Nec_a", "Holds" if convex else "Fails",
                               0.0 if convex else -math.inf,
                               {"h": h_kind, "f": f_kind}, 2 * t_grid.n, tol)]
    reports.append(_grid_report("Nec_b", h2 + f2, (ts,), tol))
    signed = np.where(ts >= 1.0, h1, -h1)
    reports.append(_grid_report("Nec_c", signed, (ts,), tol))
    reports.append(_grid_report("Nec_d", ts * h2 + h1, (ts,), tol))
    reports.append(_grid_report("Nec_e", (ts + 3.0) * h1 + 2.0 * ts * (ts + 1.0) * h2,
                                (ts,), tol))
    a, b, c = _abc_from_jets(ts, h1, h2)
    reports.append(_grid_report("CorollaryBC", b + c, (ts,), tol))
    return reports


# ---------------------------------------------------------------------------
# route 4: structural classification


@dataclass
class StructureClassification:
    """Detected structure of a split energy, if any."""

    kind: str  # hadamard_k | idealized_same_h | general
    mu: Optional[float] = None
    ratio: Optional[float] = None  # kappa / (2 mu) for same-shape energies
    convexity: Optional[str] = None  # convexity verdict of the deciding part
    witness: Optional[float] = None
    verdict: Optional[str] = None  # overall rank-one verdict, when decided

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "mu": self.mu,
            "ratio": self.ratio,
            "convexity": self.convexity,
            "witness": self.witness,
            "overall": self.verdict,
        }


_FIT_POINTS = 64
_FIT_TOL = 1e-9


def _verdict_of(convexity: str) -> str:
    """Rank-one verdict of a detected structure from its deciding part."""
    return {"Convex": "RankOneConvex",
            "NonConvex": "NotRankOneConvex"}.get(convexity, "Inconclusive")


def _fit_scale(target: np.ndarray, basis: np.ndarray) -> tuple:
    """Least-squares scale s minimizing ||target - s*basis||; returns (s, rel_res)."""
    denom = float(basis @ basis)
    if denom == 0.0:
        return 0.0, math.inf if np.any(target != 0.0) else 0.0
    s = float(target @ basis) / denom
    res = float(np.linalg.norm(target - s * basis))
    return s, res / (1.0 + float(np.linalg.norm(target)))


def classify_structure(e: SplitEnergy) -> StructureClassification:
    """Detect distortion-type or same-shape structure and short-circuit.

    Falls through to ``general`` whenever no structure matches; the general
    route (``main_check``) is always sound.
    """
    ts = np.logspace(-2, 2, _FIT_POINTS)
    h_vals = e.h_jet_array(ts).value - e.h_jet(1.0).value
    f_vals = e.f_jet_array(ts).value - e.f_jet(1.0).value

    distortion = 0.5 * (ts + 1.0 / ts) - 1.0
    mu, res = _fit_scale(h_vals, distortion)
    if res < _FIT_TOL and mu > 0.0:
        kind, wit = convexity_verdict(e.f)
        return StructureClassification("hadamard_k", mu=mu, convexity=kind,
                                       witness=wit, verdict=_verdict_of(kind))

    ratio, res = _fit_scale(f_vals, h_vals)
    if res < _FIT_TOL and ratio > 0.0:
        kind, wit = convexity_verdict(e.h)
        return StructureClassification("idealized_same_h", ratio=ratio,
                                       convexity=kind, witness=wit,
                                       verdict=_verdict_of(kind))

    return StructureClassification("general")
