"""Rank-one convexity criteria for planar isotropic energies.

Four routes are provided and must agree:

* ``ks_check``      -- the five classical singular-value conditions on g(x, y),
                       sampled at the (t, z) points of a stride of both grids;
* ``voliso_check``  -- the equivalent four split conditions on (h, f) over (t, z);
* ``main_check``    -- the reduced one-dimensional conditions coupled through
                       the scalar infima h0 and f0;
* ``classify_structure`` -- short-circuit classification for distortion-type
                       and same-shape-function energies.

The split conditions C and D couple h to f only through w = z^2 f''(z):
for every t and every sampled w,

    C:  max(q_C(t) + w, a(t) + (b - c)(t) w) >= 0    (t != 1),
    D:  max(q_D(t) - w, a(t) + (b + c)(t) w) >= 0,

with q_C, q_D, a, b and c from ``energy._coupled_conditions``, which the
scan shares, so a scan loads none of this module.  The f' terms cancel in
Knowles-Sternberg condition (v), which leaves -w in D.  Main3 and Main4
are C and D at w = f0, the infimum of z^2 f''(z).

For fixed t each condition is convex and piecewise linear in w, so its
minimum over the z samples lies at w_min, at w_max or next to the crossing
of the two lines.  ``_coupled_min`` sorts the samples of w once and checks
those four candidates per t: O((T + Z) log Z) for T t-samples and Z
z-samples instead of the T x Z table.  The first row with the smallest
minimum holds the first-index argmin over that table, ties included, so
``_coupled_report`` evaluates that one row over all z for the margin and
witness.

A sampled witness with a negative margin certifies non-convexity; positive
margins support convexity up to grid resolution, which the reports record.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from .energy import (
    DEFAULT_T_GRID,
    DEFAULT_TOL,
    DEFAULT_Z_GRID,
    GridSpec,
    SplitEnergy,
    _Coupled,
    _coupled_conditions,
    g_partials,
)
from .errors import DegenerateGrid, DomainError
from .scalar_inf import InfimumResult, convexity_verdict, infimum_weighted_second

Witness = Union[None, str, List[float]]


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
# the coupled split conditions C and D


def _coupled_min(cond: _Coupled, ws: np.ndarray) -> np.ndarray:
    """Per t, the minimum over ``ws`` of max(q + sign*w, a + coeff*w), NaN
    if the row is undefined at some w.

    Rounding keeps both lines monotone in w, so over the sorted samples every
    defined row is quasiconvex.  Where one line rises and the other falls,
    the minimum lies on either side of the switch, the first sample at which
    the rising line reaches the falling one; otherwise the row is monotone
    and the minimum lies at w_min or w_max.  A bisection on the rounded
    comparison finds the switch of every row at once, so these four
    candidates hold the exact minimum.  A search for the computed crossing
    (a - q)/(sign - coeff) would not: its rounding can put it on the wrong
    side of samples that lie closer together.  Cost: one sort of the Z
    samples and log2 Z vector steps over the T rows, O((T + Z) log Z) time
    and O(T + Z) memory.

    A row is undefined only at a NaN in ``ws``, which sorts last, at the
    ends (an infinite w, or a + coeff*w overflowing against an infinite a)
    or, when coeff is infinite, at w = 0, so the candidates and w = 0, when
    sampled, find every NaN row.
    """
    w = np.sort(ws)
    n = w.size
    top = 1 << (n.bit_length() - 1)
    padded = np.concatenate([w, np.full(2 * top - n, np.nan)])
    with np.errstate(all="ignore"):
        # the switch; comparisons with the NaN padding fail
        k = np.zeros(cond.q.size, dtype=np.intp)
        step = top
        while step:
            wv = padded[step - 1:][k]
            unit, sloped = cond.q + cond.sign * wv, cond.coeff * wv + cond.a
            np.add(k, step, out=k,
                   where=unit < sloped if cond.sign > 0 else sloped < unit)
            step >>= 1
        cands = [w[0], w[np.maximum(k - 1, 0)], w[np.minimum(k, n - 1)], w[-1]]
        if 0.0 in w:  # coeff*w is undefined at w = 0 where coeff is infinite
            cands.append(0.0)
        # NaN if one candidate is undefined
        return functools.reduce(np.minimum, [cond.margin(c) for c in cands])


def _coupled_report(condition_id: str, cond: _Coupled, ts: np.ndarray,
                    zs: np.ndarray, ws: np.ndarray, tol: float) -> ConditionReport:
    """The report of C or D over the (t, z) grid, w = z^2 f''(z): the first
    row with the smallest minimum, or the first undefined row, holds the
    first-index argmin of the table, so that one row is evaluated in full."""
    least = _coupled_min(cond, ws)[cond.mask]
    if least.size == 0:
        raise DegenerateGrid(f"no admissible samples for {condition_id}")
    i = np.flatnonzero(cond.mask)[np.argmin(least)]  # the first NaN, if any
    with np.errstate(all="ignore"):
        row = cond.margin(ws, i)
    r = _grid_report(condition_id, row, (np.full(zs.size, ts[i]), zs), tol)
    r.samples_used = least.size * zs.size
    return r


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
    which the snap removes.  It removes a genuine violation of that relative
    size too: on h = 0.35 log(t)^2, f = 2.6 exp(1.4 log(z)^2), where g_xx
    reaches 1e38, a condition (v) margin of about -2e3 snaps to zero, so
    this route misses cells that ``scan_domain`` labels NonElliptic.
    """
    out = margin / (1.0 + scale)
    out[np.abs(out) < _NOISE_FLOOR] = 0.0
    return out


_KS_AXIS_POINTS = 201


def _ks_axis(grid: GridSpec) -> np.ndarray:
    """At most 201 of the grid's points: an even stride from the first, plus
    the last.  Plain integer indices, because ``np.unique`` would import
    ``numpy.ma`` on its hash path and slow the first call."""
    stride = -(-(grid.n - 1) // (_KS_AXIS_POINTS - 1))
    return grid.points()[np.r_[0:grid.n - 1:stride, grid.n - 1]]


def ks_check(e: SplitEnergy, t_grid: GridSpec = DEFAULT_T_GRID,
             z_grid: GridSpec = DEFAULT_Z_GRID,
             tol: float = DEFAULT_TOL) -> RankOneVerdict:
    """Evaluate the five classical conditions for rank-one convexity on GL+(2).

    The conditions are sampled at x = sqrt(t*z), y = sqrt(z/t) over a stride
    of each of the t and z grids (``_ks_axis``; 201 x 201 on the defaults),
    so every sample is also a vol-iso sample.  The diagonal condition (iii)
    is sampled on the row t = 1 over the same z, whether or not the t grid
    holds 1.  Reported margins are normalized to dimensionless form (see
    ``_normalized``); signs and verdicts are unaffected.
    """
    ts = _ks_axis(t_grid)[:, np.newaxis]
    zs = _ks_axis(z_grid)
    with np.errstate(all="ignore"):
        x, y, _, g_x, g_y, g_xx, g_xy, g_yy = g_partials(e, ts, zs)

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

        # condition on the diagonal x = y, the row t = 1
        d, _, _, dg_x, dg_y, dg_xx, dg_xy, dg_yy = g_partials(e, 1.0, zs)
        diag_margin = np.minimum(dg_xx - dg_xy + dg_x / d, dg_yy - dg_xy + dg_y / d)
        diag_scale = (np.abs(dg_xx) + np.abs(dg_yy) + np.abs(dg_xy)
                      + (np.abs(dg_x) + np.abs(dg_y)) / d)
        reports.append(_grid_report("KS_iii", _normalized(diag_margin, diag_scale),
                                    (d, d), tol))

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


def voliso_check(e: SplitEnergy, t_grid: GridSpec = DEFAULT_T_GRID,
                 z_grid: GridSpec = DEFAULT_Z_GRID,
                 tol: float = DEFAULT_TOL) -> RankOneVerdict:
    """Evaluate the four equivalent split conditions on the (t, z) grid."""
    ts = t_grid.points()
    zs = z_grid.points()
    hj = e.h_jet_array(ts)
    # z^2 f''(z) may overflow to +inf.  C and D then take their w -> +inf
    # limits at that sample; a zero slope times the infinite w is NaN and,
    # like a NaN jet, raises DomainError naming the sample.
    with np.errstate(over="ignore", invalid="ignore"):
        wz = zs**2 * e.f_jet_array(zs).d2
        wt = ts**2 * hj.d2  # t^2 h''(t)
    # A) separate convexity: min decouples into the two 1-D minima
    it, iz = int(np.argmin(wt)), int(np.argmin(wz))
    reports = [_report("A", float(wt[it] + wz[iz]), [float(ts[it]), float(zs[iz])],
                       int(ts.size * zs.size), tol)]

    # B) monotonicity of h on t >= 1
    upper = ts >= 1.0
    reports.append(_grid_report("B", hj.d1[upper], (ts[upper],), tol))

    # C) and D); a NaN jet anywhere makes D raise DomainError
    reports += [_coupled_report(cid, cond, ts, zs, wz, tol) for cid, cond
                in zip(("C", "D"), _coupled_conditions(ts, hj.d1, hj.d2))]

    return _overall(reports, "Voliso")


# ---------------------------------------------------------------------------
# route 3: reduced one-dimensional conditions


@dataclass
class MainCheckResult:
    verdict: RankOneVerdict
    h0: InfimumResult
    f0: InfimumResult


def main_check(e: SplitEnergy, t_grid: GridSpec = DEFAULT_T_GRID,
               tol: float = DEFAULT_TOL) -> MainCheckResult:
    """Evaluate the reduced conditions coupled through the infima h0 and f0."""
    h0 = infimum_weighted_second(e.h)
    f0 = infimum_weighted_second(e.f)
    reports = []

    if h0.unbounded or f0.unbounded:
        marker = h0.attained_at if h0.unbounded else f0.attained_at
        reports.append(_report("Main1", -math.inf, str(marker), 2, tol))
    else:
        reports.append(_report("Main1", h0.value + f0.value,
                               [h0.attained_at, f0.attained_at], 2, tol))

    ts = t_grid.points()
    hj = e.h_jet_array(ts)
    upper = ts >= 1.0
    reports.append(_grid_report("Main2", hj.d1[upper], (ts[upper],), tol))

    if f0.unbounded:
        # both coupled conditions degenerate together with condition 1
        reports += [_report(cid, -math.inf, str(f0.attained_at), int(ts.size), tol)
                    for cid in ("Main3", "Main4")]
        return MainCheckResult(_overall(reports, "MainTheorem"), h0, f0)

    for cid, cond in zip(("Main3", "Main4"), _coupled_conditions(ts, hj.d1, hj.d2)):
        with np.errstate(all="ignore"):  # a NaN margin raises DomainError
            m = cond.margin(f0.value)
        reports.append(_grid_report(cid, m[cond.mask], (ts[cond.mask],), tol))

    return MainCheckResult(_overall(reports, "MainTheorem"), h0, f0)


# ---------------------------------------------------------------------------
# necessary conditions


def necessary_battery(e: SplitEnergy, t_grid: GridSpec = DEFAULT_T_GRID,
                      tol: float = DEFAULT_TOL) -> List[ConditionReport]:
    """Necessary-condition battery; any failure certifies non-convexity."""
    ts = t_grid.points()
    hj = e.h_jet_array(ts)
    h1, h2 = hj.d1, hj.d2
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
    # (t + 1) * Nec_e is b + c, the slope of D in w
    reports.append(_grid_report("Nec_e", (ts + 3.0) * h1 + 2.0 * ts * (ts + 1.0) * h2,
                                (ts,), tol))
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
