"""Rank-one convexity criteria for planar isotropic energies.

Four routes are provided and must agree:

* ``ks_check``      -- the five classical singular-value conditions on g(x, y),
                       sampled on the x >= y half of a stride of both grids;
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
from typing import List, NamedTuple, Optional, Sequence, Union

import numpy as np

from .energy import (
    DEFAULT_T_GRID,
    DEFAULT_TOL,
    DEFAULT_Z_GRID,
    INFIMUM_GRID,
    GridSpec,
    SplitEnergy,
    _Coupled,
    _coupled_conditions,
    g_partials,
)
from .errors import DegenerateGrid, DomainError
from .expr import eval_jet2_array, terms
from .scalar_inf import (InfimumResult, convexity_verdict, infimum_weighted_second,
                         weighted_second)

Witness = Union[None, str, List[float]]


class ConditionReport(NamedTuple):
    """Verdict for a single inequality condition on a sampling grid."""

    condition_id: str
    verdict: str  # Holds | Fails | Marginal | Unbounded
    worst_margin: float
    witness: Witness
    samples_used: int

    def to_dict(self) -> dict:
        return {
            "id": self.condition_id,
            "verdict": self.verdict,
            "worst_margin": None if math.isinf(self.worst_margin) else self.worst_margin,
            "witness": self.witness,
            "samples": self.samples_used,
        }


class RankOneVerdict(NamedTuple):
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
    return ConditionReport(condition_id, verdict, margin, witness, samples)


def _grid_report(condition_id: str, margins: np.ndarray, points: Sequence[np.ndarray],
                 tol: float, samples: Optional[int] = None) -> ConditionReport:
    """The report at the first smallest of ``margins``, sampled at
    ``points``; it rests on ``samples`` points, by default ``margins.size``."""
    if margins.size == 0:
        raise DegenerateGrid(f"no admissible samples for {condition_id}")
    if np.isnan(margins).any():
        i = int(np.argmax(np.isnan(margins)))
        at = [float(p.ravel()[i]) for p in points]
        raise DomainError(f"{condition_id} undefined at {at}")
    i = int(np.argmin(margins))
    witness = [float(p.ravel()[i]) for p in points]
    return _report(condition_id, float(margins.ravel()[i]), witness,
                   int(margins.size if samples is None else samples), tol)


def _overall(reports: Sequence[ConditionReport], route: str) -> RankOneVerdict:
    verdicts = [r.verdict for r in reports]
    if any(v in ("Fails", "Unbounded") for v in verdicts):
        overall = "NotRankOneConvex"
    elif all(v == "Holds" for v in verdicts):
        overall = "RankOneConvex"
    else:
        overall = "Inconclusive"
    return RankOneVerdict(overall, list(reports), route)


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
    return _grid_report(condition_id, row, (np.full(zs.size, ts[i]), zs), tol,
                        least.size * zs.size)


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

    They are sampled at x = sqrt(t*z), y = sqrt(z/t) over a stride of each
    grid (``_ks_axis``), t below 1 folded to 1/t since h(t) = h(1/t) makes
    g(x, y) = g(y, x): x >= y, 101 x 201 on the defaults.  Row 0 is t = 1,
    grid point or not, where (v) reads |g_xx| - g_xy + g_x/x: condition (iii)
    wherever (i) holds, so KS_iii reports it.  Reported margins are normalized
    (see ``_normalized``); signs and verdicts are unaffected.
    """
    t = _ks_axis(t_grid)
    rows = np.sort(np.r_[1.0, np.maximum(t, 1.0 / t)])
    ts = rows[np.r_[True, np.diff(rows) > 1e-12 * rows[1:]]][:, np.newaxis]
    zs = _ks_axis(z_grid)
    with np.errstate(all="ignore"):
        x, y, _, g_x, g_y, g_xx, g_xy, g_yy = g_partials(e, ts, zs)

        scale_te = np.abs(g_xx) + np.abs(g_yy)
        reports = [
            _grid_report("KS_i", _normalized(np.minimum(g_xx, g_yy), scale_te),
                         (x, y), tol),
        ]

        # conditions ii and iv divide by x - y > 0, on the rows past t = 1
        m_ii = (x * g_x - y * g_y) / (x - y)
        s_ii = (np.abs(x * g_x) + np.abs(y * g_y)) / (x - y)
        reports.append(_grid_report("KS_ii", _normalized(m_ii, s_ii)[1:],
                                    (x[1:], y[1:]), tol))

        prod = g_xx * g_yy
        root = np.sqrt(np.maximum(prod, 0.0))
        ok = prod >= 0.0  # negative products already fail condition i
        s_root = root + np.abs(g_xy)
        m_v = root - g_xy + (g_x + g_y) / (x + y)
        s_v = s_root + (np.abs(g_x) + np.abs(g_y)) / (x + y)
        v = _normalized(m_v, s_v)
        reports.append(_grid_report("KS_iii", v[0], (x[0], y[0]), tol))

        m_iv = root + g_xy + (g_x - g_y) / (x - y)
        s_iv = s_root + (np.abs(g_x) + np.abs(g_y)) / (x - y)
        sel = ok & (ts > 1.0)
        reports.append(_grid_report("KS_iv", _normalized(m_iv, s_iv)[sel],
                                    (x[sel], y[sel]), tol))
        reports.append(_grid_report("KS_v", v[ok], (x[ok], y[ok]), tol))

    return _overall(reports, "KS")


# ---------------------------------------------------------------------------
# route 2: split conditions over the (t, z) plane


def voliso_check(e: SplitEnergy, t_grid: GridSpec = DEFAULT_T_GRID,
                 z_grid: GridSpec = DEFAULT_Z_GRID,
                 tol: float = DEFAULT_TOL) -> RankOneVerdict:
    """Evaluate the four equivalent split conditions on the (t, z) grid."""
    ts = t_grid.points()
    zs = z_grid.points()
    hj = eval_jet2_array(e.h, ts)
    # z^2 f''(z) may overflow to +inf.  C and D then take their w -> +inf
    # limits at that sample; a zero slope times the infinite w is NaN and,
    # like a NaN jet, raises DomainError naming the sample.
    with np.errstate(over="ignore", invalid="ignore"):
        wz = zs**2 * eval_jet2_array(e.f, zs).d2
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


class MainCheckResult(NamedTuple):
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
    hj = eval_jet2_array(e.h, ts)
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
    """Necessary-condition battery; any failure certifies non-convexity.
    Nec_a: h or f is convex by ``convexity_verdict``, which reads each of
    them on ``INFIMUM_GRID`` whatever the t grid, as ``classify`` does.  Its
    margin is 0 if one is convex, else the larger of x^2 h'' and x^2 f''
    at their convexity witnesses, judged against ``tol`` like the others."""
    ts = t_grid.points()
    hj = eval_jet2_array(e.h, ts)
    h1, h2 = hj.d1, hj.d2
    f2 = eval_jet2_array(e.f, ts).d2

    kinds, margins = {}, []
    for part, u in (("h", e.h), ("f", e.f)):
        kinds[part], x = convexity_verdict(u)
        margins.append(0.0 if x is None else float(weighted_second(u, x)))
    reports = [_report("Nec_a", max(margins), kinds, 2 * INFIMUM_GRID.n, tol)]
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


class StructureClassification(NamedTuple):
    """Detected structure of a split energy, if any."""

    kind: str  # hadamard_k | idealized_same_h | general
    mu: Optional[float] = None
    ratio: Optional[float] = None  # f = ratio * h + constant for same-shape energies
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


def _common_ratio(f: dict, h: dict) -> Optional[float]:
    """r if f[k] = r h[k] for every key of both, in exact rational
    arithmetic, with r a positive finite float, else None."""
    if not h or f.keys() != h.keys():
        return None
    exact = [f[k].as_integer_ratio() + h[k].as_integer_ratio() for k in h]
    a, b, c, d = exact[0]
    # (m/n)/(p/q) = (a/b)/(c/d) iff m q b c = a d n p
    same = all(m * q * b * c == a * d * n * p for m, n, p, q in exact)
    r = (a / b) / (c / d)
    return r if same and 0.0 < r < math.inf else None


def classify_structure(e: SplitEnergy) -> StructureClassification:
    """Detect distortion-type or same-shape structure and short-circuit on
    the ``convexity_verdict`` of f (Hadamard: mu K(t) + f(z)) or of h.

    The structure is read exactly from the ``terms`` of h and f, constants
    aside: h is Hadamard iff its terms are alpha (t + 1/t), alpha > 0, and
    mu = 2 alpha; f has h's shape iff its terms are r > 0 times h's.  All
    else, ``cosh(log(t))`` included, is ``general``, for ``main_check``.
    """
    h, f = ({k: c for k, c in terms(x).items() if k != 0.0 and c != 0.0}
            for x in (e.h, e.f))
    mu = 2.0 * h.get(1.0, 0.0)
    if h.keys() == {1.0, -1.0} and h[1.0] == h[-1.0] and 0.0 < mu < math.inf:
        kind, part, scale = "hadamard_k", e.f, {"mu": mu}
    elif (ratio := _common_ratio(f, h)) is not None:
        kind, part, scale = "idealized_same_h", e.h, {"ratio": ratio}
    else:
        return StructureClassification("general")
    convexity, witness = convexity_verdict(part)
    verdict = {"Convex": "RankOneConvex",
               "NonConvex": "NotRankOneConvex"}.get(convexity, "Inconclusive")
    return StructureClassification(kind, convexity=convexity, witness=witness,
                                   verdict=verdict, **scale)
