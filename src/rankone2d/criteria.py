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
for every t and every w between the least and greatest sample,

    C:  max(q_C(t) + w, a(t) + (b - c)(t) w) >= 0    (t != 1),
    D:  max(q_D(t) - w, a(t) + (b + c)(t) w) >= 0,

with q_C, q_D, a, b and c from ``energy._coupled_conditions``, which the
scan shares, so a scan loads none of this module.  The f' terms cancel in
Knowles-Sternberg condition (v), which leaves -w in D.  Main3 and Main4
are C and D at w = f0, the infimum of z^2 f''(z).

Vol-iso reads w only through its sampled range [lo, hi]: at each t, C
and D are the maximum of two lines in w, least at lo, at hi or where the
lines cross, so ``_coupled_report`` takes three candidates per row in
O(T + Z), not the T x Z table, and C and D hold at every w of the range,
sampled or not.  Since h(t) = h(1/t), main, vol-iso and KS sample t on
``_fold_t``'s t >= 1 rows.

Every condition is judged by one rule (``_report``).  A margin is a sum of
terms, each rounded to about eps of its own size, so a margin given a size,
the sum of their absolute values, is judged ``_ROUNDING`` times that size
higher and reported raw; only KS gives sizes.  A sampled witness with a
negative margin certifies non-convexity; positive margins support convexity
up to grid resolution, which the reports record.
"""

from __future__ import annotations

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
            "worst_margin": self.worst_margin,
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


_ROUNDING = 64 * np.finfo(float).eps


def _report(condition_id: str, margin: float, witness: Witness,
            samples: int, tol: float, size: float = 0.0) -> ConditionReport:
    judged = margin + _ROUNDING * size
    if math.isinf(judged) and judged < 0:
        verdict = "Unbounded"
    elif judged < -tol:
        verdict = "Fails"
    elif judged < 0.0:
        verdict = "Marginal"
    else:
        verdict = "Holds"
    return ConditionReport(condition_id, verdict, margin, witness, samples)


def _grid_report(condition_id: str, margins: np.ndarray, points: Sequence[np.ndarray],
                 tol: float, samples: Optional[int] = None,
                 size: Optional[np.ndarray] = None) -> ConditionReport:
    """The report at the first smallest of ``margins + _ROUNDING * size``,
    sampled at ``points``; it rests on ``samples`` points, by default all."""
    if margins.size == 0:
        raise DegenerateGrid(f"no admissible samples for {condition_id}")
    if size is None:
        judged = margins
    else:
        judged = _ROUNDING * size
        judged += margins
    i = int(np.argmin(judged))  # the first NaN, if any
    witness = [float(p.ravel()[i]) for p in points]
    if np.isnan(judged.ravel()[i]):
        raise DomainError(f"{condition_id} undefined at {witness}")
    return _report(condition_id, float(margins.ravel()[i]), witness,
                   int(margins.size if samples is None else samples), tol,
                   0.0 if size is None else float(size.ravel()[i]))


def _overall(reports: Sequence[ConditionReport], route: str) -> RankOneVerdict:
    verdicts = [r.verdict for r in reports]
    if any(v in ("Fails", "Unbounded") for v in verdicts):
        overall = "NotRankOneConvex"
    elif all(v == "Holds" for v in verdicts):
        overall = "RankOneConvex"
    else:
        overall = "Inconclusive"
    return RankOneVerdict(overall, list(reports), route)


def _fold_t(t: np.ndarray) -> np.ndarray:
    """The t >= 1 rows the routes sample: ``t`` sorted, t < 1 folded to 1/t
    and t = 1 added.  Of points within 1e-12 relative one is kept, 1 or else
    a sample t >= 1, so a grid symmetric in log t keeps its own upper half."""
    cand = np.r_[1.0, t[t >= 1.0], 1.0 / t[t < 1.0]]
    order = np.argsort(cand, kind="stable")  # a merge of two sorted runs on a grid
    rows = cand[order]
    first = np.flatnonzero(np.r_[True, np.diff(rows) > 1e-12 * rows[1:]])
    return cand[np.minimum.reduceat(order, first)]


# ---------------------------------------------------------------------------
# the coupled split conditions C and D


def _coupled_report(condition_id: str, cond: _Coupled, ts: np.ndarray,
                    zs: np.ndarray, ws: np.ndarray, tol: float) -> ConditionReport:
    """The report of C or D over the (t, z) grid, w = z^2 f''(z), from the
    range [lo, hi] of the sampled w alone, in O(T + Z).

    Each row is the maximum of two lines in w, each monotone under rounding,
    so its least value over the range is the margin at lo or at hi or, where
    one line rises and the other falls, the lower line at their crossing x
    clipped into the range (a NaN crossing, inf/inf or 0/0, is taken at 0,
    where an infinite slope is undefined); each line's least end bounds the
    row from below too, so no margin in the range is below the minimum.
    The report is the first row with the smallest minimum, or the first
    undefined row; its z is the first sample of w at lo, at hi, or nearest
    x.  A NaN in ``ws`` makes every row undefined at its first NaN sample.
    At a crossing between samples the witness is approximate: the margin
    is the row's bound there, and the nearest sample's own may be higher.
    """
    rows = cond.mask
    t = ts[rows]
    if t.size == 0:
        raise DegenerateGrid(f"no admissible samples for {condition_id}")
    with np.errstate(all="ignore"):
        lo, hi = ws.min(), ws.max()  # NaN if a sample is
        x = (cond.a[rows] - cond.q[rows]) / (cond.sign - cond.coeff[rows])
        x = np.fmin(np.fmax(np.where(np.isnan(x), 0.0, x), lo), hi)
        # the sloped line a + coeff*w and the unit one q + sign*w at lo, hi, x
        (s_lo, u_lo), (s_hi, u_hi), (s_x, u_x) = (cond.lines(w, rows)
                                                  for w in (lo, hi, x))
        bound = np.maximum.reduce([np.minimum(s_x, u_x), np.minimum(s_lo, s_hi),
                                   np.minimum(u_lo, u_hi)])
        cands = np.stack([np.maximum(s_lo, u_lo), np.maximum(s_hi, u_hi), bound])
        least = cands.min(axis=0)  # NaN if a candidate is undefined
        i = int(np.argmin(least))  # the first NaN, if any
        k = int(np.argmin(cands[:, i]))
        j = (np.argmin(ws) if k == 0 else np.argmax(ws) if k == 1
             else np.argmin(np.abs(ws - x[i])))
    witness = [float(t[i]), float(zs[j])]
    if np.isnan(least[i]):
        raise DomainError(f"{condition_id} undefined at {witness}")
    return _report(condition_id, float(least[i]), witness, t.size * zs.size, tol)


# ---------------------------------------------------------------------------
# route 1: five singular-value conditions on g(x, y)


_KS_AXIS_POINTS = 201


def _ks_axis(grid: GridSpec) -> np.ndarray:
    """At most 201 of the grid's points: an even stride from the first, plus
    the last.  Plain integer indices, because ``np.unique`` would import
    ``numpy.ma`` on its hash path and slow the first call."""
    stride = -(-(grid.n - 1) // (_KS_AXIS_POINTS - 1))
    return grid.points()[np.r_[0:grid.n - 1:stride, grid.n - 1]]


def _g_from_jets(t, z, hj, fj):
    """The partials up to order 2 of the general form g(x, y) = h(x/y) +
    f(x*y) at x = sqrt(t*z), y = sqrt(z/t), from the h jets ``hj`` at t and
    the f jets ``fj`` at z: (x, y, g_x, g_y, g_xx, g_xy, g_yy)."""
    x = np.sqrt(t * z)
    y = np.sqrt(z / t)
    return (x, y,
            hj.d1 / y + y * fj.d1,
            -x / y**2 * hj.d1 + x * fj.d1,
            hj.d2 / y**2 + y**2 * fj.d2,
            -hj.d1 / y**2 - x / y**3 * hj.d2 + fj.d1 + x * y * fj.d2,
            2.0 * x / y**3 * hj.d1 + x**2 / y**4 * hj.d2 + x**2 * fj.d2)


def ks_check(e: SplitEnergy, t_grid: GridSpec = DEFAULT_T_GRID,
             z_grid: GridSpec = DEFAULT_Z_GRID,
             tol: float = DEFAULT_TOL) -> RankOneVerdict:
    """Evaluate the five classical conditions for rank-one convexity on GL+(2).

    They are sampled at x = sqrt(t*z), y = sqrt(z/t) over a stride of each
    grid (``_ks_axis``), the t stride folded by ``_fold_t`` since h(t) = h(1/t)
    makes g(x, y) = g(y, x): x >= y, 101 x 201 on the defaults.  Row 0 is
    t = 1, where (v) reads |g_xx| - g_xy + g_x/x: condition (iii) wherever
    (i) holds, so KS_iii reports it.

    Each margin is weighted into the units of w = z^2 f''(z), those of the
    split conditions: (i) is min(x^2 g_xx, y^2 g_yy) = min(A(t, z), A(1/t, z)),
    A = t^2 h'' + w; (ii) is y (x g_x - y g_y)/(x - y) = 2t h'/(t - 1); (iii)
    to (v) are multiplied by xy = z.  The sizes take the same positive weights,
    except that KS_i's is the size of the smaller candidate's own terms:
    |t^2 h''(t)| + |w| or |t^-2 h''(1/t)| + |w|.
    """
    ts = _fold_t(_ks_axis(t_grid))[:, np.newaxis]
    zs = _ks_axis(z_grid)
    with np.errstate(all="ignore"):
        hj, fj = eval_jet2_array(e.h, ts), eval_jet2_array(e.f, zs)
        x, y, g_x, g_y, g_xx, g_xy, g_yy = _g_from_jets(ts, zs, hj, fj)

        # the band is the size of the smaller candidate's own terms, t^2 h''(t)
        # and w for A(t, z), t^-2 h''(1/t) = t^2 h''(t) + 2t h'(t) and w for
        # A(1/t, z): on a Hadamard h the other one is about mu*t
        a_t, a_inv = x * x * g_xx, y * y * g_yy
        iso = ts * ts * hj.d2
        size = (np.where(a_t <= a_inv, np.abs(iso), np.abs(iso + 2.0 * ts * hj.d1))
                + np.abs(zs * zs * fj.d2))
        reports = [_grid_report("KS_i", np.minimum(a_t, a_inv), (x, y), tol,
                                size=size)]

        # conditions ii and iv divide by x - y > 0, on the rows past t = 1
        gap = x - y
        xg, yg, weight = x * g_x, y * g_y, y / gap
        reports.append(_grid_report("KS_ii", ((xg - yg) * weight)[1:],
                                    (x[1:], y[1:]), tol,
                                    size=((np.abs(xg) + np.abs(yg)) * weight)[1:]))

        prod = g_xx * g_yy
        root = np.sqrt(np.maximum(prod, 0.0))
        ok = prod >= 0.0  # negative products already fail condition i
        s_root, s_g, width = root + np.abs(g_xy), np.abs(g_x) + np.abs(g_y), x + y
        m_v = root - g_xy + (g_x + g_y) / width
        s_v = s_root + s_g / width
        m_iv = root + g_xy + (g_x - g_y) / gap
        s_iv = s_root + s_g / gap
        for a in (m_v, s_v, m_iv, s_iv):
            a *= zs  # the weight xy = z
        reports.append(_grid_report("KS_iii", m_v[0], (x[0], y[0]), tol, size=s_v[0]))
        for cid, m, s, sel in (("KS_iv", m_iv, s_iv, ok & (ts > 1.0)),
                               ("KS_v", m_v, s_v, ok)):
            if sel.any():
                reports.append(_grid_report(cid, m[sel], (x[sel], y[sel]), tol,
                                            size=s[sel]))
            else:  # condition i fails at every sample: nothing left to ask
                reports.append(_report(cid, math.inf, None, 0, tol))

    return _overall(reports, "KS")


# ---------------------------------------------------------------------------
# route 2: split conditions over the (t, z) plane


def voliso_check(e: SplitEnergy, t_grid: GridSpec = DEFAULT_T_GRID,
                 z_grid: GridSpec = DEFAULT_Z_GRID,
                 tol: float = DEFAULT_TOL) -> RankOneVerdict:
    """Evaluate the four equivalent split conditions on the (t, z) grid."""
    ts = _fold_t(t_grid.points())
    zs = z_grid.points()
    hj = eval_jet2_array(e.h, ts)
    # z^2 f''(z) may overflow to +inf.  C and D then take their w -> +inf
    # limits at that sample; a zero slope times the infinite w is NaN and,
    # like a NaN jet, raises DomainError naming the sample.
    with np.errstate(over="ignore", invalid="ignore"):
        wz = weighted_second(e.f, zs)
        wt = ts**2 * hj.d2  # t^2 h''(t); at 1/t it is t^2 h''(t) + 2t h'(t)
        wt = np.minimum(wt, wt + 2.0 * ts * hj.d1)
    # A) separate convexity: min decouples into the two 1-D minima
    it, iz = int(np.argmin(wt)), int(np.argmin(wz))
    reports = [_report("A", float(wt[it] + wz[iz]), [float(ts[it]), float(zs[iz])],
                       int(ts.size * zs.size), tol)]

    # B) monotonicity of h
    reports.append(_grid_report("B", hj.d1, (ts,), tol))

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

    ts = _fold_t(t_grid.points())
    hj = eval_jet2_array(e.h, ts)
    reports.append(_grid_report("Main2", hj.d1, (ts,), tol))

    for cid, cond in zip(("Main3", "Main4"), _coupled_conditions(ts, hj.d1, hj.d2)):
        if f0.unbounded:  # both degenerate together with condition 1
            reports.append(_report(cid, -math.inf, str(f0.attained_at), ts.size, tol))
            continue
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
    margin is 0 if one is convex, else the larger of the two grid minima of
    x^2 u'' that verdict judged, judged against ``tol`` like the others."""
    ts = t_grid.points()
    hj = eval_jet2_array(e.h, ts)
    h1, h2 = hj.d1, hj.d2
    f2 = eval_jet2_array(e.f, ts).d2

    kinds, margins = {}, []
    for part, u in (("h", e.h), ("f", e.f)):
        kinds[part], x, least = convexity_verdict(u)
        margins.append(0.0 if x is None else least)
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
    convexity, witness, _ = convexity_verdict(part)
    verdict = {"Convex": "RankOneConvex",
               "NonConvex": "NotRankOneConvex"}.get(convexity, "Inconclusive")
    return StructureClassification(kind, convexity=convexity, witness=witness,
                                   verdict=verdict, **scale)
