"""Global infima of the weighted second derivatives x^2 * u''(x).

These two scalars (one for the isochoric part, one for the volumetric part)
couple the reduced one-dimensional rank-one convexity conditions.  The
infimum over (0, inf) is approximated on ``energy.INFIMUM_GRID``, the dense
log grid of [1e-6, 1e6], followed by sampled refinement of the best
bracket.  A minimum at an end of the grid is reported with a limit marker,
and as -inf when a sample overflowed to -inf or the last two decades keep
falling; no size of the minimum counts as divergence.
The sign of the dense grid's minimum is the convexity verdict of u, so
every convexity verdict of the package reads that one domain.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .energy import DEFAULT_TOL, INFIMUM_GRID
from .errors import DomainError
from .expr import Expr, eval_jet2_array, eval_jet2_finite

_REFINE_SAMPLES = 64  # per refinement round
_REL_TOL = 1e-10  # refined bracket width, relative

LIMIT_LOWER = "limit:x->0+"
LIMIT_UPPER = "limit:x->inf"


class InfimumResult(NamedTuple):
    """Outcome of minimizing x^2 * u''(x) over ``INFIMUM_GRID``'s range."""

    value: float  # -inf when divergence was detected
    attained_at: Union[float, str]  # interior point or a limit marker

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.value) and self.value < 0


def weighted_second(e: Expr, xs: np.ndarray) -> np.ndarray:
    """x^2 * u''(x) evaluated elementwise; overflow gives inf without a warning."""
    xs = np.asarray(xs, dtype=float)
    d2 = eval_jet2_array(e, xs).d2
    with np.errstate(over="ignore", invalid="ignore"):
        return xs**2 * d2


def _dense_min(e: Expr) -> Tuple[np.ndarray, np.ndarray, int]:
    """The points of ``INFIMUM_GRID``, x^2 * u''(x) on them and the index of
    its first minimum; a NaN sample raises ``DomainError`` naming the source
    and x."""
    xs = INFIMUM_GRID.points()
    vals = weighted_second(e, xs)
    idx = int(np.argmin(vals))  # the first NaN, if any
    if np.isnan(vals[idx]):
        raise DomainError(f"{e.source_text!r} undefined at {xs[idx]}")
    return xs, vals, idx


def _refine(e: Expr, lo: float, hi: float) -> Tuple[float, float]:
    """(x, x^2 * u''(x)) at the smallest sample of the bracket [lo, hi] of
    log x.  Each round samples the bracket at even steps and narrows it to the
    two steps around its smallest sample; a non-finite jet raises."""
    while True:
        s = np.linspace(lo, hi, _REFINE_SAMPLES)
        xs = np.exp(s)
        with np.errstate(over="ignore"):
            vals = xs**2 * eval_jet2_finite(e, xs).d2
        k = int(np.argmin(vals))
        lo, hi = s[max(k - 1, 0)], s[min(k + 1, _REFINE_SAMPLES - 1)]
        if not (hi - lo > _REL_TOL * (abs(lo) + abs(hi)) and hi - lo > 1e-300):
            return float(xs[k]), float(vals[k])


def infimum_weighted_second(e: Expr) -> InfimumResult:
    """Minimum of x^2 * u''(x) on ``INFIMUM_GRID``'s range [1e-6, 1e6].

    A dense log-grid locates the best bracket (handling multimodality),
    ``_refine`` narrows it.  A first dense minimum that is -inf or lies
    within two samples of an end of the grid is reported with the nearer
    end's limit marker: as -inf when the sample is -inf or the last two
    decades keep falling, else as the boundary value.  Every other minimum
    is refined, however large.
    """
    xs, vals, idx = _dense_min(e)
    best_val = float(vals[idx])
    if best_val == -math.inf or not 2 <= idx <= len(xs) - 3:
        upper = idx >= len(xs) // 2
        marker = LIMIT_UPPER if upper else LIMIT_LOWER
        if best_val == -math.inf or _diverges_into_boundary(xs, vals, upper):
            return InfimumResult(-math.inf, marker)
        return InfimumResult(best_val, marker)
    # refine the winning bracket
    best_x = float(xs[idx])
    x_star, v_star = _refine(e, math.log(float(xs[idx - 1])),
                             math.log(float(xs[idx + 1])))
    if v_star < best_val:
        best_val, best_x = v_star, x_star
    return InfimumResult(best_val, best_x)


def _diverges_into_boundary(xs: np.ndarray, vals: np.ndarray, upper: bool) -> bool:
    """Negative minimum at a boundary that keeps decreasing decade over decade.

    A finite negative boundary limit shows matching minima in the last two
    decades; a true divergence keeps dropping by a detectable amount.
    """
    log_x = np.log10(xs)
    decades = log_x[-1] - log_x if upper else log_x - log_x[0]
    outer_min = float(vals[decades < 1.0].min())
    inner_min = float(vals[(decades >= 1.0) & (decades < 2.0)].min())
    if outer_min >= 0.0:
        return False
    return outer_min <= inner_min - 1e-6 * (1.0 + abs(inner_min))


def convexity_verdict(e: Expr) -> Tuple[str, Optional[float], float]:
    """Convexity of a scalar function from the sign of x^2 * u''(x) on
    ``INFIMUM_GRID``, the infimum's dense grid, not the refined infimum,
    whose rounding can dip below 0 at a double root.

    Returns (verdict, x, m) with m the grid's first minimum of x^2 * u'':
    ("Convex", None, m) for m >= 0, else ("NonConvex", x, m) below
    -DEFAULT_TOL and ("Marginal", x, m) below 0, x the grid point of m.
    """
    xs, vals, idx = _dense_min(e)
    least = float(vals[idx])
    if least >= 0.0:
        return "Convex", None, least
    return "NonConvex" if least < -DEFAULT_TOL else "Marginal", float(xs[idx]), least
