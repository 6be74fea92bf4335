"""Global infima of the weighted second derivatives x^2 * u''(x).

These two scalars (one for the isochoric part, one for the volumetric part)
couple the reduced one-dimensional rank-one convexity conditions.  The
infimum over (0, inf) is approximated on a truncated log-domain by a dense
grid followed by sampled refinement of the best bracket; boundary minima
and divergence to -inf are reported explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import NonFinite
from .expr import Expr, eval_jet2_array, eval_jet2_finite

DEFAULT_DOMAIN = (1e-6, 1e6)
_GRID_POINTS = 8192
_REFINE_SAMPLES = 64  # per refinement round
_REL_TOL = 1e-10  # refined bracket width, relative
_CONVEXITY_SAMPLES = 4096
_CONVEXITY_TOL = 1e-10
_DIVERGENCE_VALUE = -1e12

LIMIT_LOWER = "limit:x->0+"
LIMIT_UPPER = "limit:x->inf"


@dataclass
class InfimumResult:
    """Outcome of minimizing x^2 * u''(x) over a truncated log-domain."""

    value: float  # -inf when divergence was detected
    attained_at: Union[float, str]  # interior point or a limit marker
    margin_history: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.value) and self.value < 0


def weighted_second(e: Expr, xs: np.ndarray) -> np.ndarray:
    """x^2 * u''(x) evaluated elementwise; overflow gives inf without a warning."""
    xs = np.asarray(xs, dtype=float)
    d2 = eval_jet2_array(e, xs).d2
    with np.errstate(over="ignore", invalid="ignore"):
        return xs**2 * d2


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


def infimum_weighted_second(
    e: Expr,
    domain_lo: float = DEFAULT_DOMAIN[0],
    domain_hi: float = DEFAULT_DOMAIN[1],
) -> InfimumResult:
    """Minimum of x^2 * u''(x) on [domain_lo, domain_hi].

    A dense log-grid locates the best bracket (handling multimodality),
    ``_refine`` narrows it.  Monotone decrease into a boundary that either
    falls below the divergence threshold or keeps shrinking by a large factor
    over the last two decades is reported as value -inf; a plain boundary
    minimum gets a limit marker with the boundary evaluation as value.
    """
    if not (0.0 < domain_lo < domain_hi):
        raise ValueError(f"invalid domain [{domain_lo}, {domain_hi}]")
    xs = np.exp(np.linspace(math.log(domain_lo), math.log(domain_hi), _GRID_POINTS))
    vals = weighted_second(e, xs)
    if np.isnan(vals).any():
        bad = xs[int(np.argmax(np.isnan(vals)))]
        raise NonFinite(f"weighted second derivative is NaN at x = {bad:.6g}")
    idx = int(np.argmin(vals))
    best_val = float(vals[idx])
    history: List[Tuple[int, float]] = [(0, best_val)]
    if best_val < _DIVERGENCE_VALUE:
        marker = LIMIT_LOWER if idx < len(xs) // 2 else LIMIT_UPPER
        return InfimumResult(-math.inf, marker, history)
    at_lower = idx < 2
    at_upper = idx > len(xs) - 3
    if at_lower or at_upper:
        marker = LIMIT_LOWER if at_lower else LIMIT_UPPER
        if _diverges_into_boundary(xs, vals, at_upper):
            return InfimumResult(-math.inf, marker, history)
        return InfimumResult(best_val, marker, history)
    # refine the winning bracket
    best_x = float(xs[idx])
    x_star, v_star = _refine(e, math.log(float(xs[idx - 1])),
                             math.log(float(xs[idx + 1])))
    if v_star < best_val:
        best_val, best_x = v_star, x_star
    history.append((1, best_val))
    return InfimumResult(best_val, best_x, history)


def _diverges_into_boundary(xs: np.ndarray, vals: np.ndarray, upper: bool) -> bool:
    """Negative minimum at a boundary that keeps decreasing decade over decade.

    A finite negative boundary limit shows matching minima in the last two
    decades; a true divergence keeps dropping by a detectable amount.
    """
    log_x = np.log10(xs)
    if upper:
        outer = (log_x > log_x[-1] - 1.0)
        inner = (log_x <= log_x[-1] - 1.0) & (log_x > log_x[-1] - 2.0)
    else:
        outer = (log_x < log_x[0] + 1.0)
        inner = (log_x >= log_x[0] + 1.0) & (log_x < log_x[0] + 2.0)
    if outer.sum() < 2 or inner.sum() < 2:
        return False
    outer_min = float(vals[outer].min())
    inner_min = float(vals[inner].min())
    if outer_min >= 0.0:
        return False
    return outer_min <= inner_min - 1e-6 * (1.0 + abs(inner_min))


def convexity_verdict(
    e: Expr,
    domain_lo: float = DEFAULT_DOMAIN[0],
    domain_hi: float = DEFAULT_DOMAIN[1],
) -> Tuple[str, Optional[float]]:
    """Sampled convexity check of a scalar function on a log-grid.

    Returns ("Convex", None), ("NonConvex", witness) or ("Marginal", witness)
    according to the sign of the second derivative at the samples.
    """
    xs = np.logspace(math.log10(domain_lo), math.log10(domain_hi), _CONVEXITY_SAMPLES)
    d2 = eval_jet2_array(e, xs).d2
    if np.isnan(d2).any():
        bad = xs[int(np.argmax(np.isnan(d2)))]
        raise NonFinite(f"second derivative is NaN at x = {bad:.6g}")
    idx = int(np.argmin(d2))
    worst = float(d2[idx])
    if worst < -_CONVEXITY_TOL:
        return "NonConvex", float(xs[idx])
    if worst < 0.0:
        return "Marginal", float(xs[idx])
    return "Convex", None
