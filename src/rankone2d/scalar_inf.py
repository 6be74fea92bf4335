"""Global infima of the weighted second derivatives x^2 * u''(x).

These two scalars (one for the isochoric part, one for the volumetric part)
couple the reduced one-dimensional rank-one convexity conditions.  The
infimum over (0, inf) is approximated on a truncated log-domain by a dense
grid followed by golden-section refinement of the best bracket; boundary
minima and divergence to -inf are reported explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import NonFinite
from .expr import Expr, eval_jet2, eval_jet2_array

DEFAULT_DOMAIN = (1e-6, 1e6)
DEFAULT_GRID_POINTS = 8192
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
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


def _weighted_second_scalar(e: Expr, x: float) -> float:
    return x * x * eval_jet2(e, x).d2


def _golden_section(fun, lo: float, hi: float, rel_tol: float = 1e-10) -> Tuple[float, float]:
    """Minimize a unimodal function on [lo, hi]; returns (x, f(x))."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    while abs(b - a) > rel_tol * (abs(a) + abs(b)) and abs(b - a) > 1e-300:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
    x = 0.5 * (a + b)
    return x, fun(x)


def infimum_weighted_second(
    e: Expr,
    domain_lo: float = DEFAULT_DOMAIN[0],
    domain_hi: float = DEFAULT_DOMAIN[1],
    levels: int = 1,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> InfimumResult:
    """Minimum of x^2 * u''(x) on [domain_lo, domain_hi].

    A dense log-grid locates the best bracket (handling multimodality),
    golden-section refines it.  Monotone decrease into a boundary that either
    falls below the divergence threshold or keeps shrinking by a large factor
    over the last two decades is reported as value -inf; a plain boundary
    minimum gets a limit marker with the boundary evaluation as value.
    """
    if not (0.0 < domain_lo < domain_hi):
        raise ValueError(f"invalid domain [{domain_lo}, {domain_hi}]")
    history: List[Tuple[int, float]] = []
    s_lo, s_hi = math.log(domain_lo), math.log(domain_hi)
    best_x = domain_lo
    best_val = math.inf
    n = grid_points
    for level in range(max(1, levels)):
        xs = np.exp(np.linspace(s_lo, s_hi, n))
        vals = weighted_second(e, xs)
        if np.isnan(vals).any():
            bad = xs[int(np.argmax(np.isnan(vals)))]
            raise NonFinite(f"weighted second derivative is NaN at x = {bad:.6g}")
        idx = int(np.argmin(vals))
        if vals[idx] < best_val:
            best_val = float(vals[idx])
            best_x = float(xs[idx])
        history.append((level, best_val))
        if vals[idx] < _DIVERGENCE_VALUE:
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
        lo_b, hi_b = float(xs[idx - 1]), float(xs[idx + 1])
        x_star, v_star = _golden_section(
            lambda s: _weighted_second_scalar(e, math.exp(s)),
            math.log(lo_b), math.log(hi_b),
        )
        if v_star < best_val:
            best_val = v_star
            best_x = math.exp(x_star)
        history.append((level + 1, best_val))
        n *= 2
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
    n_samples: int = 4096,
    tol_abs: float = 1e-10,
) -> Tuple[str, Optional[float]]:
    """Sampled convexity check of a scalar function on a log-grid.

    Returns ("Convex", None), ("NonConvex", witness) or ("Marginal", witness)
    according to the sign of the second derivative at the samples.
    """
    xs = np.logspace(math.log10(domain_lo), math.log10(domain_hi), n_samples)
    d2 = eval_jet2_array(e, xs).d2
    if np.isnan(d2).any():
        bad = xs[int(np.argmax(np.isnan(d2)))]
        raise NonFinite(f"second derivative is NaN at x = {bad:.6g}")
    idx = int(np.argmin(d2))
    worst = float(d2[idx])
    if worst < -tol_abs:
        return "NonConvex", float(xs[idx])
    if worst < 0.0:
        return "Marginal", float(xs[idx])
    return "Convex", None
