"""Split energies W(F) = h(lambda1/lambda2) + f(lambda1*lambda2).

The isochoric part h must satisfy h(t) = h(1/t); this is validated on a log
grid at construction.  The module also carries the built-in catalog of named
energies, the split conditions C and D that the routes and the scan share,
and the sampling defaults every check shares: the tolerance and every range
a check samples, each a named ``GridSpec``, so changing a range is an edit
to one block.  The command line reads those defaults from here, so its
options load none of the checking modules.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Optional

import numpy as np

from . import expr
from .errors import (
    DegenerateGrid,
    DomainError,
    OverflowValue,
    SymmetryViolation,
    UnknownCatalogId,
)
from .expr import Expr, eval_jet2, eval_jet2_array

_SYMMETRY_TOL = 1e-9

DEFAULT_TOL = 1e-8


class GridSpec(NamedTuple):
    """Log-spaced 1-D grid specification."""

    lo: float
    hi: float
    n: int

    def points(self) -> np.ndarray:
        if not 0.0 < self.lo < self.hi < math.inf or self.n < 2:
            raise DegenerateGrid(f"bad grid [{self.lo}, {self.hi}] x {self.n}")
        return np.logspace(math.log10(self.lo), math.log10(self.hi), self.n)


DEFAULT_T_GRID = GridSpec(1e-4, 1e4, 4001)
DEFAULT_Z_GRID = GridSpec(1e-4, 1e4, 1001)
# range and points per axis of the (lambda1, lambda2) scan
DEFAULT_SCAN_GRID = GridSpec(10**-2.5, 10**2.5, 128)
DEFAULT_ORACLE_GRID = GridSpec(1e-2, 1e2, 20)  # the oracle's, per axis
INFIMUM_GRID = GridSpec(1e-6, 1e6, 8192)  # x^2 u'': h0, f0 and convexity
STRESS_GRID = GridSpec(1e-3, 1e3, 2001)  # stress certificate's t and z
SYMMETRY_GRID = GridSpec(1e-3, 1e3, 64)  # t of h(t) = h(1/t) at construction


class _SingularValues(NamedTuple):
    lambda1: float
    lambda2: float


class SingularPair(_SingularValues):
    """Ordered pair of singular values of a deformation gradient; a named
    tuple whose construction raises ``DomainError`` unless both are positive
    and their ratio and product are finite positive floats."""

    __slots__ = ()

    def __new__(cls, lambda1: float, lambda2: float):
        if not (lambda1 > 0.0 and lambda2 > 0.0):
            raise DomainError(
                f"singular values must be positive, got ({lambda1}, {lambda2})"
            )
        l1, l2 = float(lambda1), float(lambda2)
        if not (0.0 < l1 / l2 < math.inf and 0.0 < l1 * l2 < math.inf):
            raise DomainError(
                f"singular values ({lambda1}, {lambda2}) have a ratio or "
                "product that is not a finite positive float")
        return super().__new__(cls, lambda1, lambda2)


class SplitEnergy(NamedTuple):
    """Validated pair (h, f) of isochoric and volumetric parts."""

    h: Expr
    f: Expr
    name: str = ""


def make_split(h_source: str, f_source: str, name: str = "",
               params: Optional[Mapping[str, float]] = None) -> SplitEnergy:
    """Parse and validate a split energy from expression sources.

    ``params`` binds parameter names in both sources (see ``expr.parse``).
    h is sampled at t and 1/t for t on ``SYMMETRY_GRID``: a NaN sample
    raises ``DomainError``, an infinite one ``OverflowValue``, and a residual
    |h(t) - h(1/t)| / (1 + |h(t)|) above 1e-9 ``SymmetryViolation``.
    """
    h = expr.parse(h_source, "t", params)
    f = expr.parse(f_source, "z", params)
    ts = SYMMETRY_GRID.points()
    args = np.concatenate([ts, 1.0 / ts])
    values = eval_jet2_array(h, args).value
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        error, what = ((DomainError, "undefined") if np.isnan(values[i])
                       else (OverflowValue, "overflowed"))
        raise error(f"{h.source_text!r} {what} at t = {args[i]:.6g} "
                    "in the symmetry check")
    ht, hrec = np.split(values, 2)
    with np.errstate(over="ignore"):  # an infinite residual fails the check
        residual = np.abs(ht - hrec) / (1.0 + np.abs(ht))
    worst = int(np.argmax(residual))
    if residual[worst] > _SYMMETRY_TOL:
        raise SymmetryViolation(float(ts[worst]), float(residual[worst]))
    d1_at_one = eval_jet2(h, 1.0).d1
    if abs(d1_at_one) >= 1e-9:
        raise SymmetryViolation(1.0, abs(d1_at_one))
    return SplitEnergy(h=h, f=f, name=name or h_source + " + " + f_source)


# ---------------------------------------------------------------------------
# the coupled split conditions C and D


class _Coupled(NamedTuple):
    """One coupled condition: per t, max(q + sign*w, a + coeff*w) >= 0."""

    q: np.ndarray
    sign: float
    a: np.ndarray
    coeff: np.ndarray
    mask: np.ndarray  # the t at which the condition is defined

    def lines(self, w, rows=slice(None)):
        """(a + coeff*w, q + sign*w), elementwise in t and w: over the t of
        ``rows``, or at the one t of an index ``rows``.  Rounding keeps each
        monotone in w."""
        return self.a[rows] + self.coeff[rows] * w, self.q[rows] + self.sign * w

    def margin(self, w, rows=slice(None)):
        """max(a + coeff*w, q + sign*w), elementwise as ``lines``."""
        return np.maximum(*self.lines(w, rows))


def _coupled_conditions(ts: np.ndarray, h1: np.ndarray, h2: np.ndarray):
    """Conditions C and D; they share a(t).  a, b - c and b + c are factored:
    expanded, large h' and h'' overflow to inf - inf in them."""
    with np.errstate(all="ignore"):
        wt = ts**2 * h2
        a = ts * h1 * (ts * (ts**2 - 1.0) * h2 - 2.0 * h1)
        b_minus_c = (ts - 1.0) * ((ts - 3.0) * h1 + 2.0 * ts * (ts - 1.0) * h2)
        b_plus_c = (ts + 1.0) * ((ts + 3.0) * h1 + 2.0 * ts * (ts + 1.0) * h2)
        return (_Coupled(2.0 * ts / (ts - 1.0) * h1 - wt, 1.0, a, b_minus_c,
                         np.abs(ts - 1.0) > 1e-12),
                _Coupled(2.0 * ts / (ts + 1.0) * h1 + wt, -1.0, a, b_plus_c,
                         np.ones_like(ts, dtype=bool)))


# ---------------------------------------------------------------------------
# catalog


class _CatalogEntry(NamedTuple):
    """Source templates of h and f and the parameters they take, with their
    default values.  Parameters are bound at parse time."""

    h: str
    f: str
    defaults: dict


CATALOG = {
    "example1": _CatalogEntry(
        "exp((1/10)*log(t)^2)", "(1/60)*(z - 1/z)^2", {}),
    "example2": _CatalogEntry(
        "(6/5)*(t - 1/t)^2", "(z - 1/z)^4 - (z - 1/z)^2", {}),
    "k_energy": _CatalogEntry(
        "(mu/2)*(t + 1/t)", "0", {"mu": 1.0}),
    "hadamard_k": _CatalogEntry(
        "(mu/2)*(t + 1/t)", "(kappa/2)*(z - 1)^2", {"mu": 1.0, "kappa": 1.0}),
    "hencky": _CatalogEntry(
        "(mu/2)*log(t)^2", "(kappa/2)*log(z)^2", {"mu": 1.0, "kappa": 1.0}),
    "exp_hencky": _CatalogEntry(
        "(mu/k)*exp((k/2)*log(t)^2)", "(kappa/(2*khat))*exp(khat*log(z)^2)",
        {"mu": 1.0, "kappa": 1.0, "k": 0.25, "khat": 0.25}),
    "exp_hencky_iso": _CatalogEntry(
        "mu*exp(k*log(t)^2)", "0", {"mu": 1.0, "k": 0.1}),
    "exp_hencky_coupled": _CatalogEntry(
        "mu*exp(k*log(t)^2)", "(1/1000)*(z - 1/z)^2", {"mu": 1.0, "k": 0.1}),
    "idealized": _CatalogEntry(
        "mu*((t + 1/t)/2 - 1)", "(kappa/2)*((z + 1/z)/2 - 1)",
        {"mu": 1.0, "kappa": 1.0}),
    "double_well_vol": _CatalogEntry(
        "0", "scale*((z - 1/z)^4 - (z - 1/z)^2)", {"scale": 1.0}),
}


def catalog(catalog_id: str, **params) -> SplitEnergy:
    """Build a named built-in energy; unknown keyword params are rejected."""
    try:
        entry = CATALOG[catalog_id]
    except KeyError:
        raise UnknownCatalogId(
            f"unknown catalog id {catalog_id!r}; known: {', '.join(sorted(CATALOG))}"
        ) from None
    unknown = set(params) - set(entry.defaults)
    if unknown:
        raise UnknownCatalogId(
            f"{catalog_id!r} does not take parameters {sorted(unknown)}"
        )
    shown = ", ".join(f"{k}={v:g}" for k, v in sorted(params.items()))
    name = catalog_id + (f"({shown})" if shown else "")
    return make_split(entry.h, entry.f, name=name,
                      params={**entry.defaults, **params})
