"""Split energies W(F) = h(lambda1/lambda2) + f(lambda1*lambda2).

The isochoric part h must satisfy h(t) = h(1/t); this is validated on a log
grid at construction.  The module also carries the built-in catalog of named
energies, the first and second partials of the general two-variable form
g(x, y) on (t, z) samples, the split conditions C and D that the routes and
the scan share, and the sampling defaults every check shares: the
tolerance and every range a check samples, each a named ``GridSpec``, so
changing a range is an edit to one block.  The command line reads those
defaults from here, so its options load none of the checking modules.
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


def eval_W(e: SplitEnergy, p: SingularPair) -> float:
    """Energy value at the given singular values."""
    return float(eval_jet2(e.h, p.lambda1 / p.lambda2).value
                 + eval_jet2(e.f, p.lambda1 * p.lambda2).value)


def g_partials(e: SplitEnergy, ts, zs):
    """The general form g(x, y) = h(x/y) + f(x*y) and its partials up to
    order 2, at x = sqrt(t*z), y = sqrt(z/t).

    Returns (x, y, g, g_x, g_y, g_xx, g_xy, g_yy) on ``ts`` and ``zs``
    broadcast together.  The h jets are evaluated once per element of ``ts``
    and the f jets once per element of ``zs``, so a column of T values of t
    against a row of Z values of z costs T + Z jets for T x Z points.
    """
    t = np.asarray(ts, dtype=float)
    z = np.asarray(zs, dtype=float)
    return _g_from_jets(t, z, eval_jet2_array(e.h, t), eval_jet2_array(e.f, z))


def _g_from_jets(t, z, hj, fj):
    """``g_partials`` from the h jets at t and the f jets at z."""
    x = np.sqrt(t * z)
    y = np.sqrt(z / t)
    return (x, y,
            hj.value + fj.value,
            hj.d1 / y + y * fj.d1,
            -x / y**2 * hj.d1 + x * fj.d1,
            hj.d2 / y**2 + y**2 * fj.d2,
            -hj.d1 / y**2 - x / y**3 * hj.d2 + fj.d1 + x * y * fj.d2,
            2.0 * x / y**3 * hj.d1 + x**2 / y**4 * hj.d2 + x**2 * fj.d2)


# ---------------------------------------------------------------------------
# the coupled split conditions C and D


class _Coupled(NamedTuple):
    """One coupled condition: per t, max(q + sign*w, a + coeff*w) >= 0."""

    q: np.ndarray
    sign: float
    a: np.ndarray
    coeff: np.ndarray
    mask: np.ndarray  # the t at which the condition is defined

    def margin(self, w, rows=slice(None)):
        """max(a + coeff*w, q + sign*w), elementwise in t and w: over the
        t of ``rows``, or at the one t of an index ``rows``."""
        a, coeff, q = self.a[rows], self.coeff[rows], self.q[rows]
        return np.maximum(a + coeff * w, q + self.sign * w)


def _coupled_conditions(ts: np.ndarray, h1: np.ndarray, h2: np.ndarray):
    """Conditions C and D; they share a(t)."""
    with np.errstate(all="ignore"):
        wt = ts**2 * h2
        a = ts**2 * (ts**2 - 1.0) * h1 * h2 - 2.0 * ts * h1**2
        b = (ts**2 + 3.0) * h1 + 2.0 * ts * (ts**2 + 1.0) * h2
        c = 4.0 * ts * (h1 + ts * h2)
        return (_Coupled(2.0 * ts / (ts - 1.0) * h1 - wt, 1.0, a, b - c,
                         np.abs(ts - 1.0) > 1e-12),
                _Coupled(2.0 * ts / (ts + 1.0) * h1 + wt, -1.0, a, b + c,
                         np.ones_like(ts, dtype=bool)))


# ---------------------------------------------------------------------------
# catalog


class _CatalogEntry(NamedTuple):
    """Source templates of h and f, the parameters they take with their
    default values, and a description.  Parameters are bound at parse time."""

    h: str
    f: str
    defaults: dict
    description: str


CATALOG = {
    "example1": _CatalogEntry(
        "exp((1/10)*log(t)^2)", "(1/60)*(z - 1/z)^2", {},
        "smooth exp-log isochoric part with convex volumetric coupling"),
    "example2": _CatalogEntry(
        "(6/5)*(t - 1/t)^2", "(z - 1/z)^4 - (z - 1/z)^2", {},
        "convex isochoric part with double-well volumetric part"),
    "k_energy": _CatalogEntry(
        "(mu/2)*(t + 1/t)", "0", {"mu": 1.0},
        "pure distortion energy mu*K"),
    "hadamard_k": _CatalogEntry(
        "(mu/2)*(t + 1/t)", "(kappa/2)*(z - 1)^2", {"mu": 1.0, "kappa": 1.0},
        "distortion energy plus convex quadratic volumetric part"),
    "hencky": _CatalogEntry(
        "(mu/2)*log(t)^2", "(kappa/2)*log(z)^2", {"mu": 1.0, "kappa": 1.0},
        "planar logarithmic-strain energy"),
    "exp_hencky": _CatalogEntry(
        "(mu/k)*exp((k/2)*log(t)^2)", "(kappa/(2*khat))*exp(khat*log(z)^2)",
        {"mu": 1.0, "kappa": 1.0, "k": 0.25, "khat": 0.25},
        "exponentiated logarithmic-strain energy"),
    "exp_hencky_iso": _CatalogEntry(
        "mu*exp(k*log(t)^2)", "0", {"mu": 1.0, "k": 0.1},
        "isochoric exponentiated log-strain part only"),
    "exp_hencky_coupled": _CatalogEntry(
        "mu*exp(k*log(t)^2)", "(1/1000)*(z - 1/z)^2", {"mu": 1.0, "k": 0.1},
        "isochoric exponentiated part with weak volumetric coupling"),
    "idealized": _CatalogEntry(
        "mu*((t + 1/t)/2 - 1)", "(kappa/2)*((z + 1/z)/2 - 1)",
        {"mu": 1.0, "kappa": 1.0},
        "same shape function for isochoric and volumetric response"),
    "double_well_vol": _CatalogEntry(
        "0", "scale*((z - 1/z)^4 - (z - 1/z)^2)", {"scale": 1.0},
        "pure double-well volumetric part"),
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
