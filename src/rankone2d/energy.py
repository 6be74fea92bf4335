"""Split energies W(F) = h(lambda1/lambda2) + f(lambda1*lambda2).

The isochoric part h must satisfy h(t) = h(1/t); this is validated on a log
grid at construction.  The module also carries the built-in catalog of named
energies and the assembly of a general two-variable representation g(x, y)
with all first and second partials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from . import expr
from .errors import (
    DomainError,
    NonPositiveDeterminant,
    SymmetryViolation,
    UnknownCatalogId,
)
from .expr import Expr, Jet2, eval_jet2, eval_jet2_array

_SYMMETRY_POINTS = 64
_SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class SingularPair:
    """Ordered pair of singular values of a deformation gradient."""

    lambda1: float
    lambda2: float

    def __post_init__(self):
        if not (self.lambda1 > 0.0 and self.lambda2 > 0.0):
            raise DomainError(
                f"singular values must be positive, got ({self.lambda1}, {self.lambda2})"
            )


@dataclass(frozen=True)
class SplitCoordinates:
    """Isochoric ratio t = lambda1/lambda2 and determinant z = lambda1*lambda2."""

    t: float
    z: float


def to_coordinates(p: SingularPair) -> SplitCoordinates:
    return SplitCoordinates(t=p.lambda1 / p.lambda2, z=p.lambda1 * p.lambda2)


def from_coordinates(c: SplitCoordinates) -> SingularPair:
    return SingularPair(math.sqrt(c.z * c.t), math.sqrt(c.z / c.t))


@dataclass(frozen=True)
class SplitEnergy:
    """Validated pair (h, f) of isochoric and volumetric parts."""

    h: Expr
    f: Expr
    name: str = ""
    catalog_id: Optional[str] = None

    def h_jet(self, t: float) -> Jet2:
        return eval_jet2(self.h, t)

    def f_jet(self, z: float) -> Jet2:
        return eval_jet2(self.f, z)

    def h_jet_array(self, ts: np.ndarray) -> Jet2:
        return eval_jet2_array(self.h, ts)

    def f_jet_array(self, zs: np.ndarray) -> Jet2:
        return eval_jet2_array(self.f, zs)


def make_split(h_source: str, f_source: str, name: str = "",
               catalog_id: Optional[str] = None,
               params: Optional[Mapping[str, float]] = None) -> SplitEnergy:
    """Parse and validate a split energy from expression sources.

    ``params`` binds parameter names in both sources (see ``expr.parse``).
    """
    h = expr.parse(h_source, "t", params)
    f = expr.parse(f_source, "z", params)
    ts = np.logspace(-3.0, 3.0, _SYMMETRY_POINTS)
    ht = eval_jet2_array(h, ts).value
    hrec = eval_jet2_array(h, 1.0 / ts).value
    residual = np.abs(ht - hrec) / (1.0 + np.abs(ht))
    worst = int(np.nanargmax(residual))
    if not np.all(residual <= _SYMMETRY_TOL):
        raise SymmetryViolation(float(ts[worst]), float(residual[worst]))
    d1_at_one = eval_jet2(h, 1.0).d1
    if abs(d1_at_one) >= 1e-9:
        raise SymmetryViolation(1.0, abs(d1_at_one))
    return SplitEnergy(h=h, f=f, name=name or h_source + " + " + f_source,
                       catalog_id=catalog_id)


def eval_W(e: SplitEnergy, p: SingularPair) -> float:
    """Energy value at the given singular values."""
    c = to_coordinates(p)
    return float(e.h_jet(c.t).value + e.f_jet(c.z).value)


def eval_W_matrix(e: SplitEnergy, F: np.ndarray) -> float:
    """Energy value on a 2x2 matrix with positive determinant."""
    from .oracle import svd2  # local import to avoid a cycle

    F = np.asarray(F, dtype=float)
    if np.linalg.det(F) <= 0.0:
        raise NonPositiveDeterminant(f"det F = {np.linalg.det(F):.6g} <= 0")
    pair, _, _ = svd2(F)
    return eval_W(e, pair)


@dataclass(frozen=True)
class GeneralIsotropicEnergy:
    """Two-variable representation g(x, y) with all partials up to order 2.

    ``partials(x, y)`` returns (g, g_x, g_y, g_xx, g_xy, g_yy); arguments may
    be floats or broadcastable numpy arrays.
    """

    partials: Callable
    name: str = ""


def as_general(e: SplitEnergy) -> GeneralIsotropicEnergy:
    """Assemble g(x, y) = h(x/y) + f(x*y) and its closed-form partials."""

    def partials(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        hj = e.h_jet_array(x / y)
        fj = e.f_jet_array(x * y)
        g = hj.value + fj.value
        g_x = hj.d1 / y + y * fj.d1
        g_y = -x / y**2 * hj.d1 + x * fj.d1
        g_xx = hj.d2 / y**2 + y**2 * fj.d2
        g_xy = -hj.d1 / y**2 - x / y**3 * hj.d2 + fj.d1 + x * y * fj.d2
        g_yy = 2.0 * x / y**3 * hj.d1 + x**2 / y**4 * hj.d2 + x**2 * fj.d2
        return g, g_x, g_y, g_xx, g_xy, g_yy

    return GeneralIsotropicEnergy(partials=partials, name=e.name)


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
    return make_split(entry.h, entry.f, name=name, catalog_id=catalog_id,
                      params={**entry.defaults, **params})
