"""Principal stresses, stress invertibility and the linearized regime.

The split structure makes the principal Cauchy stresses explicit:

    sigma1 = h'(t)/lambda2^2 + f'(z)
    sigma2 = -h'(t)/lambda2^2 + f'(z)

with t = lambda1/lambda2 and z = lambda1*lambda2.  The Jacobian determinant
of (sigma1, sigma2) with respect to (lambda1, lambda2) collapses to

    det = 4 f''(z) / lambda2^2 * (t h''(t) + h'(t)),

so local invertibility of the principal stress map is decided by the signs
of the two factors.  Linearizing at the identity yields the infinitesimal
shear modulus mu = h''(1) and bulk-type modulus kappa = f''(1).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .energy import DEFAULT_TOL, STRESS_GRID, SingularPair, SplitEnergy
from .errors import DomainError
from .expr import eval_jet2, eval_jet2_array


class StressState(NamedTuple):
    """Principal Cauchy stresses, split invariants and the Jacobian
    determinant of the principal stress map at one state."""

    sigma1: float
    sigma2: float
    tau_iso: float
    tau_vol: float
    det_D_sigma: float


def principal_cauchy(e: SplitEnergy, pair: SingularPair) -> StressState:
    """Principal Cauchy stresses of the split energy at (lambda1, lambda2),
    and det of d(sigma1, sigma2)/d(lambda1, lambda2) in closed form, from
    one jet of h at t and one of f at z."""
    t = pair.lambda1 / pair.lambda2
    z = pair.lambda1 * pair.lambda2
    hj = eval_jet2(e.h, t)
    fj = eval_jet2(e.f, z)
    dev = hj.d1 / pair.lambda2**2
    return StressState(sigma1=dev + fj.d1, sigma2=-dev + fj.d1, tau_iso=t * hj.d1,
                       tau_vol=z * fj.d1,
                       det_D_sigma=4.0 * fj.d2 / pair.lambda2**2 * (t * hj.d2 + hj.d1))


def stress_jacobian_det(e: SplitEnergy, pair: SingularPair) -> float:
    """``principal_cauchy(e, pair).det_D_sigma``.  No subcommand calls it;
    it is kept because perfbench's trace hooks name it."""
    return principal_cauchy(e, pair).det_D_sigma


class InvertibilityReport(NamedTuple):
    """Grid certificate for local invertibility of the stress map."""

    verdict: str  # LocallyInvertible | Degenerate | NotCertified
    witness: Optional[dict]


def invertibility_verdict(e: SplitEnergy, tol: float = DEFAULT_TOL) -> InvertibilityReport:
    """Certify the sign of both Jacobian factors on sample grids.

    ``LocallyInvertible`` requires f'' > tol on the z grid and
    t h'' + h' > tol on the t grid, both ``STRESS_GRID``, 2001 log-spaced
    points on [1e-3, 1e3]; a factor dipping below -tol yields ``Degenerate``
    with a witness; anything else is ``NotCertified``.  A NaN sample of
    either factor raises ``DomainError`` naming the part and the first such
    sample, f'' first; an infinite sample is a value like any other.
    """
    grid = STRESS_GRID.points()  # the t grid and the z grid
    fpp = eval_jet2_array(e.f, grid).d2
    hj = eval_jet2_array(e.h, grid)
    with np.errstate(all="ignore"):  # a NaN sample raises below
        iso = grid * hj.d2 + hj.d1
    kz = int(np.argmin(fpp))  # the first NaN, if any
    kt = int(np.argmin(iso))
    for part, factor, k in ((e.f, fpp, kz), (e.h, iso, kt)):
        if np.isnan(factor[k]):
            raise DomainError(f"{part.source_text!r} undefined at {grid[k]}")
    min_vol = float(fpp[kz])
    min_iso = float(iso[kt])

    if min_vol <= -tol:
        witness = {"factor": "volumetric", "z": float(grid[kz]), "value": min_vol}
        return InvertibilityReport("Degenerate", witness)
    if min_iso <= -tol:
        witness = {"factor": "isochoric", "t": float(grid[kt]), "value": min_iso}
        return InvertibilityReport("Degenerate", witness)
    if min_vol > tol and min_iso > tol:
        return InvertibilityReport("LocallyInvertible", None)
    return InvertibilityReport("NotCertified", None)


class InfinitesimalModuli(NamedTuple):
    """Moduli of the quadratic energy obtained by linearizing at F = I."""

    mu: float
    kappa: float
    stress_free: bool

    @property
    def lame_lambda(self) -> float:
        return self.kappa - self.mu


def infinitesimal_moduli(e: SplitEnergy, tol: float = DEFAULT_TOL) -> InfinitesimalModuli:
    """Shear and bulk-type moduli at the natural state t = z = 1."""
    mu = eval_jet2(e.h, 1.0).d2
    fj = eval_jet2(e.f, 1.0)
    return InfinitesimalModuli(mu=mu, kappa=fj.d2, stress_free=bool(abs(fj.d1) <= tol))


def linear_rank_one_check(mu: float, kappa: float) -> str:
    """Exact rank-one convexity classification of the linearized energy.

    The quadratic form mu/2 |xi|^2 |eta|^2 + kappa/2 (xi . eta)^2 on
    xi (x) eta is rank-one convex iff mu >= 0 and
    mu + kappa >= 0, strictly so iff both inequalities are strict.
    """
    if mu < 0.0 or mu + kappa < 0.0:
        return "NotRankOneConvex"
    if mu > 0.0 and mu + kappa > 0.0:
        return "StrictlyRankOneConvex"
    return "RankOneConvex"
