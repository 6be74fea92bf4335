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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import DEFAULT_TOL, SingularPair, SplitEnergy


@dataclass
class StressState:
    """Principal Cauchy stresses and split invariants at one state."""

    lambda1: float
    lambda2: float
    sigma1: float
    sigma2: float
    tau_iso: float
    tau_vol: float

    @property
    def pressure(self) -> float:
        return 0.5 * (self.sigma1 + self.sigma2)

    @property
    def shear(self) -> float:
        return 0.5 * (self.sigma1 - self.sigma2)


def principal_cauchy(e: SplitEnergy, pair: SingularPair) -> StressState:
    """Principal Cauchy stresses of the split energy at (lambda1, lambda2)."""
    t = pair.lambda1 / pair.lambda2
    z = pair.lambda1 * pair.lambda2
    hp = e.h_jet(t).d1
    fp = e.f_jet(z).d1
    dev = hp / pair.lambda2**2
    return StressState(
        lambda1=pair.lambda1,
        lambda2=pair.lambda2,
        sigma1=dev + fp,
        sigma2=-dev + fp,
        tau_iso=t * hp,
        tau_vol=z * fp,
    )


def stress_jacobian_det(e: SplitEnergy, pair: SingularPair) -> float:
    """det of d(sigma1, sigma2)/d(lambda1, lambda2), in closed form."""
    t = pair.lambda1 / pair.lambda2
    z = pair.lambda1 * pair.lambda2
    hj = e.h_jet(t)
    fpp = e.f_jet(z).d2
    return 4.0 * fpp / pair.lambda2**2 * (t * hj.d2 + hj.d1)


@dataclass
class InvertibilityReport:
    """Grid certificate for local invertibility of the stress map."""

    verdict: str  # LocallyInvertible | Degenerate | NotCertified
    witness: Optional[dict]
    min_volumetric: float
    min_isochoric: float


def invertibility_verdict(e: SplitEnergy, tol: float = DEFAULT_TOL) -> InvertibilityReport:
    """Certify the sign of both Jacobian factors on sample grids.

    ``LocallyInvertible`` requires f'' > tol on the z grid and
    t h'' + h' > tol on the t grid, both 2001 log-spaced points on
    [1e-3, 1e3]; a factor dipping below -tol yields ``Degenerate`` with a
    witness; anything else is ``NotCertified``.
    """
    grid = np.logspace(-3, 3, 2001)  # the t grid and the z grid
    fpp = e.f_jet_array(grid).d2
    hj = e.h_jet_array(grid)
    iso = grid * hj.d2 + hj.d1

    kz = int(np.argmin(fpp))
    kt = int(np.argmin(iso))
    min_vol = float(fpp[kz])
    min_iso = float(iso[kt])

    if min_vol <= -tol:
        witness = {"factor": "volumetric", "z": float(grid[kz]), "value": min_vol}
        return InvertibilityReport("Degenerate", witness, min_vol, min_iso)
    if min_iso <= -tol:
        witness = {"factor": "isochoric", "t": float(grid[kt]), "value": min_iso}
        return InvertibilityReport("Degenerate", witness, min_vol, min_iso)
    if min_vol > tol and min_iso > tol:
        return InvertibilityReport("LocallyInvertible", None, min_vol, min_iso)
    return InvertibilityReport("NotCertified", None, min_vol, min_iso)


@dataclass
class InfinitesimalModuli:
    """Moduli of the quadratic energy obtained by linearizing at F = I."""

    mu: float
    kappa: float
    stress_free: bool

    @property
    def lame_lambda(self) -> float:
        return self.kappa - self.mu


def infinitesimal_moduli(e: SplitEnergy, tol: float = DEFAULT_TOL) -> InfinitesimalModuli:
    """Shear and bulk-type moduli at the natural state t = z = 1."""
    mu = e.h_jet(1.0).d2
    fj = e.f_jet(1.0)
    return InfinitesimalModuli(mu=mu, kappa=fj.d2, stress_free=bool(abs(fj.d1) <= tol))


def w_lin(mu: float, kappa: float, xi: np.ndarray, eta: np.ndarray) -> float:
    """Quadratic linearized energy on the rank-one matrix xi (x) eta."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    dot = float(xi @ eta)
    return 0.5 * mu * float(xi @ xi) * float(eta @ eta) + 0.5 * kappa * dot * dot


def linear_rank_one_check(mu: float, kappa: float) -> str:
    """Exact rank-one convexity classification of the linearized energy.

    The quadratic form w_lin is rank-one convex iff mu >= 0 and
    mu + kappa >= 0, strictly so iff both inequalities are strict.
    """
    if mu < 0.0 or mu + kappa < 0.0:
        return "NotRankOneConvex"
    if mu > 0.0 and mu + kappa > 0.0:
        return "StrictlyRankOneConvex"
    return "RankOneConvex"
