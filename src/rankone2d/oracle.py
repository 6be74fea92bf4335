"""Independent brute-force verification on matrices.

Everything here works directly with 2x2 deformation gradients: closed-form
singular values, the closed-form second directional derivative along
rank-one lines through the distortion function, and a sampled search for
violating (F, xi, eta) triples, whose direction kernel minimises the
closed-form acoustic tensor.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple, Tuple

import numpy as np

from .energy import DEFAULT_ORACLE_GRID, DEFAULT_TOL, SingularPair, SplitEnergy
from .errors import DegenerateGrid, NonPositiveDeterminant
from .expr import eval_jet2_finite
from .kernels import direction_min_batch

# |t - 1| at or below which _curvatures takes psi' at its limit: there its
# O((t - 1)^2) error meets the O(eps/|t - 1|) rounding of the chain rule,
# so psi' and c_iso jump by about 2e-11 * h''(1) across the switch
_PSI_EPS = 3e-6

# eta angles k*pi/_N_ANGLES of every kernel call, grid and refinement alike
_N_ANGLES = 48

SEED_MAX = 2**32 - 1  # seeds are unsigned 32-bit integers


def svd2(F: np.ndarray) -> SingularPair:
    """Singular values of a 2x2 matrix with positive determinant, in closed
    form: the pair lambda1 >= lambda2 > 0.  The smaller one is det F /
    lambda1, formed without subtracting the two singular values.
    """
    (a, b), (c, d) = np.asarray(F, dtype=float)
    det = a * d - b * c
    if det <= 0.0:
        raise NonPositiveDeterminant(f"det F = {det:.6g} <= 0")
    lambda1 = (math.hypot(0.5 * (a + d), 0.5 * (c - b))
               + math.hypot(0.5 * (a - d), 0.5 * (c + b)))
    return SingularPair(lambda1, float(det / lambda1))


def _curvatures(e: SplitEnergy, l1, l2) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(psi', c_iso, f'') at the states diag(l1, l2), l1 >= l2, vectorized.

    h(t), t = l1/l2, is psi(K) with K = (t + 1/t)/2, so psi' = t h'(t) /
    ((t - 1)(t + 1)/(2t)), or at |t - 1| <= _PSI_EPS its limit t^3 h''(t);
    psi'' enters only as c_iso = psi'' (t - 1/t)^2/4 = t^2 h''(t) - psi'/t.
    A jet of h, then of f at l1 l2, that is not finite raises the typed
    error of ``eval_jet2_finite``.
    """
    l1, l2 = np.asarray(l1, dtype=float), np.asarray(l2, dtype=float)
    t = l1 / l2
    hj = eval_jet2_finite(e.h, t)
    fpp = eval_jet2_finite(e.f, l1 * l2).d2
    with np.errstate(divide="ignore", invalid="ignore"):
        psi1 = hj.d1 * t / ((t - 1.0) * (t + 1.0) / (2.0 * t))
    psi1 = np.where(np.abs(t - 1.0) <= _PSI_EPS, t**3 * hj.d2, psi1)
    return psi1, t * t * hj.d2 - psi1 / t, fpp


def analytic_second_derivative(e: SplitEnergy, F: np.ndarray,
                               xi: np.ndarray, eta: np.ndarray) -> float:
    """Closed-form second derivative of W along the rank-one line xi (x) eta.

    The factors that depend only on (F, xi, eta) are formed in exact
    rational arithmetic from the float inputs: their O(|F|^2) terms cancel
    at extreme stretches, and B = <F^-1 xi, eta> nearly vanishes along a
    stiff volumetric direction.  c_iso's factor is (2JA - |F|^2 JB)^2 over
    J^2 (|F|^4 - 4J^2), 0 at a conformal F.  Only psi', c_iso and f'' from
    ``_curvatures`` at the singular values of F carry rounding.
    """
    pair = svd2(F)
    psi1, c_iso, fpp = map(float, _curvatures(e, pair.lambda1, pair.lambda2))
    (a, b), (c, d) = ((Fraction(v) for v in row) for row in np.asarray(F, dtype=float))
    x0, x1 = (Fraction(v) for v in np.asarray(xi, dtype=float))
    y0, y1 = (Fraction(v) for v in np.asarray(eta, dtype=float))
    J = a * d - b * c
    nf2 = a * a + b * b + c * c + d * d
    A = x0 * (a * y0 + b * y1) + x1 * (c * y0 + d * y1)
    JB = x0 * (d * y0 - c * y1) + x1 * (a * y1 - b * y0)  # J * B
    n2 = (x0 * x0 + x1 * x1) * (y0 * y0 + y1 * y1)
    gap = nf2 * nf2 - 4 * J * J  # (l1^2 - l2^2)^2
    iso = (2 * J * A - nf2 * JB) ** 2 / (J * J * gap) if gap else 0
    dist = (n2 * J * J - 2 * A * JB * J + nf2 * JB * JB) / J**3
    return c_iso * float(iso) + psi1 * float(dist) + fpp * float(JB * JB)


# ---------------------------------------------------------------------------
# sampled search for violations


class BruteForceResult(NamedTuple):
    """Most negative rank-one second derivative found by sampling."""

    violation: bool
    value: float
    F: np.ndarray
    xi: np.ndarray
    eta: np.ndarray

    @property
    def summary(self) -> str:
        return "Violation" if self.violation else "NoViolationFound"


def brute_force_check(
    e: SplitEnergy,
    n_lambda: int = DEFAULT_ORACLE_GRID.n,
    n_refine: int = 1000,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> BruteForceResult:
    """Grid search over diagonal states and rank-one directions, then seeded
    random refinement around the worst point.  Deterministic given the seed.

    W depends on F only through its singular values, so every sample is a
    diagonal F = diag(l1, l2) with l1 >= l2: the n_lambda*(n_lambda + 1)/2
    such pairs of n_lambda log-spaced stretches on the range of
    ``DEFAULT_ORACLE_GRID``, [1e-2, 1e2], with eta on the 48 angles
    k*pi/48.  The refinement draws (log l1, log l2, eta offset) about the
    worst grid state.  ``DegenerateGrid`` is raised unless n_lambda is at
    least 1 and the seed is in [0, SEED_MAX], whether or not n_refine draws
    from it.
    """
    if n_lambda < 1:
        raise DegenerateGrid(f"n_lambda must be at least 1, got {n_lambda}")
    if not 0 <= seed <= SEED_MAX:
        raise DegenerateGrid(f"seed must be in [0, {SEED_MAX}], got {seed}")
    # its own log grid, as scan_domain's: GridSpec.points() rejects the one
    # point per axis both accept, and scan's linear spacing
    lam = np.logspace(*np.log10(DEFAULT_ORACLE_GRID[:2]), n_lambda)
    j, i = np.triu_indices(n_lambda)  # i >= j
    lam1, lam2 = lam[i], lam[j]
    offset = np.zeros(lam1.size)

    vals, xis, etas = direction_min_batch(lam1, lam2, offset,
                                          *_curvatures(e, lam1, lam2), _N_ANGLES)
    k = int(np.argmin(vals))
    winners = [_pack(e, lam1, lam2, xis, etas, k)]

    if n_refine > 0:
        n1, n2, n3 = 0.2 * _normals(seed, n_refine)
        s1 = np.exp(np.log(lam1[k]) + n1)
        s2 = np.exp(np.log(lam2[k]) + n2)
        # diag(s1, s2) with s1 < s2 is diag(s2, s1) with eta turned by pi/2
        swap = s1 < s2
        s1, s2 = np.where(swap, s2, s1), np.where(swap, s1, s2)
        off = n3 + np.where(swap, 0.5 * np.pi, 0.0)
        vals_r, xis_r, etas_r = direction_min_batch(s1, s2, off,
                                                    *_curvatures(e, s1, s2), _N_ANGLES)
        winners.append(_pack(e, s1, s2, xis_r, etas_r, int(np.argmin(vals_r))))

    # the kernel's value can lose its sign where f'' * J^2 dominates, so
    # each stage's winner is judged by its re-checked value
    value, F, xi, eta = min(winners, key=lambda w: w[0])
    return BruteForceResult(value < -tol, value, F, xi, eta)


def _normals(seed: int, n: int) -> np.ndarray:
    """3 x n standard normals, Box-Muller on ``random.Random(seed).random()``,
    the stream Python keeps the same across versions."""
    rng = random.Random(seed)
    pairs = (3 * n + 1) // 2
    u1, u2 = np.array([rng.random() for _ in range(2 * pairs)]).reshape(2, pairs)
    r = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 lies in (0, 1]
    angle = 2.0 * np.pi * u2
    return (r * np.stack([np.cos(angle), np.sin(angle)])).ravel()[:3 * n].reshape(3, n)


def _pack(e: SplitEnergy, lam1, lam2, xis, etas, k) -> tuple:
    """(value, F, xi, eta) of witness k of a kernel batch, F = diag(lam1[k],
    lam2[k]), valued by ``analytic_second_derivative`` at the float witness
    it prints."""
    F = np.diag([lam1[k], lam2[k]])
    xi = np.array([math.cos(xis[k]), math.sin(xis[k])])
    eta = np.array([math.cos(etas[k]), math.sin(etas[k])])
    return analytic_second_derivative(e, F, xi, eta), F, xi, eta
