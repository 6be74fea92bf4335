"""Independent brute-force verification on matrices.

Everything here works directly with 2x2 deformation gradients: a closed-form
SVD, the energy of a matrix, second directional derivatives along rank-one
lines (both by finite differences of the energy and by the closed-form
expression through the distortion function), and a sampled search for
violating (F, xi, eta) triples, whose direction kernel minimises the
closed-form acoustic tensor.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple, Tuple

import numpy as np

from .energy import DEFAULT_ORACLE_GRID, DEFAULT_TOL, SingularPair, SplitEnergy, eval_W
from .errors import DegenerateGrid, LeftGLplus, NonPositiveDeterminant
from .expr import eval_jet2, eval_jet2_array, eval_jet2_finite
from .kernels import direction_min_batch

# |t - 1| at or below which _psi_jets takes the limit branch: there its
# O((t - 1)^2) error meets the O(eps/|t - 1|) rounding of the chain rule,
# so psi' and c_iso jump by about 2e-11 * h''(1) across the switch
_PSI_EPS = 3e-6

# the 5-point second difference's step along xi (x) eta, relative to |F|
_FD_STEP = 1e-3

SEED_MAX = 2**32 - 1  # seeds are unsigned 32-bit integers


def svd2(F: np.ndarray) -> Tuple[SingularPair, float, float]:
    """Closed-form SVD of a 2x2 matrix with positive determinant.

    Returns (singular pair with lambda1 >= lambda2 > 0, theta_left,
    theta_right) such that F = R(theta_left) @ diag(lambda1, lambda2)
    @ R(theta_right).  The smaller singular value is det F / lambda1, formed
    without subtracting the two singular values.
    """
    (a, b), (c, d) = np.asarray(F, dtype=float)
    det = a * d - b * c
    if det <= 0.0:
        raise NonPositiveDeterminant(f"det F = {det:.6g} <= 0")
    e_, f_ = 0.5 * (a + d), 0.5 * (a - d)
    g_, h_ = 0.5 * (c + b), 0.5 * (c - b)
    lambda1 = math.hypot(e_, h_) + math.hypot(f_, g_)
    a1, a2 = math.atan2(g_, f_), math.atan2(h_, e_)
    return (SingularPair(lambda1, float(det / lambda1)),
            0.5 * (a2 + a1), 0.5 * (a2 - a1))


def eval_W_matrix(e: SplitEnergy, F: np.ndarray) -> float:
    """Energy value on a 2x2 matrix with positive determinant."""
    pair, _, _ = svd2(F)
    return eval_W(e, pair)


def _psi_jets(e: SplitEnergy, t) -> Tuple[np.ndarray, np.ndarray]:
    """First and second derivative of the distortion representation at K(t).

    Vectorized over ``t``.  The isochoric part h(t) equals psi(K) with
    K = (t + 1/t)/2; the chain rule is inverted through K'(t) and K''(t),
    written with (t - 1)(t + 1) so that no 1 - 1/t^2 is formed near t = 1.
    At |t - 1| <= _PSI_EPS the limit psi' = t^3 h''(t) (exact to second
    order in t - 1), psi'' = 0 is used; psi'' enters the second derivative
    only through psi'' * (t - 1/t)^2 / 4, which is continuous across the
    switch.
    Non-finite jets raise the typed errors of ``eval_jet2_finite``.
    """
    t = np.asarray(t, dtype=float)
    hj = eval_jet2_finite(e.h, t)
    near = np.abs(t - 1.0) <= _PSI_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        half_gap = (t - 1.0) * (t + 1.0) / (2.0 * t)  # (t - 1/t)/2 = t*K'(t)
        psi1 = hj.d1 * t / half_gap
        psi2 = (t * t * hj.d2 - psi1 / t) / half_gap**2
    return np.where(near, t**3 * hj.d2, psi1), np.where(near, 0.0, psi2)


def second_derivative_terms(e: SplitEnergy, F: np.ndarray) -> Tuple[float, float, float]:
    """(psi1, psi2, f'') evaluated at the state of F, for the kernel."""
    F = np.asarray(F, dtype=float)
    pair, _, _ = svd2(F)
    psi1, psi2 = _psi_jets(e, pair.lambda1 / pair.lambda2)
    fpp = eval_jet2(e.f, pair.lambda1 * pair.lambda2).d2
    return float(psi1), float(psi2), fpp


def analytic_second_derivative(e: SplitEnergy, F: np.ndarray,
                               xi: np.ndarray, eta: np.ndarray) -> float:
    """Closed-form second derivative of W along the rank-one line xi (x) eta.

    The factors that depend only on (F, xi, eta) are formed in exact
    rational arithmetic from the float inputs: their O(|F|^2) terms cancel
    at extreme stretches, and B = <F^-1 xi, eta> nearly vanishes along a
    stiff volumetric direction.  Only psi', psi'' and f'' carry rounding.
    """
    psi1, psi2, fpp = second_derivative_terms(e, F)
    (a, b), (c, d) = ((Fraction(v) for v in row) for row in np.asarray(F, dtype=float))
    x0, x1 = (Fraction(v) for v in np.asarray(xi, dtype=float))
    y0, y1 = (Fraction(v) for v in np.asarray(eta, dtype=float))
    J = a * d - b * c
    nf2 = a * a + b * b + c * c + d * d
    A = x0 * (a * y0 + b * y1) + x1 * (c * y0 + d * y1)
    JB = x0 * (d * y0 - c * y1) + x1 * (a * y1 - b * y0)  # J * B
    n2 = (x0 * x0 + x1 * x1) * (y0 * y0 + y1 * y1)
    iso = (J * A - nf2 * JB / 2) ** 2 / J**4
    dist = (n2 * J * J - 2 * A * JB * J + nf2 * JB * JB) / J**3
    return psi2 * float(iso) + psi1 * float(dist) + fpp * float(JB * JB)


def fd_second_derivative(e: SplitEnergy, F: np.ndarray, xi: np.ndarray,
                         eta: np.ndarray) -> float:
    """5-point central second difference of s -> W(F + s * xi (x) eta),
    with step 1e-3 |F|."""
    F = np.asarray(F, dtype=float)
    D = np.outer(np.asarray(xi, dtype=float), np.asarray(eta, dtype=float))
    step = float(np.linalg.norm(F)) * _FD_STEP
    samples = []
    for k in (-2, -1, 0, 1, 2):
        Fk = F + k * step * D
        if np.linalg.det(Fk) <= 0.0:
            raise LeftGLplus(f"F + {k}*step*(xi(x)eta) left GL+(2); shrink step")
        samples.append(eval_W_matrix(e, Fk))
    w_m2, w_m1, w_0, w_p1, w_p2 = samples
    return (-w_m2 + 16.0 * w_m1 - 30.0 * w_0 + 16.0 * w_p1 - w_p2) / (12.0 * step**2)


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


def _kernel_batch(e: SplitEnergy, lam1, lam2, offset, n_angles):
    """The direction kernel at diag(lam1, lam2), lam1 >= lam2, with its jets."""
    psi1, psi2 = _psi_jets(e, lam1 / lam2)
    fpp = eval_jet2_array(e.f, lam1 * lam2).d2
    return direction_min_batch(lam1, lam2, offset, psi1, psi2, fpp, n_angles)


def brute_force_check(
    e: SplitEnergy,
    n_lambda: int = DEFAULT_ORACLE_GRID.n,
    n_angles: int = 48,
    n_refine: int = 1000,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> BruteForceResult:
    """Grid search over diagonal states and rank-one directions, then seeded
    random refinement around the worst point.  Deterministic given the seed.

    W depends on F only through its singular values, so every sample is a
    diagonal F = diag(l1, l2) with l1 >= l2: the n_lambda*(n_lambda + 1)/2
    such pairs of n_lambda log-spaced stretches on the range of
    ``DEFAULT_ORACLE_GRID``, [1e-2, 1e2], with eta on n_angles angles
    k*pi/n_angles.  The refinement draws (log l1, log l2, eta offset) about
    the worst grid state.  ``DegenerateGrid`` is raised unless n_lambda and
    n_angles are at least 1 and the seed is in [0, SEED_MAX], whether or
    not n_refine draws from it.
    """
    for name, size in (("n_lambda", n_lambda), ("n_angles", n_angles)):
        if size < 1:
            raise DegenerateGrid(f"{name} must be at least 1, got {size}")
    if not 0 <= seed <= SEED_MAX:
        raise DegenerateGrid(f"seed must be in [0, {SEED_MAX}], got {seed}")
    # its own log grid, as scan_domain's: GridSpec.points() rejects the one
    # point per axis both accept, and scan's linear spacing
    lam = np.logspace(*np.log10(DEFAULT_ORACLE_GRID[:2]), n_lambda)
    j, i = np.triu_indices(n_lambda)  # i >= j
    lam1, lam2 = lam[i], lam[j]
    offset = np.zeros(lam1.size)

    vals, xis, etas = _kernel_batch(e, lam1, lam2, offset, n_angles)
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
        vals_r, xis_r, etas_r = _kernel_batch(e, s1, s2, off, n_angles)
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
