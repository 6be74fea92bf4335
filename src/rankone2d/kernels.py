"""The direction-search kernel: the smallest rank-one second derivative.

W depends on F only through its singular values, so the kernel works at the
diagonal state F = diag(l1, l2), l1 >= l2 > 0, with J = l1*l2 and t = l1/l2.
Given the distortion slope psi1 = psi'(K), the isochoric curvature
c_iso = psi''(K) * (t - 1/t)^2 / 4 = t^2 h''(t) - psi1/t and the volumetric
curvature fpp = f''(J), it minimizes

    D^2 W(F)[xi (x) eta, xi (x) eta]
        = c_iso * (2*A - |F|^2*B)^2 / (l1^2 - l2^2)^2
          + psi1/J * (1 - 2*A*B + |F|^2*B^2)
          + fpp * J^2 * B^2,      A = xi^T F eta,  B = <F^-1 xi, eta>,

over unit directions xi and eta.  At fixed eta this is a quadratic form
xi^T Q(eta) xi in the 2x2 acoustic tensor Q, so the minimum over xi is the
smaller eigenvalue of Q, attained at its eigenvector.  Only eta is sampled,
on the angles offset + k*pi/n_angles.

With eta = (c, s), u = c/l1 and v = s/l2,

    Q = psi1/J * diag(s^2 + c^2/t^2, c^2 + t^2 s^2)
        + c_iso * p p^T + c_vol * r r^T,   p = (u, -v),  r = (u, v),

with c_vol = fpp * J^2.  Every piece is a weighted square, so no O(|F|^2)
terms cancel.  det Q follows from Cauchy-Binet as a weighted sum of squared
cross products, and the smaller eigenvalue is det/lambda_max when tr Q > 0,
which avoids subtracting two nearly equal numbers.
"""

from __future__ import annotations

import numpy as np

# (sample, angle) pairs per block: bounds the temporaries at any batch size
_BLOCK = 1 << 14


def _pieces(l1, l2, t, psi1, c, s):
    """Diagonal weights and the u, v components of Q at eta = (c, s)."""
    w = psi1 / (l1 * l2)
    return w * (s * s + (c / t) ** 2), w * (c * c + (t * s) ** 2), c / l1, s / l2


def _entries(d0, d1, u, v, c_iso, c_vol):
    """Entries (a, d, b) of Q = [[a, b], [b, d]]."""
    cc = c_iso + c_vol
    return d0 + cc * u * u, d1 + cc * v * v, (c_vol - c_iso) * u * v


def _min_eig(d0, d1, u, v, c_iso, c_vol):
    """Smaller eigenvalue of Q from its sign-definite pieces."""
    a, d, b = _entries(d0, d1, u, v, c_iso, c_vol)
    uv2 = 2.0 * u * v
    det = (d0 * d1 + (c_iso + c_vol) * (d0 * v * v + d1 * u * u)
           + c_iso * c_vol * uv2 * uv2)
    half_tr = 0.5 * (a + d)
    spread = np.hypot(0.5 * (a - d), b)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(half_tr > 0.0, det / (half_tr + spread), half_tr - spread)


def _half_turn(angle):
    """angle mod pi, in [0, pi)."""
    angle = np.mod(angle, np.pi)
    return np.where(angle >= np.pi, 0.0, angle)  # mod rounds -1e-17 up to pi


def direction_min_batch(l1, l2, offset, psi1, c_iso, fpp, n_angles):
    """Minimize over unit xi (exactly) and eta (on n_angles grid angles) at
    the diagonal states diag(l1, l2), l1 >= l2 > 0.

    All but ``n_angles`` are 1-D float arrays of equal length; sample i
    takes eta on the angles offset[i] + k*pi/n_angles.  Returns (min_values,
    xi_angles, eta_angles) as float arrays, the angles in [0, pi) in the
    diagonal frame; each value is the smaller eigenvalue of Q at the
    reported eta, the one the eta angle was ranked by.
    """
    l1, l2, offset, psi1, c_iso, fpp = (
        np.asarray(a, dtype=float) for a in (l1, l2, offset, psi1, c_iso, fpp))
    J = l1 * l2
    t = l1 / l2
    c_vol = fpp * J * J

    n = l1.shape[0]
    step = np.pi / n_angles
    grid = np.arange(n_angles) * step
    best = np.empty(n, dtype=np.intp)
    vals = np.empty(n)
    per_block = max(1, _BLOCK // n_angles)
    for lo in range(0, n, per_block):
        sl = slice(lo, lo + per_block)
        phi = grid + offset[sl, None]
        d0, d1, u, v = _pieces(l1[sl, None], l2[sl, None], t[sl, None],
                               psi1[sl, None], np.cos(phi), np.sin(phi))
        lam = _min_eig(d0, d1, u, v, c_iso[sl, None], c_vol[sl, None])
        best[sl] = np.argmin(lam, axis=1)
        vals[sl] = np.min(lam, axis=1)

    # the minimizing xi is the eigenvector of Q for its smaller eigenvalue
    phi = best * step + offset
    d0, d1, u, v = _pieces(l1, l2, t, psi1, np.cos(phi), np.sin(phi))
    a, d, b = _entries(d0, d1, u, v, c_iso, c_vol)
    theta = 0.5 * np.arctan2(2.0 * b, a - d) + 0.5 * np.pi
    return vals, _half_turn(theta), _half_turn(phi)
