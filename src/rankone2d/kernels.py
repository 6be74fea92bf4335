"""The direction-search kernel: the smallest rank-one second derivative.

For a batch of 2x2 matrices F with det F = J > 0, precomputed distortion
jets psi1 = psi'(K), psi2 = psi''(K) and volumetric curvature fpp = f''(J),
minimize

    D^2 W(F)[xi (x) eta, xi (x) eta]
        = psi2/J^2 * (A - 0.5*|F|^2*B)^2
          + psi1/J * (1 - 2*A*B + |F|^2*B^2)
          + fpp * J^2 * B^2,      A = xi^T F eta,  B = <F^-1 xi, eta>,

over unit directions xi and eta.  At fixed eta this is a quadratic form
xi^T Q(eta) xi in the 2x2 acoustic tensor Q, so the minimum over xi is the
smaller eigenvalue of Q, attained at its eigenvector.  Only eta is sampled,
on the angles k*pi/n_angles of F's own frame.

Q is assembled at the diagonal state.  With F = R(alpha) diag(l1, l2)
R(beta), t = l1/l2, eta' = R(beta) eta = (c, s), u = c/l1 and v = s/l2,

    Q' = psi1/J * diag(s^2 + c^2/t^2, c^2 + t^2 s^2)
         + c_iso * p p^T + c_vol * r r^T,   p = (u, -v),  r = (u, v),

with c_iso = psi2 * (t - 1/t)^2 / 4 and c_vol = fpp * J^2.  Every piece is
a weighted square, so no O(|F|^2) terms cancel.  det Q' follows from
Cauchy-Binet as a weighted sum of squared cross products, and the smaller
eigenvalue is det/lambda_max when tr Q' > 0, which avoids subtracting two
nearly equal numbers.
"""

from __future__ import annotations

import numpy as np

# (sample, angle) pairs per block: bounds the temporaries at any batch size
_BLOCK = 1 << 14


def _svd2(f00, f01, f10, f11):
    """Vectorized closed-form SVD, F = R(alpha) @ diag(l1, l2) @ R(beta).

    Returns (l1, l2, alpha, beta, t - 1/t) with l1 >= l2 > 0 for det F > 0.
    The smaller singular value and t - 1/t = (l1^2 - l2^2)/J are formed
    without subtracting the two singular values.
    """
    J = f00 * f11 - f01 * f10
    e_, f_ = 0.5 * (f00 + f11), 0.5 * (f00 - f11)
    g_, h_ = 0.5 * (f10 + f01), 0.5 * (f10 - f01)
    q = np.hypot(e_, h_)
    r = np.hypot(f_, g_)
    l1 = q + r
    a1 = np.arctan2(g_, f_)
    a2 = np.arctan2(h_, e_)
    return l1, J / l1, 0.5 * (a2 + a1), 0.5 * (a2 - a1), 4.0 * q * r / J


def _pieces(l1, l2, t, psi1, c, s):
    """Diagonal weights and the u, v components of Q' at eta' = (c, s)."""
    w = psi1 / (l1 * l2)
    return w * (s * s + (c / t) ** 2), w * (c * c + (t * s) ** 2), c / l1, s / l2


def _entries(d0, d1, u, v, c_iso, c_vol):
    """Entries (a, d, b) of Q' = [[a, b], [b, d]]."""
    cc = c_iso + c_vol
    return d0 + cc * u * u, d1 + cc * v * v, (c_vol - c_iso) * u * v


def _min_eig(d0, d1, u, v, c_iso, c_vol):
    """Smaller eigenvalue of Q' from its sign-definite pieces."""
    a, d, b = _entries(d0, d1, u, v, c_iso, c_vol)
    uv2 = 2.0 * u * v
    det = (d0 * d1 + (c_iso + c_vol) * (d0 * v * v + d1 * u * u)
           + c_iso * c_vol * uv2 * uv2)
    half_tr = 0.5 * (a + d)
    spread = np.hypot(0.5 * (a - d), b)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(half_tr > 0.0, det / (half_tr + spread), half_tr - spread)


def direction_min_batch(f00, f01, f10, f11, psi1, psi2, fpp, n_angles):
    """Minimize over unit xi (exactly) and eta (on n_angles grid angles).

    All matrix/jet arguments are 1-D float arrays of equal length.  Returns
    (min_values, xi_angles, eta_angles) as float arrays; the angles lie in
    [0, pi), eta's on the grid k*pi/n_angles, and each value is the smaller
    eigenvalue of Q at the reported eta, the one the eta angle was ranked by.
    """
    f00, f01, f10, f11, psi1, psi2, fpp = (
        np.asarray(a, dtype=float) for a in (f00, f01, f10, f11, psi1, psi2, fpp))
    l1, l2, alpha, beta, t_gap = _svd2(f00, f01, f10, f11)
    t = l1 / l2
    c_iso = 0.25 * psi2 * t_gap * t_gap
    c_vol = fpp * (l1 * l2) ** 2

    n = f00.shape[0]
    step = np.pi / n_angles
    grid = np.arange(n_angles) * step
    best = np.empty(n, dtype=np.intp)
    vals = np.empty(n)
    per_block = max(1, _BLOCK // n_angles)
    for lo in range(0, n, per_block):
        sl = slice(lo, lo + per_block)
        phi = grid + beta[sl, None]
        d0, d1, u, v = _pieces(l1[sl, None], l2[sl, None], t[sl, None],
                               psi1[sl, None], np.cos(phi), np.sin(phi))
        lam = _min_eig(d0, d1, u, v, c_iso[sl, None], c_vol[sl, None])
        best[sl] = np.argmin(lam, axis=1)
        vals[sl] = np.min(lam, axis=1)

    # the minimizing xi' is the eigenvector of Q' for its smaller eigenvalue
    phi = best * step + beta
    d0, d1, u, v = _pieces(l1, l2, t, psi1, np.cos(phi), np.sin(phi))
    a, d, b = _entries(d0, d1, u, v, c_iso, c_vol)
    theta = 0.5 * np.arctan2(2.0 * b, a - d) + 0.5 * np.pi
    # back to F's frame: xi = R(alpha) xi', eta = R(-beta) eta'
    xis = np.mod(theta + alpha, np.pi)
    xis = np.where(xis >= np.pi, 0.0, xis)  # mod rounds -1e-17 up to pi
    return vals, xis, best * step
