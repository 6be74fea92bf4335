"""Independent reference for split energies W = h(l1/l2) + f(l1*l2).

Every formula is restated here with sympy and differentiated symbolically;
values come from numpy (grids) or mpmath (extended precision).  Nothing in
this module imports ``rankone2d``, so a fault in the package's expression
language, jets, infimum search or kernels cannot hide in the reference.
"""

from __future__ import annotations

import math
from functools import cached_property

import mpmath
import numpy as np
import sympy as sp

T, Z = sp.symbols("t z", positive=True)
X, Y = sp.symbols("x y", positive=True)
L1, L2 = sp.symbols("lambda1 lambda2", positive=True)

INF_DOMAIN = (1e-6, 1e6)  # documented domain of the h0/f0 infima
_MP_DPS = 100
_MP_STEP = mpmath.mpf("1e-25")  # times max(1, |F|)


def rat(value) -> sp.Rational:
    """Exact rational for a decimal parameter string or number."""
    return sp.Rational(str(value))


def _K(u):
    return (u + 1 / u) / 2


# ---------------------------------------------------------------------------
# the catalog, restated (parameters as exact rationals)


def _example1(p):
    return sp.exp(sp.Rational(1, 10) * sp.log(T) ** 2), (Z - 1 / Z) ** 2 / 60


def _example2(p):
    u = Z - 1 / Z
    return sp.Rational(6, 5) * (T - 1 / T) ** 2, u**4 - u**2


def _k_energy(p):
    return p.get("mu", 1) * (T + 1 / T) / 2, sp.Integer(0)


def _hadamard_k(p):
    return p.get("mu", 1) * (T + 1 / T) / 2, p.get("kappa", 1) * (Z - 1) ** 2 / 2


def _hencky(p):
    return (p.get("mu", 1) * sp.log(T) ** 2 / 2,
            p.get("kappa", 1) * sp.log(Z) ** 2 / 2)


def _exp_hencky(p):
    mu, kappa = p.get("mu", 1), p.get("kappa", 1)
    k, khat = p.get("k", sp.Rational(1, 4)), p.get("khat", sp.Rational(1, 4))
    return (mu / k * sp.exp(k / 2 * sp.log(T) ** 2),
            kappa / (2 * khat) * sp.exp(khat * sp.log(Z) ** 2))


def _exp_hencky_iso(p):
    return p.get("mu", 1) * sp.exp(p.get("k", sp.Rational(1, 10)) * sp.log(T) ** 2), sp.Integer(0)


def _exp_hencky_coupled(p):
    h, _ = _exp_hencky_iso(p)
    return h, (Z - 1 / Z) ** 2 / 1000


def _idealized(p):
    return (p.get("mu", 1) * (_K(T) - 1),
            p.get("kappa", 1) / 2 * (_K(Z) - 1))


def _double_well_vol(p):
    u = Z - 1 / Z
    return sp.Integer(0), p.get("scale", 1) * (u**4 - u**2)


CATALOG = {
    "example1": _example1,
    "example2": _example2,
    "k_energy": _k_energy,
    "hadamard_k": _hadamard_k,
    "hencky": _hencky,
    "exp_hencky": _exp_hencky,
    "exp_hencky_iso": _exp_hencky_iso,
    "exp_hencky_coupled": _exp_hencky_coupled,
    "idealized": _idealized,
    "double_well_vol": _double_well_vol,
}


def from_catalog(catalog_id: str, params: dict) -> "RefEnergy":
    exact = {k: rat(v) for k, v in params.items()}
    h, f = CATALOG[catalog_id](exact)
    return RefEnergy(h, f)


def from_sources(h_src: str, f_src: str, params: dict) -> "RefEnergy":
    """Energy-file sources read with sympy, parameters bound as symbols."""
    names = {"t": T, "z": Z, "exp": sp.exp, "log": sp.log, "sqrt": sp.sqrt}
    names.update({k: rat(v) for k, v in params.items()})

    def read(src):
        return sp.sympify(src.replace("^", "**"), locals=names)

    return RefEnergy(read(h_src), read(f_src))


# ---------------------------------------------------------------------------


def _lambdify_np(args, expr):
    fn = sp.lambdify(args, expr, "numpy")

    def call(*xs):
        with np.errstate(all="ignore"):
            out = fn(*xs)
        return np.broadcast_to(np.asarray(out, dtype=float),
                               np.broadcast(*xs).shape)

    return call


class RefEnergy:
    """Symbolic split energy with the derived quantities the checks need."""

    def __init__(self, h: sp.Expr, f: sp.Expr):
        self.h = sp.sympify(h)
        self.f = sp.sympify(f)
        self._memo = {}

    def _once(self, key, compute):
        """Symbolic work is done once per energy, not once per round."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def part(self, which: str):
        return (self.h, T) if which == "h" else (self.f, Z)

    # -- moduli ------------------------------------------------------------------

    def moduli(self):
        """(mu, kappa) = (h''(1), f''(1)) as exact sympy numbers."""
        return self._once("moduli", lambda: (
            sp.simplify(sp.diff(self.h, T, 2).subs(T, 1)),
            sp.simplify(sp.diff(self.f, Z, 2).subs(Z, 1))))

    # -- infima of x^2 u''(x) ------------------------------------------------

    def weighted_second(self, which: str):
        u, var = self.part(which)
        return self._once(("w", which), lambda: _lambdify_np(
            (var,), var**2 * sp.diff(u, var, 2)))

    def unbounded(self, which: str) -> bool:
        """True iff x^2 u''(x) tends to -inf at 0+ or at +inf."""
        u, var = self.part(which)

        def compute():
            w = var**2 * sp.diff(u, var, 2)
            return any(sp.limit(w, var, end, d) == -sp.oo
                       for end, d in ((0, "+"), (sp.oo, "-")))

        return self._once(("unbounded", which), compute)

    def infimum(self, which: str, domain=INF_DOMAIN):
        """(value, argmin) of x^2 u''(x) on the domain by nested log grids."""
        return self._once(("inf", which, domain),
                          lambda: self._infimum(which, domain))

    def _infimum(self, which, domain):
        w = self.weighted_second(which)
        lo, hi = math.log(domain[0]), math.log(domain[1])
        s = np.linspace(lo, hi, 24001)
        vals = w(np.exp(s))
        i = int(np.nanargmin(vals))
        for _ in range(4):
            if i in (0, s.size - 1):
                break
            s = np.linspace(s[i - 1], s[i + 1], 2001)
            vals = w(np.exp(s))
            i = int(np.nanargmin(vals))
        return float(vals[i]), float(math.exp(s[i]))

    # -- W on matrices, in extended precision --------------------------------

    @cached_property
    def _parts_mp(self):
        return (sp.lambdify((T,), self.h, "mpmath"),
                sp.lambdify((Z,), self.f, "mpmath"))

    def W_mp(self, F):
        """W(F) for a 2x2 mpmath matrix with det F > 0."""
        h, f = self._parts_mp
        a, b, c, d = F[0, 0], F[0, 1], F[1, 0], F[1, 1]
        J = a * d - b * c
        if J <= 0:
            raise ValueError("det F <= 0")
        K = (a * a + b * b + c * c + d * d) / (2 * J)
        t = K + mpmath.sqrt(max(K * K - 1, 0))
        return h(t) + f(J)

    def second_difference(self, F, xi, eta) -> float:
        """d^2/ds^2 W(F + s xi (x) eta) at s = 0 by a central difference at
        100 digits.  The step is 1e-25 |F|: truncation is O(step^2) and the
        rounding error, W * 1e-100 / step^2, stays negligible even where
        W reaches 1e16 (exp-type energies at z = 1e4)."""
        with mpmath.workdps(_MP_DPS):
            Fm = mpmath.matrix([[mpmath.mpf(v) for v in row] for row in F])
            D = mpmath.matrix([[mpmath.mpf(xi[i]) * mpmath.mpf(eta[j])
                                for j in range(2)] for i in range(2)])
            s = _MP_STEP * max(1, mpmath.mnorm(Fm, "f"))
            w_p = self.W_mp(Fm + s * D)
            w_0 = self.W_mp(Fm)
            w_m = self.W_mp(Fm - s * D)
            return float((w_p - 2 * w_0 + w_m) / (s * s))

    # -- Knowles-Sternberg conditions on g(x, y) = h(x/y) + f(x*y) -------------

    @cached_property
    def _g_partials(self):
        g = self.h.subs(T, X / Y) + self.f.subs(Z, X * Y)
        exprs = [sp.diff(g, X), sp.diff(g, Y), sp.diff(g, X, 2),
                 sp.diff(g, X, Y), sp.diff(g, Y, 2)]
        return [_lambdify_np((X, Y), e) for e in exprs]

    def ks_margin(self, x, y):
        """Smallest normalized Knowles-Sternberg margin at (x, y) = (l1, l2).

        Each condition's margin is divided by the sum of the magnitudes of
        its ingredients, so a value of -0.01 means the condition fails by
        1% of its own size.  Negative iff W is not elliptic at diag(x, y).
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        gx, gy, gxx, gxy, gyy = (p(x, y) for p in self._g_partials)
        tiny = 1e-300
        with np.errstate(all="ignore"):
            m = [np.minimum(gxx, gyy) / (np.abs(gxx) + np.abs(gyy) + tiny)]
            root = np.sqrt(np.maximum(gxx * gyy, 0.0))
            diag = x == y
            m_diag = np.minimum(gxx - gxy + gx / x, gyy - gxy + gy / y) / (
                np.abs(gxx) + np.abs(gyy) + np.abs(gxy)
                + (np.abs(gx) + np.abs(gy)) / x + tiny)
            dxy = np.where(diag, 1.0, x - y)
            m_ii = (x * gx - y * gy) / dxy / (
                (np.abs(x * gx) + np.abs(y * gy)) / np.abs(dxy) + tiny)
            m_iv = (root + gxy + (gx - gy) / dxy) / (
                root + np.abs(gxy) + (np.abs(gx) + np.abs(gy)) / np.abs(dxy) + tiny)
            m_v = (root - gxy + (gx + gy) / (x + y)) / (
                root + np.abs(gxy) + (np.abs(gx) + np.abs(gy)) / (x + y) + tiny)
            m.append(np.where(diag, m_diag, np.minimum(m_ii, m_iv)))
            m.append(m_v)
        return np.minimum.reduce(m)

    def grid_min(self, x, y, n_angles: int):
        """Smallest rank-one second derivative at F = diag(x, y) over unit
        xi = (cos p, sin p), eta = (cos q, sin q) with p, q on the uniform
        grid k*pi/n_angles, and the magnitude scale of its terms.

        Uses the classical Hessian of an isotropic W at a diagonal F:
        D2W[H, H] = g_xx H11^2 + 2 g_xy H11 H22 + g_yy H22^2
                    + c1 (H12^2 + H21^2) + 2 c2 H12 H21,
        c1 = (x g_x - y g_y)/(x^2 - y^2), c2 = (y g_x - x g_y)/(x^2 - y^2),
        with their limits on the diagonal.  For H = xi (x) eta,
        H12 H21 = H11 H22.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        gx, gy, gxx, gxy, gyy = (p(x, y) for p in self._g_partials)
        diag = x == y
        with np.errstate(all="ignore"):
            den = np.where(diag, 1.0, x * x - y * y)
            c1 = np.where(diag, (gxx - gxy + gx / x) / 2, (x * gx - y * gy) / den)
            c2 = np.where(diag, (gxx - gxy - gx / x) / 2, (y * gx - x * gy) / den)
        ang = np.arange(n_angles) * (np.pi / n_angles)
        p, q = (a.ravel() for a in np.meshgrid(ang, ang, indexing="ij"))
        h11, h22 = np.cos(p) * np.cos(q), np.sin(p) * np.sin(q)
        h12, h21 = np.cos(p) * np.sin(q), np.sin(p) * np.cos(q)
        basis = np.stack([h11**2, h22**2, 2 * h11 * h22, h12**2 + h21**2])
        coef = np.stack([gxx, gyy, gxy + c2, c1], axis=-1).reshape(-1, 4)
        out = np.empty(coef.shape[0])
        for s in range(0, coef.shape[0], 1024):
            out[s:s + 1024] = (coef[s:s + 1024] @ basis).min(axis=1)
        scale = (np.abs(gxx) + np.abs(gyy) + 2 * np.abs(gxy + c2)
                 + 2 * np.abs(c1)).ravel()
        return out.reshape(x.shape), scale.reshape(x.shape)

    # -- stresses ----------------------------------------------------------------

    @cached_property
    def _stress(self):
        W = self.h.subs(T, L1 / L2) + self.f.subs(Z, L1 * L2)
        s1 = L1 * sp.diff(W, L1) / (L1 * L2)
        s2 = L2 * sp.diff(W, L2) / (L1 * L2)
        det = sp.diff(s1, L1) * sp.diff(s2, L2) - sp.diff(s1, L2) * sp.diff(s2, L1)
        return [sp.lambdify((L1, L2), e, "mpmath") for e in (s1, s2, det)]

    def cauchy(self, l1: float, l2: float):
        """(sigma1, sigma2, det d(sigma1, sigma2)/d(l1, l2)) at (l1, l2)."""
        with mpmath.workdps(30):
            return tuple(float(fn(mpmath.mpf(l1), mpmath.mpf(l2)))
                         for fn in self._stress)

    def min_on_grid(self, which: str, order: str, grid: np.ndarray):
        """Smallest f''(z) (order 'f2') or t h''(t) + h'(t) (order 'iso')."""
        u, var = self.part(which)
        fn = self._once(("grid", which, order), lambda: _lambdify_np(
            (var,), sp.diff(u, var, 2) if order == "f2"
            else var * sp.diff(u, var, 2) + sp.diff(u, var)))
        vals = fn(grid)
        k = int(np.argmin(vals))
        return float(vals[k]), float(grid[k])


# ---------------------------------------------------------------------------
# closed forms the reference must reproduce before it judges the program


def self_check() -> list:
    """Return a list of failures (empty when the reference is sound)."""
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    f0, z0 = from_catalog("example1", {}).infimum("f")
    expect(abs(f0 - math.sqrt(3) / 15) < 1e-12, f"example1 f0 = {f0!r}")
    expect(abs(z0 - 3**0.25) < 1e-6, f"example1 f0 attained at {z0!r}")

    e = from_catalog("exp_hencky", {"k": "0.25", "khat": "0.25"})
    h0, t0 = e.infimum("h")
    expect(abs(h0) < 1e-12, f"exp_hencky(k=1/4) h0 = {h0!r}")
    expect(abs(t0 - math.e**2) < 1e-5 * math.e**2, f"exp_hencky h0 at {t0!r}")

    mu, kappa = from_catalog("example2", {}).moduli()
    expect(mu == sp.Rational(48, 5), f"example2 mu = {mu}")
    expect(kappa == -8, f"example2 kappa = {kappa}")

    expect(from_catalog("hencky", {}).unbounded("h"), "hencky h0 bounded")
    expect(not from_catalog("example1", {}).unbounded("h"), "example1 h0 unbounded")
    return failures
