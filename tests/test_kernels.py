import numpy as np
import pytest

from rankone2d import (analytic_second_derivative, brute_force_check, catalog,
                       g_partials, make_split, scan_domain)
from rankone2d.energy import CATALOG
from rankone2d.kernels import direction_min_batch
from rankone2d.expr import eval_jet2
from rankone2d.oracle import _PSI_EPS, _psi_jets, second_derivative_terms


def _state_batch(e, n, seed, spread=2.0):
    """Diagonal states F = diag(l1, l2), l1 >= l2 in e^+-spread, and their
    eta offsets in [0, pi)."""
    rng = np.random.RandomState(seed)
    lam = np.exp(rng.uniform(-spread, spread, (2, n)))
    lam1, lam2 = lam.max(axis=0), lam.min(axis=0)
    offset = rng.uniform(0.0, np.pi, n)
    mats = [np.diag([l1, l2]) for l1, l2 in zip(lam1, lam2)]
    terms = np.array([second_derivative_terms(e, F) for F in mats])
    return mats, (lam1, lam2, offset, *terms.T)


def make_batch(n=64, seed=0):
    """Diagonal states of example2 in e^+-1.5, as kernel arguments."""
    return _state_batch(catalog("example2"), n, seed, spread=1.5)[1]


class TestKernelContract:
    def test_min_is_attained_at_reported_angles(self):
        batch = make_batch(16, seed=3)
        vals, xis, etas = direction_min_batch(*batch, 16)
        lam1, lam2, _, psi1, psi2, fpp = batch
        for i in range(16):
            F = np.diag([lam1[i], lam2[i]])
            xi = np.array([np.cos(xis[i]), np.sin(xis[i])])
            eta = np.array([np.cos(etas[i]), np.sin(etas[i])])
            J = np.linalg.det(F)
            A = xi @ F @ eta
            Finv = np.linalg.inv(F)
            B = (Finv @ xi) @ eta
            nf2 = np.sum(F * F)
            val = (psi2[i] / J**2 * (A - 0.5 * nf2 * B) ** 2
                   + psi1[i] / J * (1 - 2 * A * B + nf2 * B * B)
                   + fpp[i] * J**2 * B * B)
            assert vals[i] == pytest.approx(val, rel=1e-10, abs=1e-12)

    def test_finer_grid_is_no_worse(self):
        batch = make_batch(8, seed=4)
        coarse, _, _ = direction_min_batch(*batch, 12)
        fine, _, _ = direction_min_batch(*batch, 48)
        assert np.all(fine <= coarse + 1e-12)

    @pytest.mark.parametrize("n_angles", [48, 480, 4800])
    def test_value_keeps_its_sign_under_stiff_volumetric_part(self, n_angles):
        # c_vol = f'' J^2 is about 2e38 here, so a quadratic form taken at
        # the rounded eigenvector would be rounding noise of order 1e10
        e = make_split("0.35*log(t)^2", "2.6*exp(1.4*log(z)^2)")
        F = np.diag([0.1559, 0.00316])
        terms = second_derivative_terms(e, F)
        vals, _, _ = direction_min_batch(
            [F[0, 0]], [F[1, 1]], [0.0], *([v] for v in terms), n_angles)
        assert -96.5 < vals[0] < -96.3

    def test_angles_lie_in_half_circle(self):
        batch = make_batch(8, seed=5)
        _, xis, etas = direction_min_batch(*batch, 24)
        assert np.all((0 <= xis) & (xis < np.pi))
        assert np.all((0 <= etas) & (etas < np.pi))

    def test_eta_lies_on_the_offset_lattice(self):
        # eta = offset + k*pi/n_angles, taken mod pi
        batch = make_batch(8, seed=6)
        _, _, etas = direction_min_batch(*batch, 24)
        k = (etas - batch[2]) / (np.pi / 24)
        assert np.allclose(k, np.round(k), atol=1e-9)

    def test_offset_by_the_lattice_step_changes_nothing(self):
        # offsets of j*pi/n_angles sample the same eta, from another first k
        lam1, lam2, offset, *jets = make_batch(8, seed=7)
        vals, xis, etas = direction_min_batch(lam1, lam2, offset, *jets, 24)
        turned = offset + 5 * np.pi / 24
        vals5, xis5, etas5 = direction_min_batch(lam1, lam2, turned, *jets, 24)
        assert np.allclose(vals5, vals, rtol=1e-12, atol=1e-15)
        assert np.allclose(np.cos(2 * (etas5 - etas)), 1.0, atol=1e-12)


def _grid_min(F, psi1, psi2, fpp, n_angles, offset=0.0):
    """Smallest second derivative over a uniform xi x eta angle grid, eta
    turned by ``offset``."""
    ang = np.arange(n_angles) * (np.pi / n_angles)
    xi = np.stack([np.cos(ang), np.sin(ang)])
    eta = np.stack([np.cos(ang + offset), np.sin(ang + offset)])
    A = xi.T @ F @ eta                   # rows: xi angle, cols: eta angle
    B = xi.T @ np.linalg.inv(F).T @ eta  # <F^-1 xi, eta>
    J = np.linalg.det(F)
    nf2 = np.sum(F * F)
    vals = (psi2 / J**2 * (A - 0.5 * nf2 * B) ** 2
            + psi1 / J * (1.0 - 2.0 * A * B + nf2 * B * B) + fpp * J**2 * B * B)
    return vals.min()


def _ks_margin(e, x, y):
    """Smallest Knowles-Sternberg margin at diag(x, y), each condition
    normalized by the size of its ingredients; negative iff not elliptic."""
    with np.errstate(all="ignore"):
        x, y, _, gx, gy, gxx, gxy, gyy = g_partials(e, x / y, x * y)
        root = np.sqrt(np.maximum(gxx * gyy, 0.0))
        diag = x == y
        dxy = np.where(diag, 1.0, x - y)
        m_i = np.minimum(gxx, gyy) / (np.abs(gxx) + np.abs(gyy))
        m_ii = (x * gx - y * gy) / (np.abs(x * gx) + np.abs(y * gy))
        m_iii = np.minimum(gxx - gxy + gx / x, gyy - gxy + gy / y) / (
            np.abs(gxx) + np.abs(gyy) + np.abs(gxy) + (np.abs(gx) + np.abs(gy)) / x)
        m_iv = (root + gxy + (gx - gy) / dxy) / (
            root + np.abs(gxy) + (np.abs(gx) + np.abs(gy)) / np.abs(dxy))
        m_v = (root - gxy + (gx + gy) / (x + y)) / (
            root + np.abs(gxy) + (np.abs(gx) + np.abs(gy)) / (x + y))
    off_diag = np.minimum(np.sign(x - y) * m_ii, m_iv)
    return np.minimum.reduce([m_i, np.where(diag, m_iii, off_diag), m_v])


class TestAcousticKernel:
    @pytest.mark.parametrize("cid", sorted(CATALOG))
    def test_below_grid_and_exact_at_reported_angles(self, cid):
        e = catalog(cid)
        mats, batch = _state_batch(e, 12, seed=sorted(CATALOG).index(cid))
        vals, xis, etas = direction_min_batch(*batch, 48)
        offset, psi1, psi2, fpp = batch[2:]
        for i, F in enumerate(mats):
            grid = _grid_min(F, psi1[i], psi2[i], fpp[i], 48, offset[i])
            assert vals[i] <= grid + 1e-10 * (1.0 + abs(grid))
            xi = np.array([np.cos(xis[i]), np.sin(xis[i])])
            eta = np.array([np.cos(etas[i]), np.sin(etas[i])])
            exact = analytic_second_derivative(e, F, xi, eta)
            assert vals[i] == pytest.approx(exact, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("cid", ["example1", "example2", "k_energy",
                                     "hadamard_k", "idealized", "exp_hencky"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_no_false_violation_at_extreme_stretches(self, cid, seed):
        res = brute_force_check(catalog(cid), seed=seed)
        assert res.summary == "NoViolationFound"

    def test_hencky_map_has_no_elliptic_cell_failing_ks(self):
        # the violating directions sit within about a degree of an axis
        # here, narrower than a 48-angle eta grid resolves; the split
        # conditions need no directions
        e = catalog("hencky", mu=1.280, kappa=1.558)
        emap = scan_domain(e, n_points=128)
        x, y = np.meshgrid(emap.lambda1, emap.lambda2, indexing="ij")
        ks = _ks_margin(e, x, y)
        elliptic = emap.verdicts == "Elliptic"
        assert not (elliptic & (ks < -1e-3)).any()

    @pytest.mark.parametrize("cid", sorted(CATALOG))
    def test_isochoric_weight_continuous_at_switch(self, cid):
        e = catalog(cid)
        side = _PSI_EPS * (1.0 + np.array([-1e-6, 1e-6]))  # limit, chain rule
        t = np.concatenate([1.0 + side, 1.0 - side])
        psi1, psi2 = _psi_jets(e, t)
        c_iso = 0.25 * psi2 * (t - 1.0 / t) ** 2
        scale = abs(eval_jet2(e.h, 1.0).d2)
        assert np.all(np.abs(c_iso) <= 1e-10 * scale)
        assert np.all(np.abs(psi1[[1, 3]] - psi1[[0, 2]]) <= 1e-10 * scale)
