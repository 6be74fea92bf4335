import numpy as np
import pytest

from rankone2d import (
    analytic_second_derivative,
    brute_force_check,
    catalog,
    errors,
    fd_second_derivative,
    make_split,
    oracle,
    svd2,
)
from rankone2d.kernels import direction_min_batch

from references import acoustic_tensor, rotation


def random_gl_plus(rng, n=1):
    mats = []
    while len(mats) < n:
        lam = np.exp(rng.uniform(-0.7, 0.7, 2))
        F = rotation(rng.uniform(0, np.pi)) @ np.diag(lam) @ rotation(
            rng.uniform(0, np.pi))
        mats.append(F)
    return mats if n > 1 else mats[0]


class TestSvd2:
    def test_reconstruction(self):
        rng = np.random.RandomState(11)
        for F in random_gl_plus(rng, 50):
            pair, left, right = svd2(F)
            R = rotation(left) @ np.diag([pair.lambda1, pair.lambda2]) @ rotation(right)
            assert np.linalg.norm(R - F) < 1e-12 * np.linalg.norm(F)

    def test_ordering_and_positivity(self):
        rng = np.random.RandomState(12)
        for F in random_gl_plus(rng, 50):
            pair, _, _ = svd2(F)
            assert pair.lambda1 >= pair.lambda2 > 0.0

    def test_matches_lapack(self):
        rng = np.random.RandomState(13)
        for F in random_gl_plus(rng, 20):
            pair, _, _ = svd2(F)
            sv = np.linalg.svd(F, compute_uv=False)
            assert pair.lambda1 == pytest.approx(sv[0], rel=1e-12)
            assert pair.lambda2 == pytest.approx(sv[1], rel=1e-12)

    def test_smaller_singular_value_at_extreme_stretch(self):
        # lambda2 = det F / lambda1; det F of a triangular F is one rounding
        F = np.array([[1e6, 3e5], [0.0, 1e-6]])
        pair, _, _ = svd2(F)
        lambda1 = np.linalg.svd(F, compute_uv=False)[0]
        assert pair.lambda1 == pytest.approx(lambda1, rel=1e-12)
        assert pair.lambda2 == pytest.approx(1e6 * 1e-6 / lambda1, rel=1e-12)

    def test_rejects_nonpositive_determinant(self):
        with pytest.raises(errors.NonPositiveDeterminant):
            svd2(np.diag([1.0, -2.0]))
        with pytest.raises(errors.NonPositiveDeterminant):
            svd2(np.array([[1.0, 2.0], [0.5, 1.0]]))


class TestSecondDerivatives:
    @pytest.mark.parametrize("cid", ["example1", "example2", "hencky", "idealized"])
    def test_analytic_matches_fd(self, cid):
        e = catalog(cid)
        rng = np.random.RandomState(21)
        for _ in range(100):
            F = random_gl_plus(rng)
            xi = rng.randn(2)
            eta = rng.randn(2)
            xi /= np.linalg.norm(xi)
            eta /= np.linalg.norm(eta)
            a = analytic_second_derivative(e, F, xi, eta)
            d = fd_second_derivative(e, F, xi, eta)
            assert a == pytest.approx(d, rel=1e-6, abs=1e-6)

    def test_near_identity_chain_rule_limit(self):
        # t -> 1 degenerates the distortion chain rule; the guarded limit
        # must stay consistent with finite differences
        e = catalog("example1")
        for t in (1.0, 1.0 + 1e-9, 1.0 + 1e-7, 1.0 + 1e-3):
            F = np.diag([np.sqrt(t), 1.0 / np.sqrt(t)])
            xi = np.array([1.0, 0.0])
            eta = np.array([0.6, 0.8])
            a = analytic_second_derivative(e, F, xi, eta)
            d = fd_second_derivative(e, F, xi, eta)
            assert a == pytest.approx(d, rel=1e-5, abs=1e-6)

    def test_rank_one_scaling(self):
        # quadratic in (xi, eta): scaling either vector scales the value
        e = catalog("example2")
        F = np.array([[1.2, 0.3], [-0.1, 0.9]])
        xi = np.array([0.8, -0.6])
        eta = np.array([0.3, 1.1])
        base = analytic_second_derivative(e, F, xi, eta)
        assert analytic_second_derivative(e, F, 2.0 * xi, eta) == pytest.approx(
            4.0 * base, rel=1e-12)

    def test_fd_rejects_stencil_leaving_gl_plus(self):
        # the step is 1e-3 |F|, twice of which exceeds the small stretch
        e = catalog("example1")
        F = np.diag([1.0, 1e-4])
        with pytest.raises(errors.LeftGLplus):
            fd_second_derivative(e, F, np.array([0.0, 1.0]),
                                 np.array([0.0, 1.0]))


class TestAcousticTensor:
    def test_contraction_identity(self):
        e = catalog("example1")
        rng = np.random.RandomState(31)
        for _ in range(10):
            F = random_gl_plus(rng)
            eta = rng.randn(2)
            eta /= np.linalg.norm(eta)
            Q = acoustic_tensor(e, F, eta)
            for _ in range(4):
                xi = rng.randn(2)
                quad = float(xi @ Q.Q @ xi)
                direct = analytic_second_derivative(e, F, xi, eta)
                assert quad == pytest.approx(direct, rel=1e-4, abs=1e-4)

    def test_symmetry(self):
        e = catalog("example2")
        Q = acoustic_tensor(e, np.array([[1.4, 0.2], [0.0, 0.7]]),
                            np.array([0.6, 0.8]))
        assert Q.Q[0, 1] == Q.Q[1, 0]

    def test_min_eigenvalue_sign_for_elliptic_energy(self):
        e = catalog("example1")
        Q = acoustic_tensor(e, np.diag([2.0, 0.4]), np.array([1.0, 0.0]))
        assert Q.min_eigenvalue() > 0.0


def _record_kernel(monkeypatch):
    """The (l1, l2, offset, n_angles) of every direction-kernel call of the
    oracle, appended to the returned list."""
    calls = []

    def recording(l1, l2, offset, psi1, psi2, fpp, n_angles):
        calls.append((l1, l2, offset, n_angles))
        return direction_min_batch(l1, l2, offset, psi1, psi2, fpp, n_angles)

    monkeypatch.setattr(oracle, "direction_min_batch", recording)
    return calls


class TestBruteForce:
    def test_no_violation_for_convex_energies(self):
        for cid in ("example1", "example2", "idealized"):
            res = brute_force_check(catalog(cid), n_lambda=12, n_refine=200)
            assert not res.violation, (cid, res.value)
            assert res.summary == "NoViolationFound"

    def test_violation_found_with_witness(self):
        e = make_split("exp((1/10)*log(t)^2)", "0", name="iso-only")
        res = brute_force_check(e, n_lambda=12, n_refine=200)
        assert res.violation
        assert res.summary == "Violation"
        # witness is genuine: the analytic value at the witness is negative
        check = analytic_second_derivative(e, res.F, res.xi, res.eta)
        assert check == pytest.approx(res.value, rel=1e-9)
        assert check < 0

    def test_witness_value_is_rechecked(self):
        # the kernel's most negative sample here sits at f'' ~ 1e38, where
        # its value has the wrong sign; the reported witness must re-check
        e = make_split("0.35*log(t)^2", "2.6*exp(1.4*log(z)^2)")
        res = brute_force_check(e)
        assert res.violation
        assert analytic_second_derivative(e, res.F, res.xi, res.eta) == res.value
        assert res.value < -1e-8

    def test_deterministic_given_seed(self):
        e = catalog("exp_hencky_iso")
        r1 = brute_force_check(e, n_lambda=10, n_refine=100, seed=5)
        r2 = brute_force_check(e, n_lambda=10, n_refine=100, seed=5)
        assert r1.value == r2.value
        assert np.array_equal(r1.F, r2.F)

    def test_directions_are_unit_vectors(self):
        res = brute_force_check(catalog("example1"), n_lambda=8, n_refine=50)
        assert np.linalg.norm(res.xi) == pytest.approx(1.0)
        assert np.linalg.norm(res.eta) == pytest.approx(1.0)

    @pytest.mark.parametrize("size", ["n_lambda", "n_angles"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_empty_sizes_rejected(self, size, value):
        with pytest.raises(errors.DegenerateGrid, match=f"{size} must be at least 1"):
            brute_force_check(catalog("example1"), n_refine=0, **{size: value})

    @pytest.mark.parametrize("n_refine", [5, 0])
    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_seed_out_of_range_rejected(self, seed, n_refine):
        with pytest.raises(errors.DegenerateGrid,
                           match=r"seed must be in \[0, 4294967295\]") as exc:
            brute_force_check(catalog("example1"), n_lambda=3,
                              n_refine=n_refine, seed=seed)
        assert isinstance(exc.value, ValueError)

    def test_single_sample_grid_runs(self):
        res = brute_force_check(catalog("example1"), n_lambda=1, n_angles=1,
                                n_refine=0)
        assert res.summary == "NoViolationFound"

    @pytest.mark.parametrize("n_lambda", [1, 5, 20])
    def test_grid_stage_is_one_kernel_call_on_the_diagonal_states(
            self, monkeypatch, n_lambda):
        # one call on the n(n + 1)/2 states l1 >= l2 of the log axis, at
        # offset 0, on 48 eta angles by default
        calls = _record_kernel(monkeypatch)
        brute_force_check(catalog("hencky"), n_lambda=n_lambda, n_refine=0)
        assert len(calls) == 1
        l1, l2, offset, n_angles = calls[0]
        assert l1.size == n_lambda * (n_lambda + 1) // 2 and n_angles == 48
        lam = np.logspace(-2, 2, n_lambda)
        assert set(zip(l1, l2)) == {(a, b) for a in lam for b in lam if a >= b}
        assert not offset.any()

    @pytest.mark.parametrize("seed", [0, 3])
    def test_refinement_states_are_ordered(self, monkeypatch, seed):
        # a draw with s1 < s2 enters as diag(s2, s1) with eta turned by
        # pi/2, so every state the kernel sees and the printed witness F
        # have l1 >= l2; example1's worst grid state lies next to l1 = l2,
        # so about half the draws are turned
        calls = _record_kernel(monkeypatch)
        res = brute_force_check(catalog("example1"), n_refine=200, seed=seed)
        assert len(calls) == 2 and calls[1][0].size == 200
        assert all(np.all(l1 >= l2) for l1, l2, _, _ in calls)
        assert 50 < np.sum(calls[1][2] > np.pi / 4) < 150
        assert res.F[0, 1] == res.F[1, 0] == 0.0 and res.F[0, 0] >= res.F[1, 1]

    def test_swapped_draw_is_the_same_state(self):
        # diag(s1, s2) with eta at phi is diag(s2, s1) with eta at phi + pi/2
        e = catalog("hencky")
        s1, s2, phi, theta = 0.3, 2.5, 0.4, 1.1
        a = analytic_second_derivative(
            e, np.diag([s1, s2]), np.array([np.cos(theta), np.sin(theta)]),
            np.array([np.cos(phi), np.sin(phi)]))
        b = analytic_second_derivative(
            e, np.diag([s2, s1]),
            np.array([np.cos(theta + np.pi / 2), np.sin(theta + np.pi / 2)]),
            np.array([np.cos(phi + np.pi / 2), np.sin(phi + np.pi / 2)]))
        assert a == pytest.approx(b, rel=1e-12)
