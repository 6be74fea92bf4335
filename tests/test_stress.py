import numpy as np
import pytest

from rankone2d import (
    SingularPair,
    SplitEnergy,
    catalog,
    infinitesimal_moduli,
    invertibility_verdict,
    linear_rank_one_check,
    make_split,
    parse,
    principal_cauchy,
)
from rankone2d.errors import DomainError
from rankone2d.stress import stress_jacobian_det
from rankone2d.expr import eval_jet2

from references import eval_W, w_lin


def fd_principal_stresses(e, l1, l2, h=1e-6):
    """Independent FD stresses: sigma_i = (lambda_i / J) dW/dlambda_i."""
    def W(a, b):
        return eval_W(e, SingularPair(a, b))

    J = l1 * l2
    d1 = (W(l1 + h, l2) - W(l1 - h, l2)) / (2 * h)
    d2 = (W(l1, l2 + h) - W(l1, l2 - h)) / (2 * h)
    return l1 / J * d1, l2 / J * d2


class TestPrincipalCauchy:
    def test_frozen_reference_example2(self):
        st = principal_cauchy(catalog("example2"), SingularPair(2.0, 0.5))
        assert st.sigma1 == pytest.approx(38.25, rel=1e-12)
        assert st.sigma2 == pytest.approx(-38.25, rel=1e-12)

    @pytest.mark.parametrize("cid", ["example1", "example2", "hencky"])
    def test_matches_fd_of_energy(self, cid):
        e = catalog(cid)
        rng = np.random.RandomState(41)
        for _ in range(30):
            l1, l2 = np.exp(rng.uniform(-1, 1, 2))
            st = principal_cauchy(e, SingularPair(float(l1), float(l2)))
            s1, s2 = fd_principal_stresses(e, float(l1), float(l2))
            assert st.sigma1 == pytest.approx(s1, rel=1e-6, abs=1e-8)
            assert st.sigma2 == pytest.approx(s2, rel=1e-6, abs=1e-8)

    def test_kirchhoff_split(self):
        # det F * mean stress = z f'(z); deviatoric magnitude = t h'(t)
        e = catalog("example1")
        for l1, l2 in [(1.5, 0.7), (0.4, 0.9), (2.0, 2.0)]:
            st = principal_cauchy(e, SingularPair(l1, l2))
            z = l1 * l2
            t = l1 / l2
            assert z * (st.sigma1 + st.sigma2) / 2 == pytest.approx(st.tau_vol, rel=1e-9, abs=1e-12)
            assert z * (st.sigma1 - st.sigma2) / 2 == pytest.approx(st.tau_iso, rel=1e-9, abs=1e-12)
            assert st.tau_vol == pytest.approx(z * eval_jet2(e.f, z).d1, rel=1e-12)
            assert st.tau_iso == pytest.approx(t * eval_jet2(e.h, t).d1, rel=1e-12)

    def test_natural_state_is_stress_free_for_example2(self):
        st = principal_cauchy(catalog("example2"), SingularPair(1.0, 1.0))
        assert st.sigma1 == pytest.approx(0.0, abs=1e-12)
        assert st.sigma2 == pytest.approx(0.0, abs=1e-12)


class TestJacobianDeterminant:
    def test_frozen_reference_example1(self):
        got = principal_cauchy(catalog("example1"), SingularPair(1.5, 0.8)).det_D_sigma
        assert got == pytest.approx(0.061034199044878175, rel=1e-10)
        # the name perfbench's trace hooks wrap reads the same field
        assert stress_jacobian_det(catalog("example1"), SingularPair(1.5, 0.8)) == got

    @pytest.mark.parametrize("cid", ["example1", "example2", "hadamard_k"])
    def test_matches_fd_jacobian(self, cid):
        e = catalog(cid)
        rng = np.random.RandomState(43)
        h = 1e-5
        for _ in range(30):
            l1, l2 = np.exp(rng.uniform(-0.8, 0.8, 2))

            def sig(a, b):
                st = principal_cauchy(e, SingularPair(a, b))
                return np.array([st.sigma1, st.sigma2])

            Jac = np.column_stack([
                (sig(l1 + h, l2) - sig(l1 - h, l2)) / (2 * h),
                (sig(l1, l2 + h) - sig(l1, l2 - h)) / (2 * h),
            ])
            closed = principal_cauchy(e, SingularPair(float(l1), float(l2))).det_D_sigma
            fd = float(np.linalg.det(Jac))
            assert closed == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_sign_identity(self):
        e = catalog("example2")
        for l1, l2 in [(1.4, 0.6), (0.8, 0.9), (2.5, 1.5)]:
            t, z = l1 / l2, l1 * l2
            hj = eval_jet2(e.h, t)
            fpp = eval_jet2(e.f, z).d2
            iso = t * hj.d2 + hj.d1
            det = principal_cauchy(e, SingularPair(l1, l2)).det_D_sigma
            if fpp != 0.0 and iso != 0.0:
                assert np.sign(det) == np.sign(fpp) * np.sign(iso)


class TestInvertibility:
    def test_uniformly_convex_pair_is_invertible(self):
        e = catalog("hadamard_k", mu=1.0, kappa=2.0)
        rep = invertibility_verdict(e)
        assert rep.verdict == "LocallyInvertible"
        assert rep.witness is None

    def test_double_well_volumetric_degenerate(self):
        e = make_split("0", "(z - 1/z)^4 - (z - 1/z)^2", name="vol-part")
        rep = invertibility_verdict(e)
        assert rep.verdict == "Degenerate"
        assert rep.witness["factor"] == "volumetric"
        assert abs(rep.witness["z"] - 1.0) < 0.1
        assert rep.witness["value"] < 0.0

    def test_flat_isochoric_not_certified(self):
        e = make_split("0", "(z - 1)^2", name="vol-only")
        rep = invertibility_verdict(e)
        assert rep.verdict == "NotCertified"

    def test_undefined_sample_is_a_domain_error(self):
        # f is undefined below z = 1/2; above it f'' dips to -707 at 0.5012
        e = make_split("(t + 1/t)/2", "(z - 1)^2 + (1/1000)*log(z - 1/2)")
        with pytest.raises(DomainError, match=r"^'\(z - 1\)\^2 \+ \(1/1000\)\*"
                                              r"log\(z - 1/2\)' undefined at 0\.001$"):
            invertibility_verdict(e)

    def test_undefined_isochoric_sample_is_a_domain_error(self):
        # |log t| has no derivative at t = 1, a point of the grid; make_split
        # rejects it there, so the record is built directly
        e = SplitEnergy(parse("sqrt(log(t)^2)", "t"), parse("(z - 1)^2", "z"))
        with pytest.raises(DomainError,
                           match=r"^'sqrt\(log\(t\)\^2\)' undefined at 1\.0$"):
            invertibility_verdict(e)


class TestModuli:
    def test_example2_moduli_exact(self):
        m = infinitesimal_moduli(catalog("example2"))
        assert m.mu == pytest.approx(48.0 / 5.0, abs=1e-9)
        assert m.kappa == pytest.approx(-8.0, abs=1e-9)
        assert m.lame_lambda == pytest.approx(-8.0 - 48.0 / 5.0, abs=1e-9)
        assert m.stress_free

    def test_example1_moduli(self):
        m = infinitesimal_moduli(catalog("example1"))
        assert m.mu == pytest.approx(0.2, abs=1e-12)
        assert m.kappa == pytest.approx(2.0 / 15.0, abs=1e-12)

    def test_prestressed_reference_detected(self):
        e = make_split("(t + 1/t)/2", "z^2", name="prestressed")
        assert not infinitesimal_moduli(e).stress_free


class TestLinearCheck:
    def test_known_cases(self):
        assert linear_rank_one_check(1.0, 1.0) == "StrictlyRankOneConvex"
        assert linear_rank_one_check(1.0, -1.0) == "RankOneConvex"
        assert linear_rank_one_check(1.0, -2.0) == "NotRankOneConvex"
        assert linear_rank_one_check(0.0, 1.0) == "RankOneConvex"
        assert linear_rank_one_check(-0.1, 5.0) == "NotRankOneConvex"

    def test_w_lin_sign_agrees_with_region(self):
        rng = np.random.RandomState(47)
        for _ in range(100):
            mu, kappa = rng.uniform(-2, 2, 2)
            worst = min(
                w_lin(mu, kappa, xi, eta)
                for a in np.linspace(0, np.pi, 13)
                for b in np.linspace(0, np.pi, 13)
                for xi in [np.array([np.cos(a), np.sin(a)])]
                for eta in [np.array([np.cos(b), np.sin(b)])]
            )
            verdict = linear_rank_one_check(mu, kappa)
            if verdict == "NotRankOneConvex":
                assert worst < 1e-12
            else:
                assert worst > -1e-12
