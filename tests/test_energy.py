import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone2d import energy, errors, expr

positive = st.floats(min_value=1e-2, max_value=1e2)


class TestConstruction:
    def test_symmetric_h_accepted(self):
        e = energy.make_split("(t + 1/t)/2", "z^2")
        assert e.h_jet(2.0).value == pytest.approx(1.25)

    def test_asymmetric_h_rejected(self):
        with pytest.raises(errors.SymmetryViolation):
            energy.make_split("t^2", "z")

    def test_nonzero_slope_at_one_rejected(self):
        # symmetric values on the sampled grid but h'(1) != 0 cannot happen
        # for genuinely symmetric h; a tilted function fails the value test
        with pytest.raises(errors.SymmetryViolation):
            energy.make_split("t - 1", "z")

    def test_coordinates_roundtrip(self):
        p = energy.SingularPair(2.5, 0.3)
        q = energy.from_coordinates(energy.to_coordinates(p))
        assert q.lambda1 == pytest.approx(p.lambda1)
        assert q.lambda2 == pytest.approx(p.lambda2)

    def test_nonpositive_singular_values_rejected(self):
        with pytest.raises(errors.DomainError):
            energy.SingularPair(1.0, 0.0)


class TestEvaluation:
    def test_value_frozen_reference(self):
        # independent closed-form evaluation at t = 4, z = 1
        e = energy.catalog("example1")
        got = energy.eval_W(e, energy.SingularPair(2.0, 0.5))
        assert got == pytest.approx(1.211890098302364, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(a=positive, b=positive)
    def test_swap_symmetry(self, a, b):
        e = energy.catalog("example1")
        w1 = energy.eval_W(e, energy.SingularPair(a, b))
        w2 = energy.eval_W(e, energy.SingularPair(b, a))
        assert w2 == pytest.approx(w1, rel=1e-12, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(a=positive, b=positive, s=st.floats(min_value=0.1, max_value=10.0))
    def test_isochoric_scaling_invariance(self, a, b, s):
        e = energy.catalog("exp_hencky_iso")
        w1 = energy.eval_W(e, energy.SingularPair(a, b))
        w2 = energy.eval_W(e, energy.SingularPair(s * a, s * b))
        assert w2 == pytest.approx(w1, rel=1e-9, abs=1e-12)

    def test_derivative_symmetry_identity(self):
        # h'(t) = -(1/t^2) h'(1/t) and h''(t) = (2/t^3) h'(1/t) + (1/t^4) h''(1/t)
        e = energy.catalog("example2")
        for t in np.logspace(-2, 2, 41):
            jt = e.h_jet(float(t))
            jr = e.h_jet(1.0 / float(t))
            assert jt.d1 == pytest.approx(-jr.d1 / t**2, rel=1e-9, abs=1e-12)
            assert jt.d2 == pytest.approx(2.0 * jr.d1 / t**3 + jr.d2 / t**4,
                                          rel=1e-9, abs=1e-12)

    def test_matrix_evaluation_matches_singular_values(self):
        e = energy.catalog("example1")
        rng = np.random.RandomState(3)
        for _ in range(20):
            F = rng.randn(2, 2)
            if np.linalg.det(F) <= 0.05:
                continue
            sv = np.linalg.svd(F, compute_uv=False)
            direct = energy.eval_W(e, energy.SingularPair(float(sv[0]), float(sv[1])))
            assert energy.eval_W_matrix(e, F) == pytest.approx(direct, rel=1e-10)

    def test_matrix_evaluation_rejects_orientation_reversal(self):
        e = energy.catalog("example1")
        with pytest.raises(errors.NonPositiveDeterminant):
            energy.eval_W_matrix(e, np.diag([1.0, -1.0]))


class TestAsGeneral:
    def test_partials_match_finite_differences(self):
        e = energy.catalog("example2")
        g = energy.as_general(e)
        step = 1e-4

        def w(x, y):
            return g.partials(x, y)[0]

        for x, y in [(1.3, 0.7), (0.4, 2.1), (3.0, 3.0), (0.2, 0.25)]:
            gv, g_x, g_y, g_xx, g_xy, g_yy = [float(v) for v in g.partials(x, y)]
            hx, hy = step * x, step * y
            fd_x = (w(x + hx, y) - w(x - hx, y)) / (2 * hx)
            fd_y = (w(x, y + hy) - w(x, y - hy)) / (2 * hy)
            fd_xx = (w(x + hx, y) - 2 * gv + w(x - hx, y)) / hx**2
            fd_yy = (w(x, y + hy) - 2 * gv + w(x, y - hy)) / hy**2
            fd_xy = (w(x + hx, y + hy) - w(x + hx, y - hy)
                     - w(x - hx, y + hy) + w(x - hx, y - hy)) / (4 * hx * hy)
            assert g_x == pytest.approx(fd_x, rel=1e-6, abs=1e-8)
            assert g_y == pytest.approx(fd_y, rel=1e-6, abs=1e-8)
            assert g_xx == pytest.approx(fd_xx, rel=1e-5, abs=1e-6)
            assert g_yy == pytest.approx(fd_yy, rel=1e-5, abs=1e-6)
            assert g_xy == pytest.approx(fd_xy, rel=1e-5, abs=1e-6)

    def test_g_equals_W(self):
        e = energy.catalog("example1")
        g = energy.as_general(e)
        assert float(g.partials(1.7, 0.6)[0]) == pytest.approx(
            energy.eval_W(e, energy.SingularPair(1.7, 0.6)), rel=1e-12)


class TestCatalog:
    def test_all_entries_build(self):
        for cid in energy.CATALOG:
            e = energy.catalog(cid)
            assert isinstance(e, energy.SplitEnergy)
            assert e.catalog_id == cid

    def test_unknown_id(self):
        with pytest.raises(errors.UnknownCatalogId):
            energy.catalog("unobtainium")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(errors.UnknownCatalogId):
            energy.catalog("example1", mu=2.0)

    def test_parameters_are_applied(self):
        e = energy.catalog("hencky", mu=3.0, kappa=5.0)
        # h''(1) = mu, f''(1) = kappa for the log-strain pair
        assert e.h_jet(1.0).d2 == pytest.approx(3.0, rel=1e-12)
        assert e.f_jet(1.0).d2 == pytest.approx(5.0, rel=1e-12)

    def test_exp_hencky_iso_matches_plain_exponential(self):
        e = energy.catalog("exp_hencky_iso", mu=1.0, k=0.1)
        t = 2.7
        assert e.h_jet(t).value == pytest.approx(
            math.exp(0.1 * math.log(t) ** 2), rel=1e-12)

    def test_parameters_bind_as_literals(self):
        e = energy.catalog("exp_hencky", mu=2.0, k=0.3)
        assert e.h == expr.parse("(2.0/0.3)*exp((0.3/2)*log(t)^2)", "t")
        assert e.f == expr.parse("(1.0/(2*0.25))*exp(0.25*log(z)^2)", "z")
        assert energy.catalog("double_well_vol", scale=-1.5).f == expr.parse(
            "(-1.5)*((z - 1/z)^4 - (z - 1/z)^2)", "z")

    def test_make_split_binds_both_parts(self):
        e = energy.make_split("mu*((t + 1/t)/2 - 1)", "kappa*(z - 1)^2",
                              params={"mu": 0.5, "kappa": 3.0})
        assert e.h == expr.parse("0.5*((t + 1/t)/2 - 1)", "t")
        assert e.f == expr.parse("3.0*(z - 1)^2", "z")

    def test_idealized_shares_shape_function(self):
        e = energy.catalog("idealized", mu=2.0, kappa=6.0)
        ts = np.logspace(-1, 1, 17)
        h = e.h_jet_array(ts).value
        f = e.f_jet_array(ts).value
        # f = (kappa / (2 mu)) * h pointwise
        assert np.allclose(f, 1.5 * h, rtol=1e-10, atol=1e-12)
