import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from rankone2d import energy, errors, expr, oracle

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

    def test_overflowing_h_is_overflow_not_asymmetry(self):
        # h = exp(20 log(t)^2)/40 is +inf at both t and 1/t near the ends
        # of the [1e-3, 1e3] sample grid; inf - inf must not read as a
        # residual
        with pytest.raises(errors.OverflowValue, match="at t = 0.001 in the symmetry"):
            energy.catalog("exp_hencky", k=40.0)
        assert energy.catalog("exp_hencky", k=29.0).h_jet(1e3).value > 0.0

    def test_undefined_h_is_domain_error(self):
        with pytest.raises(errors.DomainError, match="undefined at t = 0.001"):
            energy.make_split("sqrt(t - 1)", "z")

    def test_nonpositive_singular_values_rejected(self):
        with pytest.raises(errors.DomainError):
            energy.SingularPair(1.0, 0.0)

    @pytest.mark.parametrize("pair", [(1e200, 1e-200), (1e-200, 1e200),
                                      (1e200, 1e200), (1e-200, 1e-200)])
    def test_ratio_or_product_outside_the_floats_rejected(self, pair):
        with pytest.raises(errors.DomainError, match=r"\(1e\+?-?200, 1e\+?-?200\)"):
            energy.SingularPair(*pair)


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
            assert oracle.eval_W_matrix(e, F) == pytest.approx(direct, rel=1e-10)

    def test_matrix_evaluation_rejects_orientation_reversal(self):
        e = energy.catalog("example1")
        with pytest.raises(errors.NonPositiveDeterminant):
            oracle.eval_W_matrix(e, np.diag([1.0, -1.0]))


def _g(e, x, y):
    """``g_partials`` at the points (x, y)."""
    return energy.g_partials(e, np.divide(x, y), np.multiply(x, y))


class TestAsGeneral:
    """``g_partials``: W written as the general form g(x, y)."""

    def test_partials_match_finite_differences(self):
        e = energy.catalog("example2")
        step = 1e-4

        def w(x, y):
            return _g(e, x, y)[2]

        for x, y in [(1.3, 0.7), (0.4, 2.1), (3.0, 3.0), (0.2, 0.25)]:
            gv, g_x, g_y, g_xx, g_xy, g_yy = [float(v) for v in _g(e, x, y)[2:]]
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
        x, y, g = _g(e, 1.7, 0.6)[:3]
        assert float(x) == pytest.approx(1.7, rel=1e-15)
        assert float(y) == pytest.approx(0.6, rel=1e-15)
        assert float(g) == pytest.approx(
            energy.eval_W(e, energy.SingularPair(1.7, 0.6)), rel=1e-12)


def _direct_partials(e, t, z):
    """``g_partials`` with one h jet and one f jet per point."""
    t, z = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(z, dtype=float))
    hj = e.h_jet_array(t)
    fj = e.f_jet_array(z)
    x = np.sqrt(t * z)
    y = np.sqrt(z / t)
    return (x, y,
            hj.value + fj.value,
            hj.d1 / y + y * fj.d1,
            -x / y**2 * hj.d1 + x * fj.d1,
            hj.d2 / y**2 + y**2 * fj.d2,
            -hj.d1 / y**2 - x / y**3 * hj.d2 + fj.d1 + x * y * fj.d2,
            2.0 * x / y**3 * hj.d1 + x**2 / y**4 * hj.d2 + x**2 * fj.d2)


def _assert_bit_identical(got, want):
    for a, b in zip(got, want):
        assert np.shape(a) == np.shape(b)
        assert np.array_equal(a, b, equal_nan=True)
        zero = np.asarray(b) == 0.0
        assert np.array_equal(np.signbit(a)[zero], np.signbit(b)[zero])


@st.composite
def broadcastable_arguments(draw):
    """(t, z) as Python floats, 0-d arrays, or arrays that broadcast
    together, drawn from a few positive values so that they repeat."""
    value = st.floats(min_value=1e-300, max_value=1e300)
    kind = draw(st.sampled_from(["float", "0-d", "array", "broadcast"]))
    if kind == "float":
        return draw(value), draw(value)
    if kind == "0-d":
        return np.array(draw(value)), np.array(draw(value))
    shape = draw(array_shapes(min_dims=1, max_dims=2, max_side=7))
    pool = st.sampled_from(draw(st.lists(value, min_size=1, max_size=4)))
    t = draw(arrays(np.float64, shape, elements=pool))
    if kind == "broadcast":  # a column of t against a row of z
        return t.reshape(-1, 1), draw(arrays(np.float64, shape[-1:], elements=pool))
    return t, draw(arrays(np.float64, shape, elements=pool))


class TestPartialsPerDistinctArgument:
    """``g_partials`` evaluates the h jets once per t and the f jets once
    per z, then broadcasts; the partials must equal those of one jet per
    point, bit for bit."""

    @pytest.mark.parametrize("cid", sorted(energy.CATALOG))
    def test_catalog_on_the_default_ks_grid(self, cid):
        e = energy.catalog(cid)
        ts = energy.DEFAULT_T_GRID.points()[::20, np.newaxis]
        zs = energy.DEFAULT_Z_GRID.points()[::5]
        with np.errstate(all="ignore"):
            _assert_bit_identical(energy.g_partials(e, ts, zs),
                                  _direct_partials(e, ts, zs))
            _assert_bit_identical(energy.g_partials(e, 1.0, zs),
                                  _direct_partials(e, 1.0, zs))

    @settings(max_examples=200, deadline=None)
    @given(cid=st.sampled_from(sorted(energy.CATALOG)), tz=broadcastable_arguments())
    def test_arbitrary_positive_arguments(self, cid, tz):
        e = energy.catalog(cid)
        with np.errstate(all="ignore"):
            _assert_bit_identical(energy.g_partials(e, *tz), _direct_partials(e, *tz))


class TestCatalog:
    def test_all_entries_build(self):
        for cid in energy.CATALOG:
            e = energy.catalog(cid)
            assert isinstance(e, energy.SplitEnergy)

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
