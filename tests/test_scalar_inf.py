import math

import numpy as np
import pytest

from rankone2d import catalog, errors, expr, scalar_inf
from rankone2d.energy import INFIMUM_GRID


def infimum(source, var, **kw):
    return scalar_inf.infimum_weighted_second(expr.parse(source, var), **kw)


class TestKnownInfima:
    def test_example1_volumetric_closed_form(self):
        # z^2 f''(z) = (1/30)(z^2 + 3/z^2), minimum sqrt(3)/15 at z = 3^(1/4)
        r = infimum("(1/60)*(z - 1/z)^2", "z")
        assert r.value == pytest.approx(math.sqrt(3.0) / 15.0, abs=1e-10)
        assert r.attained_at == pytest.approx(3.0**0.25, rel=1e-6)

    def test_example1_isochoric_frozen_reference(self):
        # independent dense minimization of 0.2 e^{u^2/10} (1 - u + u^2/5)
        r = infimum("exp((1/10)*log(t)^2)", "t")
        assert r.value == pytest.approx(-0.10167719011060454, abs=1e-9)
        assert r.attained_at == pytest.approx(16.83398904461509, rel=1e-4)

    def test_example2_isochoric_closed_form(self):
        # t^2 h'' = (12/5)(t^2 + 3/t^2), minimum 24 sqrt(3)/5 at t = 3^(1/4)
        r = infimum("(6/5)*(t - 1/t)^2", "t")
        assert r.value == pytest.approx(24.0 * math.sqrt(3.0) / 5.0, abs=1e-8)

    def test_example2_volumetric_interior_minimum(self):
        # z^2 f'' = 20/z^4 - 30/z^2 - 10 z^2 + 12 z^4 takes the value -8 at
        # z = 1 but is not stationary there (derivative 8); the infimum sits
        # slightly below, independently verified on a dense grid
        r = infimum("(z - 1/z)^4 - (z - 1/z)^2", "z")
        assert r.value == pytest.approx(-8.090151482887336, abs=1e-8)
        assert r.attained_at == pytest.approx(0.9778145, rel=1e-5)

    def test_large_interior_minimum_is_refined(self):
        # the same well scaled by 1e12: no size of a minimum reads as divergence
        r = infimum("1e12*((z - 1/z)^4 - (z - 1/z)^2)", "z")
        assert r.value == pytest.approx(-8.090151482887336e12, rel=1e-10)
        assert r.attained_at == pytest.approx(0.9778145, rel=1e-5)

    def test_quadratic_volumetric_boundary_marker(self):
        # z^2 * 2 -> infimum 0 in the limit z -> 0+
        r = infimum("(z - 1)^2", "z")
        assert r.attained_at == scalar_inf.LIMIT_LOWER
        assert r.value == pytest.approx(0.0, abs=1e-10)

    def test_stationarity_at_interior_minimum(self):
        r = infimum("(z - 1/z)^4 - (z - 1/z)^2", "z")
        x = r.attained_at
        h = 1e-5
        e = expr.parse("(z - 1/z)^4 - (z - 1/z)^2", "z")
        lo = scalar_inf.weighted_second(e, np.array([x - h]))[0]
        hi = scalar_inf.weighted_second(e, np.array([x + h]))[0]
        assert abs(hi - lo) / (2 * h) < 1e-4


class TestUnboundedness:
    def test_hencky_isochoric_diverges(self):
        # t^2 h'' = mu (1 - log t) -> -inf as t -> inf
        r = infimum("(1/2)*log(t)^2", "t")
        assert r.unbounded
        assert r.attained_at == scalar_inf.LIMIT_UPPER

    def test_hencky_volumetric_diverges(self):
        r = infimum("(1/2)*log(z)^2", "z")
        assert r.unbounded

    def test_fast_divergence_detected(self):
        # z^2 f'' = -2 z^4 -> -inf very fast
        r = infimum("0 - (z^2 - 1)^2", "z")
        assert r.unbounded
        assert r.attained_at == scalar_inf.LIMIT_UPPER

    def test_overflowed_sample_diverges_at_nearer_end(self):
        # z^2 f'' = -(2 + 4 z^2) z^2 exp(z^2) overflows to -inf near z = 26.4,
        # far inside the grid
        r = infimum("-exp(z^2)", "z")
        assert (r.value, r.attained_at) == (-math.inf, scalar_inf.LIMIT_UPPER)

    def test_bounded_boundary_limit_not_flagged(self):
        # k-energy: t^2 h'' = mu / t -> 0+ at the upper boundary; finite
        r = infimum("(1/2)*(t + 1/t)", "t")
        assert not r.unbounded
        assert r.attained_at == scalar_inf.LIMIT_UPPER
        assert r.value == pytest.approx(0.0, abs=1e-5)


class TestDomainHandling:
    def test_nan_inside_domain_raises(self):
        with pytest.raises(errors.DomainError,
                           match=r"^'sqrt\(z - 1\)' undefined at \S+$") as info:
            infimum("sqrt(z - 1)", "z")
        assert float(str(info.value).split()[-1]) == pytest.approx(1e-6)


class TestConvexityVerdict:
    def test_convex(self):
        kind, wit, least = scalar_inf.convexity_verdict(expr.parse("z^2", "z"))
        assert kind == "Convex"
        assert wit is None
        assert least == pytest.approx(2.0 * INFIMUM_GRID.lo**2)  # 2x^2 at x = 1e-6

    def test_nonconvex_with_witness(self):
        kind, wit, least = scalar_inf.convexity_verdict(
            expr.parse("0 - (z - 1)^2", "z"))
        assert kind == "NonConvex"
        assert wit is not None
        assert least == -2.0 * wit**2

    def test_nonconvex_well(self):
        u = expr.parse("(z - 1/z)^4 - (z - 1/z)^2", "z")
        kind, wit, least = scalar_inf.convexity_verdict(u)
        assert kind == "NonConvex"
        assert 0.5 < wit < 2.0
        # the grid's minimum, judged at its witness
        assert least == pytest.approx(float(scalar_inf.weighted_second(u, wit)),
                                      rel=1e-12)

    def test_example1_parts(self):
        e = catalog("example1")
        assert scalar_inf.convexity_verdict(e.h)[0] == "NonConvex"
        assert scalar_inf.convexity_verdict(e.f)[0] == "Convex"

    @pytest.mark.parametrize("scale, kind", [(1e-9, "Marginal"), (1e-7, "NonConvex")])
    def test_sign_of_weighted_second_against_tol(self, scale, kind):
        # x^2 u'' = -scale, up to rounding, on the whole grid
        got, wit, least = scalar_inf.convexity_verdict(
            expr.parse(f"{scale}*log(z)", "z"))
        assert got == kind
        assert wit in INFIMUM_GRID.points()
        assert least == pytest.approx(-scale, rel=1e-6)

    def test_nan_raises_domain_error(self):
        with pytest.raises(errors.DomainError, match=r"^'sqrt\(z - 1\)' undefined at "):
            scalar_inf.convexity_verdict(expr.parse("sqrt(z - 1)", "z"))
