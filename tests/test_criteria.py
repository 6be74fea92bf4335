import math
import warnings

import numpy as np
import pytest

from rankone2d import (
    GridSpec,
    criteria,
    as_general,
    catalog,
    classify_structure,
    errors,
    ks_check,
    main_check,
    make_split,
    necessary_battery,
    voliso_check,
)
from rankone2d.energy import CATALOG, DEFAULT_Z_GRID

SMALL_T = GridSpec(1e-3, 1e3, 801)
SMALL_Z = GridSpec(1e-3, 1e3, 301)
SMALL_XY = GridSpec(1e-2, 1e2, 81)

# Hencky isochoric part with a stiff volumetric part: KS (v) fails at
# F = diag(10, 0.1), where the rank-one second derivative is about -0.0365
STIFF_HENCKY = ("0.35*log(t)^2", "2.6*exp(1.4*log(z)^2)")


def overall_all_routes(e):
    return (
        main_check(e, t_grid=SMALL_T).verdict.overall,
        voliso_check(e, t_grid=SMALL_T, z_grid=SMALL_Z).overall,
        ks_check(as_general(e), grid=SMALL_XY).overall,
    )


class TestGridSpec:
    def test_points_are_log_spaced(self):
        pts = GridSpec(1e-2, 1e2, 5).points()
        assert pts == pytest.approx([1e-2, 1e-1, 1, 10, 100])

    def test_degenerate_grid_rejected(self):
        with pytest.raises(errors.DegenerateGrid):
            GridSpec(1.0, 0.5, 10).points()
        with pytest.raises(errors.DegenerateGrid):
            GridSpec(0.5, 1.0, 1).points()
        with pytest.raises(errors.DegenerateGrid):
            GridSpec(0.5, math.inf, 10).points()


class TestRouteAgreement:
    @pytest.mark.parametrize("cid", [
        "example1", "example2", "k_energy", "hadamard_k", "hencky",
        "exp_hencky", "exp_hencky_iso", "exp_hencky_coupled",
        "idealized", "double_well_vol",
    ])
    def test_catalog_routes_agree(self, cid):
        verdicts = overall_all_routes(catalog(cid))
        assert len(set(verdicts)) == 1, verdicts

    def test_random_idealized_parameterizations_agree(self):
        rng = np.random.RandomState(7)
        for _ in range(8):
            mu = float(np.exp(rng.uniform(-2, 2)))
            kappa = float(np.exp(rng.uniform(-2, 2)))
            verdicts = overall_all_routes(catalog("idealized", mu=mu, kappa=kappa))
            assert set(verdicts) == {"RankOneConvex"}, (mu, kappa, verdicts)

    def test_stiff_hencky_routes_agree(self):
        verdicts = overall_all_routes(make_split(*STIFF_HENCKY))
        assert set(verdicts) == {"NotRankOneConvex"}, verdicts

    def test_seeded_hencky_isochoric_with_stiff_volumetric_part(self):
        rng = np.random.RandomState(3)
        for _ in range(8):
            params = {"mu": round(float(np.exp(rng.uniform(-1.5, 1.0))), 3),
                      "kappa": round(float(np.exp(rng.uniform(0.0, 1.5))), 3),
                      "khat": round(float(rng.uniform(0.5, 2.0)), 3)}
            e = make_split("(mu/2)*log(t)^2", "kappa*exp(khat*log(z)^2)",
                           params=params)
            verdicts = overall_all_routes(e)
            assert len(set(verdicts)) == 1, (params, verdicts)

    def test_exp_hencky_coupled_fails_voliso_d(self):
        v = voliso_check(catalog("exp_hencky_coupled"), t_grid=SMALL_T,
                         z_grid=SMALL_Z)
        by_id = {r.condition_id: r for r in v.reports}
        assert by_id["D"].verdict == "Fails"


class TestMainCheck:
    def test_example1_condition_values(self):
        res = main_check(catalog("example1"))
        assert res.verdict.overall == "RankOneConvex"
        assert res.f0.value == pytest.approx(math.sqrt(3.0) / 15.0, abs=1e-8)
        assert res.h0.value == pytest.approx(-0.101677, abs=1e-4)
        by_id = {r.condition_id: r for r in res.verdict.reports}
        assert by_id["Main1"].worst_margin == pytest.approx(
            res.h0.value + res.f0.value)

    def test_hencky_unbounded_main1(self):
        res = main_check(catalog("hencky"))
        by_id = {r.condition_id: r for r in res.verdict.reports}
        assert by_id["Main1"].verdict == "Unbounded"
        assert res.verdict.overall == "NotRankOneConvex"
        assert isinstance(by_id["Main1"].witness, str)

    def test_failure_produces_witness(self):
        res = main_check(catalog("exp_hencky_iso"))
        failing = [r for r in res.verdict.reports if r.verdict == "Fails"]
        assert failing
        assert all(r.witness is not None for r in failing)


class TestVolisoCheck:
    def test_condition_a_witness_is_a_point(self):
        v = voliso_check(catalog("example1"), t_grid=SMALL_T, z_grid=SMALL_Z)
        by_id = {r.condition_id: r for r in v.reports}
        t_w, z_w = by_id["A"].witness
        assert t_w > 0 and z_w > 0

    def test_double_well_vol_fails_a(self):
        v = voliso_check(catalog("double_well_vol"), t_grid=SMALL_T, z_grid=SMALL_Z)
        by_id = {r.condition_id: r for r in v.reports}
        assert by_id["A"].verdict == "Fails"

    def test_million_point_z_grid(self):
        # a dense scan would tabulate 4001 x 10^6 margins
        e = catalog("example1")
        big = voliso_check(e, z_grid=GridSpec(1e-4, 1e4, 10**6))
        assert big.overall == voliso_check(e).overall == "RankOneConvex"

    def test_undefined_margins_raise(self):
        # a = t^2 (t^2 - 1) h' h'' - 2 t h'^2 is inf - inf at the grid's ends
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(errors.DomainError):
                voliso_check(catalog("exp_hencky", k=12))

    @pytest.mark.parametrize("c", [1.4, 3, 6, 10])
    def test_stiff_volumetric_part_gives_no_warning(self, c):
        # f = 2.6 exp(c log(z)^2): z^2 f''(z) overflows on the default z grid
        # from c = 10 on, where f's jets are inf - inf = NaN at the grid's ends
        e = make_split(STIFF_HENCKY[0], f"2.6*exp({c}*log(z)^2)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if c < 10:
                v = voliso_check(e)
                by_id = {r.condition_id: r for r in v.reports}
                assert v.overall == "NotRankOneConvex"
                assert by_id["D"].verdict == "Fails"
                assert not any(math.isnan(r.worst_margin) for r in v.reports)
            else:
                # the first NaN sample is z = 1e-4
                with pytest.raises(errors.DomainError,
                                   match=r"^C undefined at \[0\.0001, 0\.0001\]$"):
                    voliso_check(e)

    def test_extreme_t_grid_gives_no_warning(self):
        # t^2 h''(t) is inf * 0 at the far end of the grid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.DomainError, match="^C undefined at"):
                voliso_check(catalog("hadamard_k"),
                             t_grid=GridSpec(1e-4, 1e300, 101))

    def test_overflowing_w_takes_its_limit(self):
        # z^2 f''(z) = 2e300 z^2 is +inf beyond z ~ 9.5e3 while f's jets are
        # finite; there C holds and D holds iff b + c > 0
        f = "1e300*(z - 1)^2"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            convex = voliso_check(make_split("(t + 1/t)/2", f))
            hencky = voliso_check(make_split("0.5*log(t)^2", f))
        assert convex.overall == "RankOneConvex"
        by_id = {r.condition_id: r for r in hencky.reports}
        assert by_id["C"].verdict == "Holds"
        # b + c < 0 at t = 1e-4, so D -> -inf at the first infinite w
        assert by_id["D"].verdict == "Unbounded"
        zs = DEFAULT_Z_GRID.points()
        with np.errstate(over="ignore"):
            first_inf = zs[np.argmax(np.isinf(zs**2 * 2e300))]
        assert by_id["D"].witness == [1e-4, first_inf]

    def test_undefined_volumetric_jets_raise(self):
        e = make_split("(t + 1/t)/2 - 1", "log(z - 1)")
        with pytest.raises(errors.DomainError):
            voliso_check(e, t_grid=SMALL_T, z_grid=SMALL_Z)


class TestKsCheck:
    def test_margins_are_normalized(self):
        v = ks_check(as_general(catalog("example2")), grid=SMALL_XY)
        for r in v.reports:
            assert abs(r.worst_margin) < 10.0

    def test_nonconvex_isochoric_fails(self):
        v = ks_check(as_general(catalog("exp_hencky_iso")), grid=SMALL_XY)
        assert v.overall == "NotRankOneConvex"

    @pytest.mark.parametrize("cid", sorted(CATALOG))
    def test_ks_iii_equals_a_separate_diagonal_evaluation(self, cid):
        # the route reads KS_iii off the diagonal of its grid partials
        grid = GridSpec(1e-2, 1e2, 21)
        g = as_general(catalog(cid))
        got = ks_check(g, grid=grid).reports[2]
        assert got.condition_id == "KS_iii"
        pts = grid.points()
        with np.errstate(all="ignore"):
            _, g_x, g_y, g_xx, g_xy, g_yy = g.partials(pts, pts)
            margin = np.minimum(g_xx - g_xy + g_x / pts, g_yy - g_xy + g_y / pts)
            scale = (np.abs(g_xx) + np.abs(g_yy) + np.abs(g_xy)
                     + (np.abs(g_x) + np.abs(g_y)) / pts)
        want = criteria._normalized(margin, scale)
        i = int(np.argmin(want))
        assert got.worst_margin == want[i]
        assert got.witness == [pts[i], pts[i]]

    def test_report_serialization(self):
        v = ks_check(as_general(catalog("example1")), grid=SMALL_XY)
        d = v.to_dict("example1")
        assert d["overall"] == "RankOneConvex"
        assert len(d["conditions"]) == 5
        assert {c["id"] for c in d["conditions"]} == {
            "KS_i", "KS_ii", "KS_iii", "KS_iv", "KS_v"}


class TestNecessaryBattery:
    def test_example1_split_convexities(self):
        reports = {r.condition_id: r for r in necessary_battery(catalog("example1"))}
        assert reports["Nec_a"].verdict == "Holds"
        assert reports["Nec_a"].witness == {"h": "NonConvex", "f": "Convex"}
        assert reports["Nec_d"].worst_margin > 0.0

    def test_example2_split_convexities(self):
        reports = {r.condition_id: r for r in necessary_battery(catalog("example2"))}
        assert reports["Nec_a"].witness == {"h": "Convex", "f": "NonConvex"}
        assert reports["Nec_d"].worst_margin > 0.0

    def test_both_parts_nonconvex_fails(self):
        e = make_split("exp((1/10)*log(t)^2)",
                       "(z - 1/z)^4 - (z - 1/z)^2", name="both-nonconvex")
        reports = {r.condition_id: r for r in necessary_battery(e)}
        assert reports["Nec_a"].verdict == "Fails"

    def test_signed_monotonicity_condition(self):
        reports = {r.condition_id: r for r in necessary_battery(catalog("hencky"))}
        # hencky h' = mu log(t)/t obeys the sign condition
        assert reports["Nec_c"].verdict == "Holds"


class TestClassification:
    def test_distortion_type_detected(self):
        cls = classify_structure(catalog("hadamard_k", mu=2.0, kappa=1.0))
        assert cls.kind == "hadamard_k"
        assert cls.mu == pytest.approx(2.0, rel=1e-9)
        assert cls.verdict == "RankOneConvex"

    def test_distortion_type_with_nonconvex_f(self):
        e = make_split("(3/2)*((t + 1/t)/2 - 1)", "0 - (z - 1)^2")
        cls = classify_structure(e)
        assert cls.kind == "hadamard_k"
        assert cls.verdict == "NotRankOneConvex"
        assert cls.witness is not None

    def test_same_shape_family_detected(self):
        cls = classify_structure(catalog("idealized", mu=1.0, kappa=4.0))
        # h itself is a positive multiple of the distortion, so the
        # distortion branch short-circuits first
        assert cls.kind in ("hadamard_k", "idealized_same_h")
        assert cls.verdict == "RankOneConvex"

    def test_same_shape_nonconvex_h(self):
        e = make_split("exp((1/10)*log(t)^2) - 1",
                       "2*(exp((1/10)*log(z)^2) - 1)")
        cls = classify_structure(e)
        assert cls.kind == "idealized_same_h"
        assert cls.ratio == pytest.approx(2.0, rel=1e-9)
        assert cls.verdict == "NotRankOneConvex"

    def test_general_fallthrough(self):
        cls = classify_structure(catalog("example2"))
        assert cls.kind == "general"
        assert cls.verdict is None
