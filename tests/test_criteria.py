import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, given, reject, settings
from hypothesis import strategies as st

from rankone2d import (
    GridSpec,
    criteria,
    catalog,
    classify_structure,
    errors,
    g_partials,
    ks_check,
    main_check,
    make_split,
    necessary_battery,
    voliso_check,
)
from rankone2d.energy import (CATALOG, DEFAULT_T_GRID, DEFAULT_TOL, DEFAULT_Z_GRID,
                              INFIMUM_GRID)
from rankone2d.expr import eval_jet2_array
from rankone2d.scalar_inf import convexity_verdict, weighted_second

import strategies

SMALL_T = GridSpec(1e-3, 1e3, 801)
SMALL_Z = GridSpec(1e-3, 1e3, 301)

# Hencky isochoric part with a stiff volumetric part: KS (v) fails at
# F = diag(10, 0.1), where the rank-one second derivative is about -0.0365
STIFF_HENCKY = ("0.35*log(t)^2", "2.6*exp(1.4*log(z)^2)")

# f'' < 0 only beyond z = 1e5; far is rank-one convex, hadfar is not
TAIL_ENERGIES = {"far": ("t^2 + 1/t^2", "log(1 + (z/100000)^2)"),
                 "hadfar": ("(1/2)*(t + 1/t)", "log(1 + (z/100000)^2)")}


# h = alpha*S + c, with S a Hadamard spelling or s(t)*t + s(1/t)/t for a
# source s, which is symmetric and never lacks t; f = r*S(z) + c' or any
# source in z
HADAMARD_SPELLINGS = ("t + 1/t", "1/t + t", "(t^2 + 1)/t", "t^-1 + t", "(t*t + 1)/(2*t)",
                      "t/2 + 1/(2*t)")
MODERATE = ("1/3", "2", "0.5", "7", "1/10", "3/2", "100")
OFFSETS = ("0", "1", "-2", "5/2", "-100")


def _substituted(source: str, argument: str) -> str:
    """``source`` with ``argument`` in place of the variable t."""
    return re.sub(r"\bt\b", argument, source)


@st.composite
def split_sources(draw):
    symmetric = strategies.sources("t").map(
        lambda s: f"({s})*t + ({_substituted(s, '(1/t)')})/t")
    shape = draw(symmetric | st.sampled_from(HADAMARD_SPELLINGS))
    scale, offset = st.sampled_from(MODERATE), st.sampled_from(OFFSETS)
    h = f"({draw(scale)})*({shape}) + ({draw(offset)})"
    same = f"({draw(scale)})*({_substituted(shape, 'z')}) + ({draw(offset)})"
    return h, draw(st.just(same) | strategies.sources("z"))


def overall_all_routes(e):
    return (
        main_check(e, t_grid=SMALL_T).verdict.overall,
        voliso_check(e, t_grid=SMALL_T, z_grid=SMALL_Z).overall,
        ks_check(e, t_grid=SMALL_T, z_grid=SMALL_Z).overall,
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
        # from c = 10 on, where f's jets are inf - inf = NaN at the grid's far end
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
                # the first NaN sample is z = 4613.18, where exp's own jet
                # is inf - inf; below z = 1 its jets only overflow
                with pytest.raises(errors.DomainError,
                                   match=r"^C undefined at \[0\.0001, 4613\.1757456038\]$"):
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


def _ks_samples(monkeypatch, e):
    """{condition id: (margins, points, sizes)} as ``ks_check`` hands them
    to ``_grid_report``, on the default grids."""
    seen, report = {}, criteria._grid_report

    def record(cid, margins, points, tol, samples=None, size=None):
        seen[cid] = (margins, points, size)
        return report(cid, margins, points, tol, samples, size)

    monkeypatch.setattr(criteria, "_grid_report", record)
    ks_check(e)
    return seen


class TestKsCheck:
    def test_nonconvex_isochoric_fails(self):
        v = ks_check(catalog("exp_hencky_iso"), t_grid=SMALL_T, z_grid=SMALL_Z)
        assert v.overall == "NotRankOneConvex"

    # the margins are in the units of the split conditions, those of w = z^2 f''
    @pytest.mark.parametrize("cid", sorted(CATALOG))
    def test_ks_i_is_the_split_condition_a(self, cid, monkeypatch):
        e = catalog(cid)
        margins, (x, y), _ = _ks_samples(monkeypatch, e)["KS_i"]
        t, z = x / y, x * y
        w = weighted_second(e.f, z)
        a_t, a_inv = weighted_second(e.h, t) + w, weighted_second(e.h, 1.0 / t) + w
        # to 1e-12 of both candidates: h'' cancels within its own jet here
        # (exp_hencky_iso at t = 3.98), below KS_i's size
        assert np.all(np.abs(margins - np.minimum(a_t, a_inv))
                      <= 1e-12 * (np.abs(a_t) + np.abs(a_inv)))

    @pytest.mark.parametrize("cid", sorted(CATALOG))
    def test_ks_ii_is_the_split_condition_b(self, cid, monkeypatch):
        # 2t h'/(t - 1), the scan's B'
        e = catalog(cid)
        margins, (x, y), size = _ks_samples(monkeypatch, e)["KS_ii"]
        t = x / y
        want = 2.0 * t * eval_jet2_array(e.h, t).d1 / (t - 1.0)
        assert np.all(np.abs(margins - want) <= 1e-12 * size)

    def test_an_overflowed_volumetric_part_is_decided(self):
        # f'' overflows on the z grid: a margin of +inf over a size of +inf
        # holds, and KS (v) fails as vol-iso's D does
        e = make_split(STIFF_HENCKY[0], "2.6*exp(6*log(z)^2)")
        assert ks_check(e).overall == "NotRankOneConvex"

    @pytest.mark.parametrize("cid", sorted(CATALOG))
    def test_ks_iii_equals_a_separate_diagonal_evaluation(self, cid):
        # the route reads KS_iii as condition (v) on the row t = 1, which
        # this t grid lacks
        e = catalog(cid)
        z_grid = GridSpec(1e-4, 1e4, 21)
        got = ks_check(e, t_grid=GridSpec(2.0, 50.0, 21), z_grid=z_grid).reports[2]
        assert got.condition_id == "KS_iii"
        zs = z_grid.points()
        with np.errstate(all="ignore"):
            x, y, _, g_x, g_y, g_xx, g_xy, g_yy = g_partials(e, np.ones_like(zs), zs)
            root = np.sqrt(np.maximum(g_xx * g_yy, 0.0))
            margin = (root - g_xy + (g_x + g_y) / (x + y)) * zs
            size = (root + np.abs(g_xy) + (np.abs(g_x) + np.abs(g_y)) / (x + y)) * zs
        i = int(np.argmin(margin + criteria._ROUNDING * size))
        assert got.worst_margin == margin[i]
        assert got.witness == [np.sqrt(zs[i])] * 2
        assert got.samples_used == zs.size

    def test_diamond_energy_is_not_certified(self):
        # A = t^2 h'' + z^2 f'' is -0.0193 at (t, z) = (1e4, 1e4), a point
        # the x, y square [1e-2, 1e2] never reached; KS_i, in the units of
        # A, fails there
        e = make_split("(t + 1/t)/2", "(1/100)*log(1 + (z/1000)^2)")
        v = ks_check(e)
        assert v.overall == "NotRankOneConvex"
        assert v.reports[0].verdict == "Fails"
        assert v.reports[0].worst_margin == pytest.approx(-0.0193, abs=1e-4)
        assert v.reports[0].witness == pytest.approx([1e4, 1.0])

    @pytest.mark.parametrize("cid", sorted(CATALOG))
    def test_ks_i_size_is_the_smaller_candidates_own(self, cid, monkeypatch):
        # |t^2 h''(t)| + |w| where A(t, z) is the smaller candidate, else
        # |t^-2 h''(1/t)| + |w|, not the sum of both candidates
        e = catalog(cid)
        _, (x, y), size = _ks_samples(monkeypatch, e)["KS_i"]
        t, z = x / y, x * y
        w = np.abs(weighted_second(e.f, z))
        a_t, a_inv = weighted_second(e.h, t), weighted_second(e.h, 1.0 / t)
        want = np.where(a_t <= a_inv, np.abs(a_t), np.abs(a_inv)) + w
        assert np.allclose(size, want, rtol=1e-9, atol=0.0)

    # on these grids vol-iso's A fails at t = 1e8, where the other candidate
    # A(1/t, z) is about mu*t; a band on the sum of both hid the failure
    @pytest.mark.parametrize("name, h, f, params, margin", [
        ("had_tail", "(mu/2)*(t + 1/t)", "-(1/100000)*log(1 + (z/1000)^2)",
         {"mu": 100.0}, -1.457e-6),
        ("near_had(1e-12)", "(t + 1/t)/2 + c*log(t)^4", "(z - 1)^2",
         {"c": 1e-12}, -1.093e-8),
    ])
    def test_ks_i_fails_past_the_default_grids(self, name, h, f, params, margin):
        e = make_split(h, f, params=params)
        v = ks_check(e, t_grid=GridSpec(1e-8, 1e8, 3001),
                     z_grid=GridSpec(1e-8, 1e8, 777))
        assert v.overall == "NotRankOneConvex"
        assert v.reports[0].verdict == "Fails"
        assert v.reports[0].worst_margin == pytest.approx(margin, rel=1e-3)

    def test_report_serialization(self):
        v = ks_check(catalog("example1"), t_grid=SMALL_T, z_grid=SMALL_Z)
        d = v.to_dict("example1")
        assert d["overall"] == "RankOneConvex"
        assert len(d["conditions"]) == 5
        assert {c["id"] for c in d["conditions"]} == {
            "KS_i", "KS_ii", "KS_iii", "KS_iv", "KS_v"}


def _ks_full_plane(e, t_grid, z_grid, tol=DEFAULT_TOL):
    """The KS route over both halves of the plane, x < y included, with the
    classical condition (iii) from its own walk of the row t = 1: the
    reference the route on x >= y must reproduce.  The weights are those
    of the route, symmetric in x and y: x^2 and y^2 in (i), the smaller of
    x and y in (ii) and xy elsewhere."""
    ts = criteria._ks_axis(t_grid)[:, np.newaxis]
    zs = criteria._ks_axis(z_grid)
    report = criteria._grid_report
    with np.errstate(all="ignore"):
        x, y, _, g_x, g_y, g_xx, g_xy, g_yy = g_partials(e, ts, zs)
        xy = x * y
        off = np.abs(x - y) > 1e-9 * (x + y)
        a_x, a_y = x * x * g_xx, y * y * g_yy
        reports = [report("KS_i", np.minimum(a_x, a_y), (x, y), tol,
                          size=np.abs(a_x) + np.abs(a_y))]
        m_ii = (x * g_x - y * g_y) * np.minimum(x, y) / (x - y)
        s_ii = (np.abs(x * g_x) + np.abs(y * g_y)) * np.minimum(x, y) / np.abs(x - y)
        reports.append(report("KS_ii", m_ii[off], (x[off], y[off]), tol,
                              size=s_ii[off]))
        d, _, _, dg_x, dg_y, dg_xx, dg_xy, dg_yy = g_partials(e, 1.0, zs)
        m_iii = np.minimum(dg_xx - dg_xy + dg_x / d, dg_yy - dg_xy + dg_y / d) * zs
        s_iii = (np.abs(dg_xx) + np.abs(dg_yy) + np.abs(dg_xy)
                 + (np.abs(dg_x) + np.abs(dg_y)) / d) * zs
        reports.append(report("KS_iii", m_iii, (d, d), tol, size=s_iii))
        prod = g_xx * g_yy
        root = np.sqrt(np.maximum(prod, 0.0))
        ok = prod >= 0.0
        s_root = root + np.abs(g_xy)
        m_iv = (root + g_xy + (g_x - g_y) / (x - y)) * xy
        s_iv = (s_root + (np.abs(g_x) + np.abs(g_y)) / np.abs(x - y)) * xy
        sel = off & ok
        reports.append(report("KS_iv", m_iv[sel], (x[sel], y[sel]), tol,
                              size=s_iv[sel]))
        m_v = (root - g_xy + (g_x + g_y) / (x + y)) * xy
        s_v = (s_root + (np.abs(g_x) + np.abs(g_y)) / (x + y)) * xy
        reports.append(report("KS_v", m_v[ok], (x[ok], y[ok]), tol, size=s_v[ok]))
    return criteria._overall(reports, "KS")


class TestKsHalfPlane:
    """g(x, y) = g(y, x), so the route samples x >= y only: a t below 1 is
    read as its mirror 1/t, and condition (iii) as (v) on the diagonal."""

    @pytest.mark.parametrize("grids", [
        (DEFAULT_T_GRID, DEFAULT_Z_GRID),
        (GridSpec(1e-3, 10, 501), GridSpec(0.1, 1e3, 201)),
    ], ids=["default", "skew"])
    @pytest.mark.parametrize("cid", sorted(CATALOG))
    def test_agrees_with_the_full_plane(self, cid, grids):
        e = catalog(cid)
        got, want = ks_check(e, *grids), _ks_full_plane(e, *grids)
        assert got.overall == want.overall
        for g, w in zip(got.reports, want.reports, strict=True):
            assert (g.condition_id, g.verdict) == (w.condition_id, w.verdict)
            x, y = g.witness
            assert x >= y, g
            if g.condition_id != "KS_iii":
                a, b = g.worst_margin, w.worst_margin
                assert a == b or abs(a - b) <= 1e-7 * max(abs(a), abs(b)), (g, w)

    def test_samples_the_half_table(self):
        # the 201 t of the default stride fold onto t = 1 and the 100 above
        reports = ks_check(catalog("example1")).reports
        assert [r.samples_used for r in reports] == [
            101 * 201, 100 * 201, 201, 100 * 201, 101 * 201]


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

    def test_nec_a_margin_is_the_larger_dip(self):
        # x^2 h'' = 1 - log x and x^2 f'' = 2 (1 - log x), least at x = 1e6
        nec_a = necessary_battery(catalog("hencky", kappa=2.0))[0]
        assert nec_a.witness == {"h": "NonConvex", "f": "NonConvex"}
        assert nec_a.verdict == "Fails"
        assert nec_a.worst_margin == pytest.approx(1.0 - math.log(1e6), rel=1e-12)

    def test_nec_a_dips_within_tolerance_are_marginal(self):
        # x^2 u'' dips to -3.0e-9 in both parts, where main's Main1 reads
        # Marginal: no failure is certified
        e = make_split("-(2/1000000000)*exp(-log(t)^2)",
                       "-(2/1000000000)*exp(-log(z)^2)")
        nec_a = necessary_battery(e)[0]
        assert nec_a.witness == {"h": "Marginal", "f": "Marginal"}
        assert nec_a.verdict == "Marginal"
        assert -DEFAULT_TOL < nec_a.worst_margin < 0.0
        assert main_check(e).verdict.reports[0].verdict == "Marginal"

    def test_signed_monotonicity_condition(self):
        reports = {r.condition_id: r for r in necessary_battery(catalog("hencky"))}
        # hencky h' = mu log(t)/t obeys the sign condition
        assert reports["Nec_c"].verdict == "Holds"

    # far's and hadfar's f is not convex, but only outside the t grid's range
    @pytest.mark.parametrize("name", [*sorted(CATALOG), *TAIL_ENERGIES])
    @pytest.mark.parametrize("t_grid", [DEFAULT_T_GRID, GridSpec(0.5, 2.0, 11)],
                             ids=["default-t", "narrow-t"])
    def test_one_convexity_per_part(self, name, t_grid):
        # Nec_a reads convexity where classify does, whatever the t grid
        e = catalog(name) if name in CATALOG else make_split(*TAIL_ENERGIES[name])
        nec_a = necessary_battery(e, t_grid=t_grid)[0]
        assert nec_a.witness == {"h": convexity_verdict(e.h)[0],
                                 "f": convexity_verdict(e.f)[0]}
        assert nec_a.samples_used == 2 * INFIMUM_GRID.n
        if name in TAIL_ENERGIES:
            assert nec_a.witness["f"] == "NonConvex"
        cls = classify_structure(e)
        if cls.kind == "hadamard_k":
            assert cls.convexity == nec_a.witness["f"]


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

    # The paper's Hadamard theorem: h = mu K(t), K(t) = (t + 1/t)/2, makes W
    # rank-one convex iff f is convex.  The first four f are ROADMAP's
    # had_tanh, had_log2, had_tail and hadfar: f'' < 0 somewhere, for the
    # last two only by about 1e-11, where z^2 f'' is -2.5e-6 and -1.9.
    @pytest.mark.parametrize("f, mu, verdict", [
        ("tanh(z)", 100.0, "NotRankOneConvex"),
        ("(1/100)*log(1 + (z/1000)^2)", 100.0, "NotRankOneConvex"),
        ("-(1/100000)*log(1 + (z/1000)^2)", 100.0, "NotRankOneConvex"),
        ("log(1 + (z/100000)^2)", 1.0, "NotRankOneConvex"),
        *[(f, mu, "RankOneConvex")
          for f in ("(z - 1)^2", "z - log(z) - 1", "(z + 1/z)/2 - 1")
          for mu in (0.01, 1.0, 100.0)],
    ])
    def test_hadamard_theorem(self, f, mu, verdict):
        cls = classify_structure(make_split("(mu/2)*(t + 1/t)", f, params={"mu": mu}))
        assert (cls.kind, cls.verdict) == ("hadamard_k", verdict)

    # near_had(c): Hadamard but for c*log(t)^4, which makes h0 unbounded for
    # every c > 0, however small
    @pytest.mark.parametrize("c", [1e-12, -1e-12, 1e-9, -1e-9, 1e-8])
    def test_near_hadamard_is_general(self, c):
        e = make_split("(t + 1/t)/2 + c*log(t)^4", "(z - 1)^2", params={"c": c})
        assert classify_structure(e) == criteria.StructureClassification("general")

    @pytest.mark.parametrize("h, mu", [
        ("t^-1 + t", 2.0), ("(t^2 + 1)/(2*t)", 1.0), ("t/2 + 1/(2*t)", 1.0),
        ("0.5*t + 0.5/t", 1.0), ("(mu/2)*(t + 1/t)", 2.26),
    ])
    def test_hadamard_spellings_give_mu_exactly(self, h, mu):
        cls = classify_structure(make_split(h, "(z - 1)^2", params={"mu": 2.26}))
        assert (cls.kind, cls.mu, cls.verdict) == ("hadamard_k", mu, "RankOneConvex")

    def test_a_call_is_not_rewritten(self):
        # cosh(log(t)) is (t + 1/t)/2, but its tree is a call
        e = make_split("cosh(log(t))", "(z - 1)^2")
        assert classify_structure(e).kind == "general"

    def test_same_shape_ratio_is_exact(self):
        same = classify_structure(make_split("3*(t^2 + 1/t^2 + log(t)^2)",
                                             "2*(z^2 + 1/z^2 + log(z)^2)"))
        assert (same.kind, same.ratio) == ("idealized_same_h", 2.0 / 3.0)
        # the ratios 1/3 and (1/3 rounded)/1 round to one float but differ
        e = make_split("3*(t^2 + 1/t^2) + log(t)^2", "z^2 + 1/z^2 + (1/3)*log(z)^2")
        assert classify_structure(e).kind == "general"

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(pair=split_sources())
    def test_named_structure_holds_on_the_infimum_grid(self, pair):
        # what classify reads from the tree holds where it samples
        try:
            e = make_split(*pair)
            cls = classify_structure(e)
        except errors.RankOneError:
            reject()
        event(cls.kind)
        if cls.kind == "general":
            return
        xs = INFIMUM_GRID.points()
        with np.errstate(all="ignore"):
            h = eval_jet2_array(e.h, xs).value
            if cls.kind == "hadamard_k":
                rest = h - (cls.mu / 2.0) * (xs + 1.0 / xs)
            else:
                rest = eval_jet2_array(e.f, xs).value - cls.ratio * h
        finite = np.isfinite(rest) & np.isfinite(h)
        assume(finite.any())
        rest, h = rest[finite], h[finite]
        constant = rest[np.argmin(np.abs(h))]
        assert np.all(np.abs(rest - constant) <= 1e-9 * (1.0 + np.abs(h))), (
            cls, pair)

    def test_boundary_of_the_exp_hencky_range_is_rank_one_convex(self):
        # k = 1/4, khat = 1/8 makes f a multiple of h with a double root of
        # t^2 h''(t) at t = e^2; the grid minimum there is not negative
        cls = classify_structure(catalog("exp_hencky", k=0.25, khat=0.125))
        assert (cls.kind, cls.verdict) == ("idealized_same_h", "RankOneConvex")
