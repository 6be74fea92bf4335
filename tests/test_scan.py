import io
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone2d import (analytic_second_derivative, catalog, emit_csv,
                       emit_svg, main_check, make_split, scan_domain)
from rankone2d.energy import CATALOG, DEFAULT_TOL
from rankone2d.errors import DegenerateGrid, RankOneError
from rankone2d.kernels import direction_min_batch
from rankone2d.oracle import _curvatures
from rankone2d.scan import _COLORS, _LABELS, EllipticityMap

LABELS = ("Elliptic", "NonElliptic", "Boundary")


def _emit_csv_cells(emap, stream):
    """Reference: the per-cell CSV loop the row emitter must reproduce."""
    stream.write("lambda1,lambda2,verdict,min_margin\n")
    for i, l1 in enumerate(emap.lambda1):
        for j, l2 in enumerate(emap.lambda2):
            stream.write(
                f"{l1:.9g},{l2:.9g},{emap.verdicts[i, j]},{emap.margins[i, j]:.9g}\n"
            )


def _svg_cells(emap, cell=12, margin=40):
    """Reference: the per-cell rects of the SVG heat map."""
    n = emap.lambda1.size
    out = []
    for i in range(n):
        for j in range(n):
            x = margin + i * cell
            y = margin + (n - 1 - j) * cell
            color = _COLORS[emap.verdicts[i, j]]
            out.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                       f'fill="{color}"/>\n')
    return "".join(out)


def _verdicts_where(margins, tol):
    """Reference labelling: nested np.where with NaN cells on Boundary."""
    v = np.where(margins < -tol, "NonElliptic",
                 np.where(margins > tol, "Elliptic", "Boundary"))
    return np.where(np.isnan(margins), "Boundary", v)


@pytest.fixture(scope="module")
def iso_map():
    return scan_domain(catalog("exp_hencky_iso"), lambda_range=(1e-2, 1e2),
                       n_points=33)


@pytest.fixture(scope="module")
def elliptic_map():
    return scan_domain(catalog("example1"), lambda_range=(1e-2, 1e2),
                       n_points=21)


class TestScanDomain:
    def test_elliptic_energy_all_elliptic(self, elliptic_map):
        assert set(elliptic_map.verdicts.ravel()) == {"Elliptic"}
        assert not (elliptic_map.verdicts == "NonElliptic").any()

    def test_nonelliptic_region_found(self, iso_map):
        assert (iso_map.verdicts == "NonElliptic").any()
        assert (iso_map.verdicts == "Elliptic").any()

    def test_mirror_symmetry_is_exact(self, iso_map):
        assert np.array_equal(iso_map.margins, iso_map.margins.T)
        assert (iso_map.verdicts == iso_map.verdicts.T).all()

    def test_diagonal_is_elliptic_for_iso_energy(self, iso_map):
        # conformal states t = 1 never violate ellipticity for these energies
        diag = np.diagonal(iso_map.verdicts)
        assert set(diag) <= {"Elliptic", "Boundary"}

    def test_consistency_with_main_check(self, elliptic_map):
        assert main_check(catalog("example1")).verdict.overall == "RankOneConvex"
        assert not (elliptic_map.verdicts == "NonElliptic").any()

    def test_ray_invariance_of_cone_structure(self):
        # f == 0: w = 0 and every condition depends on t alone, so margins
        # are constant along each ray lambda1/lambda2 = const
        e = catalog("exp_hencky_iso")
        base = scan_domain(e, lambda_range=(0.1, 10.0), n_points=11)
        for s in (0.5, 2.0):
            scaled = scan_domain(e, lambda_range=(0.1 * s, 10.0 * s), n_points=11)
            assert np.allclose(scaled.margins, base.margins,
                               rtol=1e-9, atol=1e-12)
            assert (scaled.verdicts == base.verdicts).all()

    def test_linear_spacing(self):
        m = scan_domain(catalog("example1"), lambda_range=(0.5, 3.0),
                        n_points=7, spacing="linear")
        assert m.lambda1[0] == pytest.approx(0.5)
        assert m.lambda1[-1] == pytest.approx(3.0)

    @pytest.mark.parametrize("spacing", ["log", "linear"])
    @pytest.mark.parametrize("lo, hi", [(-1.0, 2.0), (0.0, 2.0), (5.0, 1.0),
                                        (2.0, 2.0), (math.nan, 2.0),
                                        (0.5, math.inf)])
    def test_bad_range_rejected(self, spacing, lo, hi):
        with pytest.raises(DegenerateGrid, match="0 < lambda_min < lambda_max"):
            scan_domain(catalog("hadamard_k"), lambda_range=(lo, hi),
                        n_points=4, spacing=spacing)

    @pytest.mark.parametrize("n_points", [0, -3])
    def test_empty_grid_rejected(self, n_points):
        with pytest.raises(DegenerateGrid, match="at least one point"):
            scan_domain(catalog("hadamard_k"), n_points=n_points)

    def test_unknown_spacing_is_degenerate_grid(self):
        with pytest.raises(DegenerateGrid, match="unknown spacing 'cubic'") as info:
            scan_domain(catalog("example1"), n_points=4, spacing="cubic")
        assert isinstance(info.value, RankOneError)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("tol", [1e-8, 0.0, 1e-2, -1.0])
    def test_labels_match_nested_where(self, tol):
        # concave f: NonElliptic where det F > 2, NaN margins below
        e = make_split("(t + 1/t)/2 - 1", "sqrt(z - 2)")
        emap = scan_domain(e, lambda_range=(0.05, 20.0), n_points=17, tol=tol)
        nan = np.isnan(emap.margins)
        assert nan.any() and (emap.margins[~nan] < 0).any()
        assert emap.verdicts.dtype == object
        assert (emap.verdicts == _verdicts_where(emap.margins, tol)).all()

    def test_overflowing_h_gives_boundary_cells(self):
        # h = exp(6 log(t)^2)/12: beyond t ~ 5.3e4 its own jet is inf - inf.
        # Those cells are undefined, not an error, and no RuntimeWarning
        # escapes
        emap = scan_domain(catalog("exp_hencky", k=12.0), n_points=32)
        nan = np.isnan(emap.margins)
        assert nan.any() and (emap.verdicts[nan] == "Boundary").all()
        t = emap.lambda1[:, None] / emap.lambda2[None, :]
        assert (np.maximum(t, 1.0 / t)[nan] > 5e4).all()
        assert set(emap.verdicts[~nan]) == {"Elliptic"}

    def test_large_jets_leave_only_the_undefined_h(self):
        # C and D's coefficients are factored, so h' and h'' at +inf give
        # defined margins; only the 72 cells past t ~ 5.3e4, where h's own
        # jet is inf - inf, are Boundary (1,806 with the expanded products)
        emap = scan_domain(catalog("exp_hencky", k=12.0))
        assert (emap.verdicts == "Boundary").sum() == 72
        assert (emap.verdicts == "NonElliptic").sum() == 0

    def test_bad_spacing_rejected(self):
        with pytest.raises(ValueError):
            scan_domain(catalog("example1"), n_points=4, spacing="cubic")
        with pytest.raises(ValueError):
            scan_domain(catalog("example1"), lambda_range=(-1.0, 2.0),
                        n_points=4, spacing="linear")

    def test_worst_cell(self, iso_map):
        l1, l2, margin = iso_map.worst()
        assert margin == iso_map.margins.min()
        i = list(iso_map.lambda1).index(l1)
        j = list(iso_map.lambda2).index(l2)
        assert iso_map.margins[i, j] == margin


class TestWorst:
    def _map(self, margins):
        margins = np.asarray(margins, dtype=float)
        lam = np.arange(1.0, margins.shape[0] + 1.0)
        return EllipticityMap(lam, lam, margins,
                              np.full(margins.shape, "Boundary", dtype=object))

    def test_nan_cells_are_skipped(self):
        emap = self._map([[math.nan, 3.0], [1e-5, math.nan]])
        assert emap.worst() == (2.0, 1.0, 1e-5)

    def test_infinite_margins_beat_nan(self):
        emap = self._map([[math.nan, math.inf], [math.inf, math.nan]])
        assert emap.worst() == (1.0, 2.0, math.inf)

    def test_all_nan_gives_nan_at_first_cell(self):
        l1, l2, margin = self._map(np.full((2, 2), math.nan)).worst()
        assert (l1, l2) == (1.0, 1.0) and math.isnan(margin)

    def test_first_of_equal_minima(self):
        emap = self._map([[2.0, -0.0], [0.0, -0.0]])
        assert emap.worst() == (1.0, 2.0, 0.0)


_margin = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324,
                     -2.2250738585072014e-308, 1e-9, -1e-9]))


@st.composite
def random_maps(draw):
    n = draw(st.integers(1, 20))
    lam = np.array(draw(st.lists(
        st.floats(min_value=1e-300, max_value=1e300), min_size=n, max_size=n)))
    margins = np.array(draw(st.lists(_margin, min_size=n * n, max_size=n * n)))
    verdicts = np.array(draw(st.lists(st.sampled_from(LABELS), min_size=n * n,
                                      max_size=n * n)), dtype=object)
    return EllipticityMap(lam, lam, margins.reshape(n, n),
                          verdicts.reshape(n, n))


@settings(max_examples=200, deadline=None)
@given(emap=random_maps())
def test_row_emitters_match_cell_loops(emap):
    buf, ref = io.StringIO(), io.StringIO()
    emit_csv(emap, buf)
    _emit_csv_cells(emap, ref)
    assert buf.getvalue() == ref.getvalue()

    svg = io.StringIO()
    emit_svg(emap, svg)
    lines = svg.getvalue().splitlines(keepends=True)
    n = emap.lambda1.size
    assert "".join(lines[2:2 + n * n]) == _svg_cells(emap)


def _assert_emitters_match_cell_loops(emap):
    buf, ref = io.StringIO(), io.StringIO()
    emit_csv(emap, buf)
    _emit_csv_cells(emap, ref)
    assert buf.getvalue() == ref.getvalue()

    svg = io.StringIO()
    emit_svg(emap, svg)
    lines = svg.getvalue().splitlines(keepends=True)
    n = emap.lambda1.size
    assert "".join(lines[2:2 + n * n]) == _svg_cells(emap)


# margins that share their text or their label only in part: both zeros,
# NaN, the infinities, subnormals and values on either side of tol
_MARGIN_POOL = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                1e-310, -2.2250738585072014e-308, 1e-9, -1e-9, 1e-8, -1e-8,
                1.0000000001e-8, 0.1234567891234, -2.5e3]


@st.composite
def mirrored_maps(draw):
    """Maps laid out as scan_domain lays them out: margins on the upper
    triangle, the exact mirror below it, and the labels scan_domain gives."""
    n = draw(st.integers(1, 16))
    lam = np.sort(np.array(draw(st.lists(
        st.floats(min_value=1e-300, max_value=1e300), min_size=n, max_size=n))))
    ii, jj = np.triu_indices(n)
    vals = np.array(draw(st.lists(st.sampled_from(_MARGIN_POOL),
                                  min_size=ii.size, max_size=ii.size)))
    margins = np.empty((n, n))
    margins[jj, ii] = vals
    margins[ii, jj] = vals
    tol = draw(st.sampled_from([1e-8, 0.0, -1.0]))
    code = 2 * (margins < -tol) + (margins > tol)
    return EllipticityMap(lam, lam, margins, _LABELS[code])


@settings(max_examples=200, deadline=None)
@given(emap=mirrored_maps())
def test_emitters_match_cell_loops_on_mirrored_maps(emap):
    _assert_emitters_match_cell_loops(emap)


@pytest.mark.parametrize("n_points", [1, 2, 33])
@pytest.mark.parametrize("spacing", ["log", "linear"])
@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_emitters_match_cell_loops_on_catalog_maps(cid, spacing, n_points):
    _assert_emitters_match_cell_loops(
        scan_domain(catalog(cid), n_points=n_points, spacing=spacing))


class TestEmitters:
    def test_csv_shape_and_header(self, iso_map):
        buf = io.StringIO()
        emit_csv(iso_map, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "lambda1,lambda2,verdict,min_margin"
        assert len(lines) == 1 + 33 * 33

    def test_csv_deterministic(self):
        e = catalog("exp_hencky_iso")
        outs = []
        for _ in range(2):
            m = scan_domain(e, lambda_range=(1e-1, 1e1), n_points=9)
            buf = io.StringIO()
            emit_csv(m, buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    def test_csv_fields_parse(self, iso_map):
        buf = io.StringIO()
        emit_csv(iso_map, buf)
        row = buf.getvalue().splitlines()[1].split(",")
        float(row[0]), float(row[1]), float(row[3])
        assert row[2] in ("Elliptic", "NonElliptic", "Boundary")

    def test_svg_is_valid_xml_with_all_cells(self, iso_map):
        buf = io.StringIO()
        emit_svg(iso_map, buf)
        root = ET.fromstring(buf.getvalue())
        assert root.tag.endswith("svg")
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        assert len(rects) == 33 * 33 + 1  # cells + background
        lines = [el for el in root.iter() if el.tag.endswith("line")]
        assert len(lines) == 1  # diagonal guide
        texts = [el for el in root.iter() if el.tag.endswith("text")]
        assert len(texts) >= 2  # axis labels

    def test_svg_of_a_non_square_map_raises_before_writing(self):
        verdicts = np.full((2, 3), "Elliptic", dtype=object)
        emap = EllipticityMap(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]),
                              np.ones((2, 3)), verdicts)
        buf = io.StringIO()
        with pytest.raises(DegenerateGrid, match="square grid, got 2 x 3"):
            emit_svg(emap, buf)
        assert buf.getvalue() == ""

    def test_svg_transposition_symmetry(self, iso_map):
        buf = io.StringIO()
        emit_svg(iso_map, buf)
        root = ET.fromstring(buf.getvalue())
        fills = {}
        for el in root.iter():
            if el.tag.endswith("rect") and el.get("width") == "12":
                fills[(el.get("x"), el.get("y"))] = el.get("fill")
        n = iso_map.lambda1.size
        margin = 40
        for i in range(n):
            for j in range(n):
                a = (str(margin + i * 12), str(margin + (n - 1 - j) * 12))
                b = (str(margin + j * 12), str(margin + (n - 1 - i) * 12))
                assert fills[a] == fills[b]


# ---------------------------------------------------------------------------
# the labels against independent references


RANK_ONE_CONVEX = ("example1", "example2", "k_energy", "hadamard_k",
                   "exp_hencky", "idealized")


def _energies():
    """The catalog at its defaults, three non-default parameter sets and an
    energy whose f'' reaches ~1e74 on the default range."""
    out = {cid: catalog(cid) for cid in sorted(CATALOG)}
    out["hencky(1.28, 1.558)"] = catalog("hencky", mu=1.28, kappa=1.558)
    out["exp_hencky(0.3, 0.105)"] = catalog("exp_hencky", k=0.3, khat=0.105)
    out["exp_hencky(0.2, 0.2)"] = catalog("exp_hencky", k=0.2, khat=0.2)
    out["stiff"] = make_split("0.35*log(t)^2", "2.6*exp(1.4*log(z)^2)")
    return out


ENERGIES = _energies()


def _kernel_cells(e, lam1, lam2, n_angles):
    """The direction kernel at diag(lam1, lam2), lam1 >= lam2."""
    with np.errstate(all="ignore"):
        return direction_min_batch(lam1, lam2, np.zeros(lam1.size),
                                   *_curvatures(e, lam1, lam2), n_angles)


def _mp_function(ast, mp):
    """The expression tree of ``rankone2d.expr`` as an mpmath function."""
    tag = ast[0]
    if tag == "num":
        c = mp.mpf(ast[1])
        return lambda x: c
    if tag == "var":
        return lambda x: x
    if tag == "neg":
        a = _mp_function(ast[1], mp)
        return lambda x: -a(x)
    if tag == "call":
        fn = {"exp": mp.exp, "log": mp.log, "sqrt": mp.sqrt, "cosh": mp.cosh,
              "sinh": mp.sinh, "tanh": mp.tanh, "arcosh": mp.acosh}[ast[1]]
        a = _mp_function(ast[2], mp)
        return lambda x: fn(a(x))
    a, b = _mp_function(ast[1], mp), _mp_function(ast[2], mp)
    op = {"add": lambda u, v: u + v, "sub": lambda u, v: u - v,
          "mul": lambda u, v: u * v, "div": lambda u, v: u / v,
          "pow": lambda u, v: u**v}[tag]
    return lambda x: op(a(x), b(x))


def _mp_ks_margin(e, x, y, mp):
    """Smallest Knowles-Sternberg margin of g(x, y) = h(x/y) + f(xy) at
    diag(x, y), x >= y, with the partials of g taken by mpmath."""
    h, f = _mp_function(e.h.ast, mp), _mp_function(e.f.ast, mp)

    def g(u, v):
        return h(u / v) + f(u * v)

    x, y = mp.mpf(x), mp.mpf(y)
    gx, gy, gxx, gxy, gyy = (mp.diff(g, (x, y), order) for order in
                             ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))
    root = mp.sqrt(max(gxx * gyy, 0))
    m = [gxx, gyy, root - gxy + (gx + gy) / (x + y)]
    if x == y:
        m.append(gxx - gxy + gx / x)
    else:
        m += [(x * gx - y * gy) / (x - y), root + gxy + (gx - gy) / (x - y)]
    return min(m)


@pytest.mark.parametrize("spacing", ["log", "linear"])
@pytest.mark.parametrize("cid", RANK_ONE_CONVEX)
def test_rank_one_convex_diagonal_is_elliptic(cid, spacing):
    rng = (10**-2.5, 10**2.5) if spacing == "log" else (0.05, 15.0)
    emap = scan_domain(catalog(cid), lambda_range=rng, n_points=128,
                       spacing=spacing)
    assert set(np.diagonal(emap.verdicts)) == {"Elliptic"}


@pytest.mark.parametrize("name", sorted(ENERGIES))
def test_labels_match_high_precision_knowles_sternberg(name):
    # on the upper triangle: random NonElliptic and Elliptic cells, cells on
    # the edge of the NonElliptic region, and cells a 48-angle kernel passes
    # but the labels do not
    mp = pytest.importorskip("mpmath")
    e = ENERGIES[name]
    emap = scan_domain(e, n_points=128)
    ii, jj = np.triu_indices(128)
    verdicts = emap.verdicts[jj, ii]
    lam1, lam2 = emap.lambda1[jj], emap.lambda2[ii]
    bad = emap.verdicts == "NonElliptic"
    edge = bad != np.roll(bad, 1, axis=0)
    kernel, _, _ = _kernel_cells(e, lam1, lam2, 48)
    groups = [verdicts == "NonElliptic", verdicts == "Elliptic", edge[jj, ii],
              (verdicts == "NonElliptic") & (kernel >= -1e-8)]
    pick = np.random.RandomState(sorted(ENERGIES).index(name))
    cells = np.unique(np.concatenate([
        pick.choice(np.flatnonzero(g), min(4, int(g.sum())), replace=False)
        for g in groups]))
    cells = cells[verdicts[cells] != "Boundary"]
    # the partials of g reach ~1e79 on stiff, so 60 digits can lose a sign
    with mp.workdps(100):
        for k in cells:
            ks = _mp_ks_margin(e, lam1[k], lam2[k], mp)
            assert (ks < 0) == (verdicts[k] == "NonElliptic"), (
                lam1[k], lam2[k], verdicts[k], ks)


def test_condition_c_alone_decides():
    # w = z^2 f'' = -5 everywhere; for t in about [9.6, 13.9] A, B' and D
    # hold and only C fails, which no energy above shows
    mp = pytest.importorskip("mpmath")
    e = make_split("exp(0.3*log(t)^2)", "5*log(z)")
    emap = scan_domain(e, n_points=128)
    t = emap.lambda1[:, None] / emap.lambda2[None, :]
    band = np.flatnonzero((t > 9.7) & (t < 13.8))
    assert (emap.verdicts.ravel()[band] == "NonElliptic").all()
    cells = np.random.RandomState(0).choice(band, 6, replace=False)
    with mp.workdps(30):
        for i, j in zip(*np.unravel_index(cells, t.shape)):
            assert _mp_ks_margin(e, emap.lambda1[i], emap.lambda2[j], mp) < 0


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(ENERGIES)),
       lo=st.floats(-2.5, 2.0), width=st.floats(0.05, 2.5),
       n=st.integers(1, 9), spacing=st.sampled_from(["log", "linear"]))
def test_kernel_violations_are_nonelliptic(name, lo, width, n, spacing):
    # a violation the kernel finds and exact arithmetic confirms at its
    # directions lies in a NonElliptic cell
    e = ENERGIES[name]
    emap = scan_domain(e, lambda_range=(10**lo, 10**(lo + width)),
                       n_points=n, spacing=spacing)
    ii, jj = np.triu_indices(n)
    lam1, lam2 = emap.lambda1[jj], emap.lambda2[ii]
    vals, xis, etas = _kernel_cells(e, lam1, lam2, 480)
    for k in np.flatnonzero(vals < -DEFAULT_TOL):
        xi = np.array([math.cos(xis[k]), math.sin(xis[k])])
        eta = np.array([math.cos(etas[k]), math.sin(etas[k])])
        exact = analytic_second_derivative(e, np.diag([lam1[k], lam2[k]]),
                                           xi, eta)
        if exact < -DEFAULT_TOL:
            assert emap.verdicts[jj[k], ii[k]] == "NonElliptic", (
                lam1[k], lam2[k], exact)
