import io
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone2d import (catalog, emit_csv, emit_svg, main_check, make_split,
                       scan_domain)
from rankone2d.errors import DegenerateGrid
from rankone2d.scan import _COLORS, EllipticityMap

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
        assert not elliptic_map.any_nonelliptic

    def test_nonelliptic_region_found(self, iso_map):
        assert iso_map.any_nonelliptic
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
        assert not elliptic_map.any_nonelliptic

    def test_ray_invariance_of_cone_structure(self):
        # f == 0: margins scale exactly like 1/z along each ray
        e = catalog("exp_hencky_iso")
        base = scan_domain(e, lambda_range=(0.1, 10.0), n_points=11)
        for s in (0.5, 2.0):
            scaled = scan_domain(e, lambda_range=(0.1 * s, 10.0 * s), n_points=11)
            assert np.allclose(scaled.margins * s**2, base.margins,
                               rtol=1e-9, atol=1e-12)

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

    @pytest.mark.parametrize("n_points, n_angles", [(0, 48), (4, 0)])
    def test_empty_grid_rejected(self, n_points, n_angles):
        with pytest.raises(DegenerateGrid, match="at least one point"):
            scan_domain(catalog("hadamard_k"), n_points=n_points,
                        n_angles=n_angles)

    @pytest.mark.parametrize("tol", [1e-8, 0.0, 1e-2, -1.0])
    def test_labels_match_nested_where(self, tol):
        # concave f: NonElliptic where det F > 2, NaN margins below
        e = make_split("(t + 1/t)/2 - 1", "sqrt(z - 2)")
        emap = scan_domain(e, lambda_range=(0.05, 20.0), n_points=17, tol=tol)
        nan = np.isnan(emap.margins)
        assert nan.any() and (emap.margins[~nan] < 0).any()
        assert emap.verdicts.dtype == object
        assert (emap.verdicts == _verdicts_where(emap.margins, tol)).all()

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
                              np.full(margins.shape, "Boundary", dtype=object),
                              1e-8)

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
                          verdicts.reshape(n, n), 1e-8)


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
