"""The sorted-candidate search for the coupled split conditions C and D
against a dense reference that scans every (t, w) pair."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone2d import GridSpec, catalog, criteria, voliso_check
from rankone2d.energy import CATALOG

SMALL_T = GridSpec(1e-3, 1e3, 801)
SMALL_Z = GridSpec(1e-3, 1e3, 301)

_ROW_BLOCK = 512  # t rows per block: bounds the (t, w) temporaries


def _coupled_min_dense(cond, ws):
    """Reference: the full (t, w) table in row blocks, then a first-index
    argmin per row (a NaN anywhere in a row is its minimum)."""
    blocks = []
    with np.errstate(all="ignore"):
        for lo in range(0, cond.q.size, _ROW_BLOCK):
            sl = slice(lo, lo + _ROW_BLOCK)
            m = cond.coeff[sl, None] * ws
            m += cond.a[sl, None]
            np.maximum(m, cond.q[sl, None] + cond.sign * ws, out=m)
            j = np.argmin(m, axis=1)
            blocks.append((m[np.arange(j.size), j], j))
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _table(cond, ws):
    with np.errstate(all="ignore"):
        return np.maximum(cond.coeff[:, None] * ws + cond.a[:, None],
                          cond.q[:, None] + cond.sign * ws)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def _cond(sign, q, a, coeff):
    q, a, coeff = (np.asarray(v, dtype=np.float64) for v in (q, a, coeff))
    return criteria._Coupled(q, sign, a, coeff, np.ones(q.size, dtype=bool))


# ---------------------------------------------------------------------------
# random rows and samples

_SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf]
_number = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(_SPECIAL),
                    st.floats(allow_nan=False))
_row_value = st.one_of(_number, st.just(math.nan))


@st.composite
def coupled_cases(draw):
    sign = draw(st.sampled_from([1.0, -1.0]))
    nt = draw(st.integers(1, 6))
    q = draw(st.lists(_row_value, min_size=nt, max_size=nt))
    a = draw(st.lists(_row_value, min_size=nt, max_size=nt))
    # flat rows (coeff == 0) and parallel lines (coeff == sign) on purpose
    coeff = [draw(st.one_of(_row_value, st.sampled_from([0.0, sign])))
             for _ in range(nt)]
    shape = draw(st.sampled_from(["random", "pool", "equal", "single", "ulps"]))
    if shape == "random":
        ws = draw(st.lists(_number, min_size=1, max_size=12))
    elif shape == "pool":  # many duplicates
        pool = draw(st.lists(_number, min_size=1, max_size=3))
        ws = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=12))
    elif shape == "equal":  # f == 0 gives w == 0 at every z
        ws = [draw(_number)] * draw(st.integers(2, 8))
    elif shape == "single":  # the main route passes w = f0 alone
        ws = [draw(_number)]
    else:  # samples a few ulps apart around the first row's crossing
        with np.errstate(all="ignore"):
            x = (np.float64(a[0]) - q[0]) / (sign - coeff[0])
            if not np.isfinite(x):
                x = np.float64(draw(st.floats(-1e3, 1e3)))
            ws = list(x + np.arange(-3, 4) * abs(np.spacing(x)))
        ws = draw(st.permutations(ws))
    if draw(st.integers(0, 9)) == 0:
        ws = list(ws)
        ws.insert(draw(st.integers(0, len(ws))), math.nan)
    return _cond(sign, q, a, coeff), np.array(ws, dtype=np.float64)


@settings(max_examples=400, deadline=None)
@given(case=coupled_cases())
def test_sorted_search_matches_dense_reference(case):
    cond, ws = case
    m, j = criteria._coupled_min(cond, ws)
    m_ref, j_ref = _coupled_min_dense(cond, ws)
    nan = np.isnan(m_ref)
    assert np.array_equal(np.isnan(m), nan)
    assert np.array_equal(_bits(m[~nan]), _bits(m_ref[~nan]))

    assert np.array_equal(j[~nan], j_ref[~nan])
    # an undefined row names a sample at which it is undefined
    assert np.isnan(_table(cond, ws)[np.arange(cond.q.size), j][nan]).all()


def test_rounded_crossing_is_not_trusted():
    # the computed crossing (a - q)/(1 - coeff) lands on the wrong side of
    # samples one ulp apart, so its neighbours miss the minimum; the switch
    # of the rounded lines does not
    cond = _cond(1.0, [0.05202897425988651], [0.6836861907765345],
                 [-1.0039615758421696])
    x = (cond.a[0] - cond.q[0]) / (1.0 - cond.coeff[0])
    ws = x + np.arange(-3, 4) * np.spacing(x)
    m, j = criteria._coupled_min(cond, ws)
    m_ref, j_ref = _coupled_min_dense(cond, ws)
    assert _bits(m) == _bits(m_ref) and j == j_ref
    k = np.searchsorted(ws, x)
    assert _table(cond, ws)[0, [0, 6, k - 1, k]].min() > m_ref[0]


def test_rounding_plateau_takes_first_index():
    # 0.5*w rounds to the same value at neighbouring subnormal w, so the
    # minimum 0 is taken at two distinct w (w = 0 gives -0.0 there)
    cond = _cond(-1.0, [-0.0], [0.0], [0.5])
    ws = np.array([4.9e-324, -9.9e-324, -4.9e-324, 0.0, -1.5e-323, 9.9e-324,
                   1.5e-323])
    m, j = criteria._coupled_min(cond, ws)
    assert j[0] == 0 and _bits(m[0]) == _bits(0.0)


def test_infinite_coeff_is_undefined_at_zero():
    cond = _cond(1.0, [math.inf], [0.0], [math.inf])
    ws = np.array([-1.0, 1.0, 0.0, 2.0])
    m, j = criteria._coupled_min(cond, ws)
    assert np.isnan(m[0]) and j[0] == 2


def test_flat_row_takes_first_index():
    cond = _cond(-1.0, [-5.0], [2.0], [0.0])
    ws = np.array([3.0, -1.0, 3.0, 0.5])
    m, j = criteria._coupled_min(cond, ws)
    assert m[0] == 2.0 and j[0] == 0


# ---------------------------------------------------------------------------
# route level: voliso_check with the sorted search against the dense one


def _seeded_members():
    rng = np.random.RandomState(11)
    members = []
    for _ in range(6):
        members.append(catalog(
            "exp_hencky",
            mu=round(float(np.exp(rng.uniform(-1.5, 1.5))), 3),
            kappa=round(float(np.exp(rng.uniform(-1.5, 1.5))), 3),
            k=round(float(rng.uniform(0.02, 1.0)), 3),
            khat=round(float(rng.uniform(0.02, 1.0)), 3)))
        members.append(catalog(
            "hencky",
            mu=round(float(np.exp(rng.uniform(-1.5, 1.5))), 3),
            kappa=round(float(np.exp(rng.uniform(-1.5, 1.5))), 3)))
        members.append(catalog(
            "exp_hencky_coupled",
            mu=round(float(np.exp(rng.uniform(-1.5, 1.5))), 3),
            k=round(float(rng.uniform(0.02, 1.0)), 3)))
    return members


@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_catalog_witnesses_match_dense(cid, monkeypatch):
    e = catalog(cid)
    _assert_rows_match_dense(e, criteria.DEFAULT_T_GRID, criteria.DEFAULT_Z_GRID)
    _assert_reports_match_dense(e, monkeypatch)


@pytest.mark.parametrize("e", _seeded_members(), ids=lambda e: e.name)
def test_seeded_witnesses_match_dense(e, monkeypatch):
    # rounding flattens a + coeff*w over neighbouring samples at large t in
    # the exp_hencky families, so many rows have several minimizing w
    _assert_rows_match_dense(e, SMALL_T, SMALL_Z)
    _assert_reports_match_dense(e, monkeypatch)


def _assert_rows_match_dense(e, t_grid, z_grid):
    ts, zs = t_grid.points(), z_grid.points()
    hj = e.h_jet_array(ts)
    ws = zs**2 * e.f_jet_array(zs).d2
    for cond in criteria._coupled_conditions(ts, hj.d1, hj.d2):
        m, j = criteria._coupled_min(cond, ws)
        m_ref, j_ref = _coupled_min_dense(cond, ws)
        assert np.array_equal(_bits(m), _bits(m_ref))
        assert np.array_equal(j, j_ref)


def _assert_reports_match_dense(e, monkeypatch):
    fast = voliso_check(e, t_grid=SMALL_T, z_grid=SMALL_Z)
    monkeypatch.setattr(criteria, "_coupled_min", _coupled_min_dense)
    dense = voliso_check(e, t_grid=SMALL_T, z_grid=SMALL_Z)
    assert fast.overall == dense.overall
    for got, ref in zip(fast.reports, dense.reports, strict=True):
        assert got.condition_id == ref.condition_id
        assert got.verdict == ref.verdict
        assert _bits(got.worst_margin) == _bits(ref.worst_margin)
        assert got.witness == ref.witness
        assert got.samples_used == ref.samples_used
