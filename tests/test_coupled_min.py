"""The sorted-candidate search for the coupled split conditions C and D,
and the reports read from its row minima, against a dense reference that
scans every (t, w) pair."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone2d import GridSpec, catalog, criteria, voliso_check
from rankone2d.energy import CATALOG, DEFAULT_TOL
from rankone2d.errors import DomainError
from rankone2d.expr import eval_jet2_array

SMALL_T = GridSpec(1e-3, 1e3, 801)
SMALL_Z = GridSpec(1e-3, 1e3, 301)

_ROW_BLOCK = 512  # t rows per block: bounds the (t, w) temporaries


def _coupled_min_dense(cond, ws):
    """Reference: the full (t, w) table in row blocks, then the minimum of
    each row (a NaN anywhere in a row is its minimum)."""
    blocks = []
    with np.errstate(all="ignore"):
        for lo in range(0, cond.q.size, _ROW_BLOCK):
            sl = slice(lo, lo + _ROW_BLOCK)
            m = cond.coeff[sl, None] * ws
            m += cond.a[sl, None]
            np.maximum(m, cond.q[sl, None] + cond.sign * ws, out=m)
            blocks.append(m.min(axis=1))
    return np.concatenate(blocks)


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
    elif shape == "single":  # one sample of w
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


def _dense_report(cond, ts, zs, ws):
    """Reference: the first-index argmin over the full (t, z) table of the
    masked rows, (margin, witness); a NaN cell is reported by its [t, z]."""
    table = _table(cond, ws)[cond.mask]
    i, j = divmod(int(np.argmin(table)), ws.size)  # the first NaN, if any
    witness = [float(ts[cond.mask][i]), float(zs[j])]
    if np.isnan(table).any():
        return None, witness
    return table[i, j], witness


def _assert_report_is_dense(cid, cond, ts, zs, ws):
    margin, witness = _dense_report(cond, ts, zs, ws)
    if margin is None:
        with pytest.raises(DomainError) as err:
            criteria._coupled_report(cid, cond, ts, zs, ws, DEFAULT_TOL)
        assert str(err.value) == f"{cid} undefined at {witness}"
        return None
    r = criteria._coupled_report(cid, cond, ts, zs, ws, DEFAULT_TOL)
    assert r.witness == witness
    assert _bits(r.worst_margin) == _bits(margin)
    assert r.samples_used == cond.mask.sum() * ws.size
    return r


@settings(max_examples=400, deadline=None)
@given(case=coupled_cases())
def test_sorted_search_matches_dense_reference(case):
    cond, ws = case
    m = criteria._coupled_min(cond, ws)
    m_ref = _coupled_min_dense(cond, ws)
    nan = np.isnan(m_ref)
    assert np.array_equal(np.isnan(m), nan)
    # == and not bits: equal minima may differ in the sign of zero
    assert np.array_equal(m[~nan], m_ref[~nan])

    # the report is the table's first-index argmin; an undefined table
    # raises DomainError naming its first NaN cell
    ts = np.arange(1.0, cond.q.size + 1)
    zs = np.arange(1.0, ws.size + 1)
    _assert_report_is_dense("C", cond, ts, zs, ws)


def _hand_case(cond, ws):
    zs = np.arange(1.0, ws.size + 1)  # the witness z is the sample's number
    return _assert_report_is_dense("D", cond, np.ones(1), zs, ws)


def test_rounded_crossing_is_not_trusted():
    # the computed crossing (a - q)/(1 - coeff) lands on the wrong side of
    # samples one ulp apart, so its neighbours miss the minimum; the switch
    # of the rounded lines does not
    cond = _cond(1.0, [0.05202897425988651], [0.6836861907765345],
                 [-1.0039615758421696])
    x = (cond.a[0] - cond.q[0]) / (1.0 - cond.coeff[0])
    ws = x + np.arange(-3, 4) * np.spacing(x)
    r = _hand_case(cond, ws)
    k = np.searchsorted(ws, x)
    assert _table(cond, ws)[0, [0, 6, k - 1, k]].min() > r.worst_margin


def test_rounding_plateau_takes_first_index():
    # 0.5*w rounds to the same value at neighbouring subnormal w, so the
    # minimum 0 is taken at two distinct w (w = 0 gives -0.0 there)
    cond = _cond(-1.0, [-0.0], [0.0], [0.5])
    ws = np.array([4.9e-324, -9.9e-324, -4.9e-324, 0.0, -1.5e-323, 9.9e-324,
                   1.5e-323])
    r = _hand_case(cond, ws)
    assert r.witness == [1.0, 1.0] and _bits(r.worst_margin) == _bits(0.0)


def test_infinite_coeff_is_undefined_at_zero():
    cond = _cond(1.0, [math.inf], [0.0], [math.inf])
    ws = np.array([-1.0, 1.0, 0.0, 2.0])
    assert np.isnan(criteria._coupled_min(cond, ws)[0])
    with pytest.raises(DomainError, match=r"^D undefined at \[1.0, 3.0\]$"):
        criteria._coupled_report("D", cond, np.ones(1), np.arange(1.0, 5.0), ws,
                                 DEFAULT_TOL)


def test_flat_row_takes_first_index():
    cond = _cond(-1.0, [-5.0], [2.0], [0.0])
    ws = np.array([3.0, -1.0, 3.0, 0.5])
    r = _hand_case(cond, ws)
    assert r.worst_margin == 2.0 and r.witness == [1.0, 1.0]


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
def test_catalog_witnesses_match_dense(cid):
    e = catalog(cid)
    _assert_rows_match_dense(e, criteria.DEFAULT_T_GRID, criteria.DEFAULT_Z_GRID)
    _assert_reports_match_dense(e)


@pytest.mark.parametrize("e", _seeded_members(), ids=lambda e: e.name)
def test_seeded_witnesses_match_dense(e):
    # rounding flattens a + coeff*w over neighbouring samples at large t in
    # the exp_hencky families, so many rows have several minimizing w
    _assert_rows_match_dense(e, SMALL_T, SMALL_Z)
    _assert_reports_match_dense(e)


def _split(e, t_grid, z_grid):
    """The folded t rows the route samples, the z samples, w and C and D."""
    ts, zs = criteria._fold_t(t_grid.points()), z_grid.points()
    hj = eval_jet2_array(e.h, ts)
    with np.errstate(all="ignore"):
        ws = zs**2 * eval_jet2_array(e.f, zs).d2
    return ts, zs, ws, criteria._coupled_conditions(ts, hj.d1, hj.d2)


def _assert_rows_match_dense(e, t_grid, z_grid):
    _, _, ws, conds = _split(e, t_grid, z_grid)
    for cond in conds:
        assert np.array_equal(criteria._coupled_min(cond, ws),
                              _coupled_min_dense(cond, ws), equal_nan=True)


def _assert_reports_match_dense(e):
    ts, zs, ws, conds = _split(e, SMALL_T, SMALL_Z)
    reports = voliso_check(e, t_grid=SMALL_T, z_grid=SMALL_Z).reports
    for cid, cond in zip("CD", conds, strict=True):
        margin, witness = _dense_report(cond, ts, zs, ws)
        got, = (r for r in reports if r.condition_id == cid)
        assert got.verdict == criteria._report(cid, margin, witness, 0, DEFAULT_TOL).verdict
        assert _bits(got.worst_margin) == _bits(margin)
        assert got.witness == witness
        assert got.samples_used == cond.mask.sum() * zs.size
