"""The range rule for the coupled split conditions C and D: at each t row,
the least of max(q + sign*w, a + coeff*w) over [lo, hi], the range of the
sampled w, is taken at lo, at hi or at the crossing of the two lines.
Checked against the margin at points spread over the range, against the
exact minimum in rational arithmetic, against the sampled (t, z) table the
range contains, and by re-checking each failure's witness."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankone2d import GridSpec, catalog, criteria, make_split, voliso_check
from rankone2d.energy import CATALOG, DEFAULT_TOL, _coupled_conditions
from rankone2d.errors import DegenerateGrid, DomainError, RankOneError
from rankone2d.expr import eval_jet2_array
from rankone2d.scalar_inf import weighted_second

from test_named_energies import NAMED

SMALL_T = GridSpec(1e-3, 1e3, 801)
SMALL_Z = GridSpec(1e-3, 1e3, 301)


def _cond(sign, q, a, coeff):
    q, a, coeff = (np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in (q, a, coeff))
    return criteria._Coupled(q, sign, a, coeff, np.ones(q.size, dtype=bool))


def _sampled(cid, cond, ws, ts=None):
    """The report over the samples ``ws`` of w at z = 1, 2, ..., on rows at
    ``ts``, by default t = 1."""
    ts = np.ones(cond.q.size) if ts is None else np.asarray(ts, dtype=np.float64)
    return criteria._coupled_report(cid, cond, ts, np.arange(1.0, len(ws) + 1),
                                    np.asarray(ws, dtype=np.float64), DEFAULT_TOL)


def _spread(lo, hi):
    """Both ends and 64 points between them: evenly spaced on a range of
    finite width, else on a symmetric log scale."""
    with np.errstate(all="ignore"):
        width = hi - lo
        if math.isfinite(width):
            inner = lo + width * np.linspace(0.0, 1.0, 64)
        else:
            pool = np.logspace(-300, 300, 32)
            pool = np.r_[-pool[::-1], 0.0, pool]
            inner = pool[(pool >= lo) & (pool <= hi)]
    return np.r_[lo, np.clip(inner, lo, hi), hi]


# ---------------------------------------------------------------------------
# the rule on one row and one range

_SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf]
_number = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(_SPECIAL),
                    st.floats(allow_nan=False))
_moderate = st.floats(-1e6, 1e6)


@st.composite
def rows(draw, number=_number, finite=False):
    """(sign, q, a, coeff); parallel lines (coeff == sign) and flat ones on
    purpose and, unless ``finite``, infinite slopes and a NaN in a tenth of
    the rows."""
    sign = draw(st.sampled_from([1.0, -1.0]))
    q, a = draw(number), draw(number)
    slopes = [0.0, sign] if finite else [0.0, sign, math.inf, -math.inf]
    coeff = draw(st.one_of(number, st.sampled_from(slopes)))
    if not finite and draw(st.integers(0, 9)) == 0:
        which = draw(st.integers(0, 2))
        q, a, coeff = [math.nan if i == which else v for i, v in enumerate((q, a, coeff))]
    return sign, q, a, coeff


@st.composite
def cases(draw, number=_number, finite=False):
    """A row and [lo, hi]: random, equal ends, ends one ulp apart, an end
    at 0, ends around 0, or ends a few ulps around the computed crossing."""
    row = sign, q, a, coeff = draw(rows(number, finite))
    shape = draw(st.sampled_from(["random", "equal", "ulp", "zero", "around", "crossing"]))
    x = draw(number)
    if shape == "random":
        lo, hi = sorted([x, draw(number)])
    elif shape == "equal":
        lo = hi = x
    elif shape == "ulp":
        lo, hi = x, math.nextafter(x, math.inf)
    elif shape == "zero":
        lo, hi = sorted([draw(st.sampled_from([0.0, -0.0])), x])
    elif shape == "around":
        lo, hi = -abs(x), abs(draw(number))
    else:
        with np.errstate(all="ignore"):
            cross = np.float64(a - q) / np.float64(sign - coeff)
        if math.isfinite(cross):
            x = float(cross)
        lo, hi = x, x
        for _ in range(draw(st.integers(0, 4))):
            lo = math.nextafter(lo, -math.inf)
        for _ in range(draw(st.integers(0, 4))):
            hi = math.nextafter(hi, math.inf)
    return row, (lo, hi)


@settings(max_examples=500, deadline=None)
@given(case=cases())
@example(case=((1.0, math.inf, 0.0, math.inf), (-1.0, 1.0)))  # inf/inf crossing
@example(case=((-1.0, -math.inf, 2.0, -math.inf), (-3.0, 0.5)))
def test_rule_is_a_lower_bound_over_the_range(case):
    (sign, q, a, coeff), (lo, hi) = case
    cond = _cond(sign, q, a, coeff)
    points = _spread(lo, hi)
    with np.errstate(all="ignore"):
        margins = cond.margin(points, 0)
        # a row is undefined only at an end or, with an infinite slope, at 0
        ends = np.array([lo, hi] + ([0.0] if lo <= 0.0 <= hi else []))
        undefined = np.isnan(cond.margin(ends, 0)).any()
    if undefined:
        with pytest.raises(DomainError, match=r"^C undefined at \[1\.0, [12]\.0\]$"):
            _sampled("C", cond, [lo, hi])
        return
    r = _sampled("C", cond, [lo, hi])
    assert r.worst_margin <= margins.min()
    assert r.witness[0] == 1.0 and r.witness[1] in (1.0, 2.0)
    assert r.samples_used == 2


def _exact_min(sign, q, a, coeff, lo, hi):
    """min over w in [lo, hi] of max(q + sign*w, a + coeff*w), in rationals."""
    q, a, coeff, lo, hi = map(Fraction, (q, a, coeff, lo, hi))
    ws = [lo, hi]
    if coeff != sign:
        cross = (a - q) / (sign - coeff)
        if lo < cross < hi:
            ws.append(cross)
    return min(max(q + sign * w, a + coeff * w) for w in ws)


@settings(max_examples=500, deadline=None)
@given(case=cases(number=_moderate, finite=True))
def test_rule_is_the_exact_minimum_up_to_rounding(case):
    (sign, q, a, coeff), (lo, hi) = case
    r = _sampled("C", _cond(sign, q, a, coeff), [lo, hi])
    scale = abs(q) + abs(a) + (1.0 + abs(coeff)) * max(abs(lo), abs(hi))
    exact = _exact_min(sign, q, a, coeff, lo, hi)
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    assert abs(Fraction(r.worst_margin) - exact) <= 8 * (eps * scale + tiny)


# ---------------------------------------------------------------------------
# by hand: the witness, ties, NaN samples and rows


def test_crossing_inside_the_range():
    # C: max(w, 2 - w) is least, 1, at w = 1; its nearest sample is w = 1.5
    cond = _cond(1.0, [0.0], [2.0], [-1.0])
    ws = np.array([3.0, -2.0, 1.5, 0.25, 1.5])
    r = _sampled("C", cond, ws)
    assert r.worst_margin == 1.0 and r.witness == [1.0, 3.0]
    assert r.samples_used == 5


@pytest.mark.parametrize("coeff, z", [(-2.0, 2.0), (-1.0, 2.0), (0.5, 3.0)])
def test_least_at_an_end_is_the_first_such_sample(coeff, z):
    # D: max(-w, 10 + coeff*w) over [-4, 7]: falling lines, parallel ones
    # among them, are least at hi, the first sample of the largest w; lines
    # that cross below lo, at lo
    cond = _cond(-1.0, [0.0], [10.0], [coeff])
    ws = np.array([1.0, 7.0, -4.0, 7.0, -4.0])
    r = _sampled("D", cond, ws)
    assert r.witness == [1.0, z]
    w = ws[int(z) - 1]
    assert r.worst_margin == max(-w, 10.0 + coeff * w)


def test_first_row_with_the_least_minimum():
    cond = _cond(1.0, [5.0, -3.0, -3.0], [5.0, -3.0, -3.0], [0.0, 0.0, 0.0])
    r = _sampled("C", cond, [-1.0, 1.0], ts=[2.0, 3.0, 4.0])
    assert r.witness[0] == 3.0 and r.worst_margin == -3.0


def test_flat_row_takes_first_index():
    # max(2, -5 - w) is 2 over the whole range: the least w, first sampled
    # at z = 2, is the witness
    cond = _cond(-1.0, [-5.0], [2.0], [0.0])
    ws = np.array([3.0, -1.0, 3.0, 0.5, -1.0])
    r = _sampled("D", cond, ws)
    assert r.worst_margin == 2.0 and r.witness == [1.0, 2.0]


def test_rounded_crossing_is_not_trusted():
    # the computed crossing (a - q)/(1 - coeff) lands on the wrong side of
    # samples one ulp apart, so the margin there is above theirs; the lower
    # line at the crossing is below every one of them
    cond = _cond(1.0, [0.05202897425988651], [0.6836861907765345],
                 [-1.0039615758421696])
    x = (cond.a[0] - cond.q[0]) / (1.0 - cond.coeff[0])
    ws = x + np.arange(-3, 4) * np.spacing(x)
    sampled = cond.margin(ws, 0)
    assert cond.margin(x, 0) > sampled.min()
    r = _sampled("C", cond, ws)
    assert r.worst_margin <= sampled.min() and r.witness == [1.0, 4.0]


def test_rounding_plateau_takes_first_index():
    # 0.5*w rounds to the same value at neighbouring subnormal w; the lines
    # cross at w = 0, which is not sampled, and of the two samples nearest
    # it the first is the witness
    cond = _cond(-1.0, [-0.0], [0.0], [0.5])
    ws = np.array([4.9e-324, -9.9e-324, -4.9e-324, -1.5e-323, 9.9e-324, 1.5e-323])
    r = _sampled("D", cond, ws)
    assert r.witness == [1.0, 1.0] and r.worst_margin == 0.0


def test_infinite_coeff_is_undefined_at_zero():
    # coeff*w is inf * 0 at w = 0, inside the range: the row is undefined
    # there, though its crossing is inf/inf and both ends are +inf, and the
    # witness is the sample of w = 0
    cond = _cond(1.0, [math.inf], [0.0], [math.inf])
    ws = np.array([-1.0, 1.0, 0.0, 2.0])
    with pytest.raises(DomainError, match=r"^C undefined at \[1\.0, 3\.0\]$"):
        _sampled("C", cond, ws)


def test_undefined_rows_are_skipped_by_the_mask():
    cond = criteria._Coupled(np.array([math.nan, 1.0]), 1.0, np.zeros(2), np.zeros(2),
                             np.array([False, True]))
    r = _sampled("C", cond, [0.0, 1.0], ts=[1.0, 2.0])
    assert r.witness == [2.0, 1.0] and r.samples_used == 2
    with pytest.raises(DegenerateGrid, match="^no admissible samples for C$"):
        _sampled("C", cond._replace(mask=np.zeros(2, dtype=bool)), [0.0, 1.0])


def test_nan_sample_names_the_first_row_and_the_first_nan():
    cond = _cond(-1.0, [1.0, 2.0], [1.0, 2.0], [1.0, 1.0])
    ws = np.array([1.0, math.inf, math.nan, 0.0, math.nan])
    with pytest.raises(DomainError, match=r"^D undefined at \[5\.0, 3\.0\]$"):
        _sampled("D", cond, ws, ts=[5.0, 6.0])


def test_infinite_w_takes_its_limit():
    # D falls to -inf at w = +inf where its slope b + c is negative, at the
    # first infinite sample
    cond = _cond(-1.0, [3.0], [1.0], [-2.0])
    ws = np.array([1.0, math.inf, 2.0, math.inf])
    r = _sampled("D", cond, ws)
    assert r.verdict == "Unbounded" and r.witness == [1.0, 2.0]


# ---------------------------------------------------------------------------
# route level


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


def _split(e, t_grid, z_grid):
    """The folded t rows the route samples, the z samples, w and C and D."""
    ts, zs = criteria._fold_t(t_grid.points()), z_grid.points()
    hj = eval_jet2_array(e.h, ts)
    return ts, zs, weighted_second(e.f, zs), _coupled_conditions(ts, hj.d1, hj.d2)


def _assert_range_is_below_the_table(e):
    """The range holds every sample of w, so its minimum is at most the
    least margin of the sampled (t, z) table, and equal to it when that lies
    at the least or the greatest sample of w; the witness is a sample whose
    margin is at least the reported one."""
    ts, zs, ws, conds = _split(e, SMALL_T, SMALL_Z)
    reports = voliso_check(e, t_grid=SMALL_T, z_grid=SMALL_Z).reports
    for cid, cond in zip("CD", conds, strict=True):
        got, = (r for r in reports if r.condition_id == cid)
        with np.errstate(all="ignore"):
            table = cond.margin(ws[:, None], cond.mask).T
            ends = cond.margin(np.array([[ws.min()], [ws.max()]]), cond.mask)
        assert got.worst_margin <= table.min()
        if ends.min() == table.min():
            assert got.worst_margin == table.min()
        assert got.samples_used == table.size
        (i,) = np.flatnonzero(ts == got.witness[0])
        (j,) = np.flatnonzero(zs == got.witness[1])
        assert cond.mask[i]
        with np.errstate(all="ignore"):
            assert cond.margin(ws[j], i) >= got.worst_margin


@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_catalog_witnesses_match_dense(cid):
    _assert_range_is_below_the_table(catalog(cid))


@pytest.mark.parametrize("e", _seeded_members(), ids=lambda e: e.name)
def test_seeded_witnesses_match_dense(e):
    # rounding flattens a + coeff*w over neighbouring samples at large t in
    # the exp_hencky families, so many rows have several minimizing w
    _assert_range_is_below_the_table(e)


_ENERGIES = {**{cid: catalog(cid) for cid in sorted(CATALOG)},
             **{name: make_split(h, f, params=p) for name, (h, f, p, _, _)
                in NAMED.items()}}


def _failures(e):
    try:
        reports = voliso_check(e).reports
    except RankOneError:
        return []
    return [r for r in reports if r.condition_id in "CD" and r.verdict == "Fails"]


def test_failures_to_recheck():
    assert sorted((name, r.condition_id) for name, e in _ENERGIES.items()
                  for r in _failures(e)) == [
        ("exp_hencky_coupled", "D"), ("hencky", "C"), ("hencky", "D"),
        ("logbig", "C"), ("stiff", "D"), ("stiff(6)", "D")]


@pytest.mark.parametrize("name", sorted(_ENERGIES))
def test_failure_witness_rechecks(name):
    """A failing C or D fails at its printed (t, z) too, by more than tol."""
    e = _ENERGIES[name]
    for r in _failures(e):
        t, z = (np.array([x]) for x in r.witness)
        hj = eval_jet2_array(e.h, t)
        cond = _coupled_conditions(t, hj.d1, hj.d2)["CD".index(r.condition_id)]
        with np.errstate(all="ignore"):
            margin = cond.margin(weighted_second(e.f, z))[0]
        assert margin < -DEFAULT_TOL, (r.condition_id, r.witness, margin)
