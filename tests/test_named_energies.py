"""The correctness ratchet: energies whose truth is known from the paper's
Hadamard theorem or a closed form, against the ``check`` exit code, the
verdict of each route, that of ``classify`` and the oracle's summary, and
a sweep of the theorem itself over scales and volumetric atoms, and a
sweep of the catalog over scales c of the whole energy.

Each (energy, column) pair is one test.  A cell that is wrong today is a
strict xfail naming the open ROADMAP item that mends it: a change that
breaks a right cell fails, and so does one that mends a wrong cell
without removing its mark.  A route, ``classify`` or the oracle that
raises reads as the name of its error.
"""

import functools
import os
import tempfile

import pytest
from click.testing import CliRunner

from rankone2d import (brute_force_check, classify_structure, errors, ks_check,
                       main_check, make_split, voliso_check)
from rankone2d.cli import main
from rankone2d.energy import CATALOG

R1C, NOT = "RankOneConvex", "NotRankOneConvex"
HADAMARD = "(mu/2)*(t + 1/t)"
NEAR_HADAMARD = "(t + 1/t)/2 + c*log(t)^4"
STIFF = "0.35*log(t)^2"

# name: (h, f, parameters, truth, whether classify reads h as Hadamard)
NAMED = {
    "stiff": (STIFF, "2.6*exp(1.4*log(z)^2)", {}, NOT, False),
    "stiff(6)": (STIFF, "2.6*exp(6*log(z)^2)", {}, NOT, False),
    "stiff(10)": (STIFF, "2.6*exp(10*log(z)^2)", {}, NOT, False),
    # z^2 f'' tends to f0 = -2 from above and h0 = 4 sqrt(3): every condition holds
    "far": ("t^2 + 1/t^2", "log(1 + (z/100000)^2)", {}, R1C, False),
    # the theorem: rank-one convex iff f is convex, and f'' < 0 for z > 1000
    "diamond": ("(t + 1/t)/2", "(1/100)*log(1 + (z/1000)^2)", {}, NOT, True),
    "hadfar": (HADAMARD, "log(1 + (z/100000)^2)", {"mu": 1.0}, NOT, True),
    "had_tail": (HADAMARD, "-(1/100000)*log(1 + (z/1000)^2)", {"mu": 100.0}, NOT,
                 True),
    "had_tanh": (HADAMARD, "tanh(z)", {"mu": 100.0}, NOT, True),
    "had_log2": (HADAMARD, "(1/100)*log(1 + (z/1000)^2)", {"mu": 100.0}, NOT, True),
    # t^2 h'' = 1/t - 4c log(t)^3 + 12c log(t)^2 -> -inf for every c > 0
    "near_had(1e-9)": (NEAR_HADAMARD, "(z - 1)^2", {"c": 1e-9}, NOT, False),
    "near_had(1e-12)": (NEAR_HADAMARD, "(z - 1)^2", {"c": 1e-12}, NOT, False),
    # the theorem: f is convex, though f'' = 2e308 overflows
    "big": ("(t + 1/t)/2", "1e308*(z - 1)^2", {}, R1C, True),
    # z^2 f'' tends to -2
    "logbig": ("(t + 1/t)/2", "log(1 + (1e75*z)^2)", {}, NOT, True),
    # the paper's counterexample: z^2 f'' = -1, so KS_i fails at every t > 1
    # and KS_iv has no sample left
    "had_log": ("(t + 1/t)/2", "log(z)", {}, NOT, True),
    # z^2 f'' -> -1, though (u^2 - 1)^1.5 overflows in arcosh's g''
    "had_arcosh": ("(t + 1/t)/2", "arcosh(1e150*z)", {}, NOT, True),
}

COLUMNS = ("exit", "main", "voliso", "ks", "classify", "oracle")
ROUTES = ("main", "voliso", "ks")

_TAIL = "items 10, 20: f0 is read unbounded from a tail that levels off"
_PAST_GRIDS = "items 10, 20: the failure lies past the t grid of every route"
_PAST_Z = "item 10: the failure lies past the (t, z) grids of vol-iso and KS"
_OVERFLOW = "item 4: an overflowed jet raises DomainError instead of taking its limit"
_PAST_LAMBDA = "item 10: the failure lies past the oracle's stretch range"
_RECHECK = ("item 2: the kernel's violation re-checks as positive at the float "
            "witness")
_OVERFLOW_F = "item 4: f's jet overflows on the oracle's grid and raises OverflowValue"

WRONG = {
    ("far", "exit"): _TAIL,
    ("far", "main"): _TAIL,
    **{("had_tail", c): _PAST_GRIDS for c in ("exit", *ROUTES)},
    **{("near_had(1e-12)", c): _PAST_GRIDS for c in ("exit", *ROUTES)},
    **{(name, c): _PAST_Z for name in ("hadfar", "near_had(1e-9)")
       for c in ("voliso", "ks")},
    ("stiff(6)", "exit"): _OVERFLOW,
    ("stiff(6)", "main"): _OVERFLOW,
    **{("stiff(10)", c): _OVERFLOW for c in ("exit", *ROUTES)},
    ("big", "exit"): _OVERFLOW,
    ("big", "ks"): _OVERFLOW,
    ("stiff(6)", "oracle"): _RECHECK,
    **{(name, "oracle"): _PAST_LAMBDA for name in (
        "diamond", "hadfar", "had_tail", "had_log2", "near_had(1e-9)",
        "near_had(1e-12)")},
    ("stiff(10)", "oracle"): _OVERFLOW_F,
    ("big", "oracle"): _OVERFLOW_F,
}


# how each column but the exit code reads an energy
READ = {
    "main": lambda e: main_check(e).verdict.overall,
    "voliso": lambda e: voliso_check(e).overall,
    "ks": lambda e: ks_check(e).overall,
    "classify": lambda e: classify_structure(e).verdict,
    "oracle": lambda e: brute_force_check(e).summary,
}


def _verdict(column, e, read=READ):
    try:
        return read[column](e)
    except errors.RankOneError as exc:
        return type(exc).__name__


def _check_exit(h: str, f: str, params: dict) -> int:
    """``check``'s exit code from the command line, run in this process on
    an energy file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "named.energy")
        with open(path, "w") as fh:
            entries = {"h": h, "f": f, **params}
            fh.write("".join(f"{k} = {v}\n" for k, v in entries.items()))
        return CliRunner().invoke(main, ["check", "--energy-file", path]).exit_code


@functools.cache
def _outcome(name: str) -> dict:
    """Every column of one energy: the exit code from ``_check_exit`` and the
    rest from the library on the default grids."""
    h, f, params, _, _ = NAMED[name]
    e = make_split(h, f, params=params)
    return {"exit": _check_exit(h, f, params),
            **{column: _verdict(column, e) for column in READ}}


def _expected(name: str, column: str):
    _, _, _, truth, hadamard = NAMED[name]
    if column == "exit":
        return {R1C: 0, NOT: 1}[truth]
    if column == "classify":  # it leaves the general energies here to check
        return truth if hadamard else None
    if column == "oracle":
        return "Violation" if truth == NOT else "NoViolationFound"
    return truth


@pytest.mark.parametrize("name, column", [
    pytest.param(name, column, id=f"{name}-{column}",
                 marks=[pytest.mark.xfail(strict=True, reason=WRONG[name, column])]
                 if (name, column) in WRONG else [])
    for name in NAMED for column in COLUMNS])
def test_named_energy(name, column):
    assert _outcome(name)[column] == _expected(name, column)


# The theorem as a sweep: with h = (mu/2)(t + 1/t), main, vol-iso, KS and
# classify read RankOneConvex iff f is convex; f atom: whether it is convex
SCALES = (0.01, 1.0, 100.0)
ATOMS = {
    "kappa*(z - 1)^2": True,
    "kappa*(z - log(z) - 1)": True,
    "kappa*(z + 1/z)": True,
    "kappa*z*log(z)": True,
    "-kappa*log(z)": True,
    "kappa*log(z)^2": False,
    "kappa*((z - 1/z)^4 - (z - 1/z)^2)": False,
    "kappa*tanh(z)": False,
    "mu*log(z)": False,
    "kappa*arcosh(1 + z)": False,
}
SWEEP_COLUMNS = ("main", "voliso", "ks", "classify")

# A = mu/t + z^2 f''(z) turns negative only near t = 1.3e4
_PAST_T = "item 10: the failure lies past the t grid of vol-iso and KS"
SWEEP_WRONG = {(f, 100.0, 0.01, c): _PAST_T
               for f in ("kappa*tanh(z)", "kappa*arcosh(1 + z)")
               for c in ("voliso", "ks")}


@functools.cache
def _hadamard(f: str, mu: float, kappa: float):
    return make_split(HADAMARD, f, params={"mu": mu, "kappa": kappa})


@pytest.mark.parametrize("f, mu, kappa, column", [
    pytest.param(f, mu, kappa, column,
                 id=f"{f}-mu={mu:g}-kappa={kappa:g}-{column}",
                 marks=[pytest.mark.xfail(strict=True, reason=SWEEP_WRONG[key])]
                 if (key := (f, mu, kappa, column)) in SWEEP_WRONG else [])
    for f in ATOMS for mu in SCALES for kappa in SCALES for column in SWEEP_COLUMNS])
def test_hadamard_theorem(f, mu, kappa, column):
    assert _verdict(column, _hadamard(f, mu, kappa)) == (R1C if ATOMS[f] else NOT)


# Rank-one convexity is a cone property: c*W is rank-one convex iff W is, so
# each column of a catalog energy scaled by c > 0 reads as at c = 1
SCALE_FACTORS = (1e-12, 1e-6, 1e6, 1e12)
SCALE_COLUMNS = ("exit", *ROUTES, "oracle")
SCALE_READ = {**{route: READ[route] for route in ROUTES},
              "oracle": lambda e: brute_force_check(e, seed=1).summary}

_ABSOLUTE_TOL = "item 24: margins of order c are judged against the absolute tol"
SCALE_WRONG = {
    **{(cid, 1e-12, column): _ABSOLUTE_TOL
       for cid in ("hencky", "exp_hencky_iso", "exp_hencky_coupled", "double_well_vol")
       for column in ("exit", *ROUTES)},
    **{(cid, 1e-12, "oracle"): _ABSOLUTE_TOL
       for cid in ("hencky", "exp_hencky_iso", "exp_hencky_coupled")},
}


@functools.cache
def _scaled(catalog_id: str, c: float) -> dict:
    """Every scale column of ``c*(h)``, ``c*(f)`` at the catalog defaults."""
    entry = CATALOG[catalog_id]
    h, f = f"{c!r}*({entry.h})", f"{c!r}*({entry.f})"
    e = make_split(h, f, params=entry.defaults)
    return {"exit": _check_exit(h, f, entry.defaults),
            **{column: _verdict(column, e, SCALE_READ) for column in SCALE_READ}}


@pytest.mark.parametrize("catalog_id, c, column", [
    pytest.param(cid, c, column, id=f"{cid}-c={c:g}-{column}",
                 marks=[pytest.mark.xfail(strict=True, reason=SCALE_WRONG[key])]
                 if (key := (cid, c, column)) in SCALE_WRONG else [])
    for cid in CATALOG for c in SCALE_FACTORS for column in SCALE_COLUMNS])
def test_scale_invariance(catalog_id, c, column):
    assert _scaled(catalog_id, c)[column] == _scaled(catalog_id, 1.0)[column]
