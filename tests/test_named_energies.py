"""The correctness ratchet: energies whose truth is known from the paper's
Hadamard theorem or a closed form, against the ``check`` exit code, the
verdict of each route and that of ``classify``.

Each (energy, column) pair is one test.  A cell that is wrong today is a
strict xfail naming the open ROADMAP item that mends it: a change that
breaks a right cell fails, and so does one that mends a wrong cell
without removing its mark.  A route or ``classify`` that raises reads as
the name of its error.
"""

import functools
import os
import tempfile

import pytest
from click.testing import CliRunner

from rankone2d import (classify_structure, errors, ks_check, main_check, make_split,
                       voliso_check)
from rankone2d.cli import main

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
}

COLUMNS = ("exit", "main", "voliso", "ks", "classify")
ROUTES = ("main", "voliso", "ks")

_TAIL = "items 10, 20: f0 is read unbounded from a tail that levels off"
_PAST_GRIDS = "items 10, 20: the failure lies past the t grid of every route"
_PAST_Z = "item 10: the failure lies past the (t, z) grids of vol-iso and KS"
_OVERFLOW = "item 4: an overflowed jet raises DomainError instead of taking its limit"

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
}


def _verdict(decide):
    try:
        return decide()
    except errors.RankOneError as exc:
        return type(exc).__name__


@functools.cache
def _outcome(name: str) -> dict:
    """Every column of one energy: ``check``'s exit code from the command
    line, run in this process on an energy file, and the rest from the
    library on the default grids."""
    h, f, params, _, _ = NAMED[name]
    e = make_split(h, f, params=params)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "named.energy")
        with open(path, "w") as fh:
            entries = {"h": h, "f": f, **params}
            fh.write("".join(f"{k} = {v}\n" for k, v in entries.items()))
        code = CliRunner().invoke(main, ["check", "--energy-file", path]).exit_code
    return {
        "exit": code,
        "main": _verdict(lambda: main_check(e).verdict.overall),
        "voliso": _verdict(lambda: voliso_check(e).overall),
        "ks": _verdict(lambda: ks_check(e).overall),
        "classify": _verdict(lambda: classify_structure(e).verdict),
    }


def _expected(name: str, column: str):
    _, _, _, truth, hadamard = NAMED[name]
    if column == "exit":
        return {R1C: 0, NOT: 1}[truth]
    if column == "classify":  # it leaves the general energies here to check
        return truth if hadamard else None
    return truth


@pytest.mark.parametrize("name, column", [
    pytest.param(name, column, id=f"{name}-{column}",
                 marks=[pytest.mark.xfail(strict=True, reason=WRONG[name, column])]
                 if (name, column) in WRONG else [])
    for name in NAMED for column in COLUMNS])
def test_named_energy(name, column):
    assert _outcome(name)[column] == _expected(name, column)
