"""Domain scans: classify ellipticity cell by cell over (lambda1, lambda2).

Each grid point is a diagonal deformation gradient diag(lambda1, lambda2);
isotropy makes rotations redundant, and the symmetry (lambda1, lambda2) ->
(lambda2, lambda1) is enforced exactly by computing only the upper triangle
(lambda1 >= lambda2) and mirroring.

Under the split W = h(t) + f(z), Legendre-Hadamard ellipticity at one such
F reduces to the split conditions at the pair t = lambda1/lambda2 >= 1 and
w = z^2 f''(z), z = lambda1*lambda2:

    A:   t^2 h''(t) + w,
    B':  2t h'(t)/(t - 1), the Knowles-Sternberg condition (ii), with its
         limit 2h''(1) at t = 1,
    C:   max(q_C + w, a + (b - c) w), dropped at t = 1,
    D:   max(q_D - w, a + (b + c) w),

with the C and D coefficients from ``energy._coupled_conditions``, which
the vol-iso and main routes of ``criteria`` share.  A cell's margin is the
smallest of the four.  The conditions are exact at each F, so no direction
is sampled and a label can be wrong only through rounding.  Output goes to
CSV (deterministic bytes) or a simple SVG heat map.
"""

from __future__ import annotations

import math
from typing import NamedTuple, TextIO, Tuple

import numpy as np

from .energy import (DEFAULT_SCAN_GRID, DEFAULT_TOL, SplitEnergy,
                     _coupled_conditions)
from .errors import DegenerateGrid
from .expr import eval_jet2_array

# verdict by code 2 * (margin < -tol) + (margin > tol)
_LABELS = np.array(["Boundary", "Elliptic", "NonElliptic", "NonElliptic"],
                   dtype=object)


class EllipticityMap(NamedTuple):
    """Scan result: per-cell smallest split-condition margin and verdict.

    ``verdicts`` holds "Elliptic", "NonElliptic" or "Boundary" strings in
    the same (n_lambda1, n_lambda2) layout as ``margins``.
    """

    lambda1: np.ndarray
    lambda2: np.ndarray
    margins: np.ndarray
    verdicts: np.ndarray

    def worst(self) -> Tuple[float, float, float]:
        """The first cell of smallest margin among the defined (non-NaN)
        cells; the first cell, with a NaN margin, when none is defined."""
        flat = self.margins.ravel()
        defined = np.flatnonzero(~np.isnan(flat))
        k = int(defined[np.argmin(flat[defined])]) if defined.size else 0
        i, j = divmod(k, self.lambda2.size)
        return float(self.lambda1[i]), float(self.lambda2[j]), float(self.margins[i, j])


def scan_domain(
    e: SplitEnergy,
    lambda_range: Tuple[float, float] = (DEFAULT_SCAN_GRID.lo, DEFAULT_SCAN_GRID.hi),
    n_points: int = DEFAULT_SCAN_GRID.n,
    tol: float = DEFAULT_TOL,
    spacing: str = "log",
) -> EllipticityMap:
    """Scan a square grid of principal stretches.

    Each cell's margin is min(A, B', C, D) at its stretches: NonElliptic
    below -tol, Elliptic above tol, Boundary in between.  ``spacing`` is
    "log" (default, matching the wide-range preset) or "linear" for a plot
    range like 0..15; cells whose evaluation produces NaN are marked
    "Boundary" with a NaN margin rather than aborting.  The range must
    satisfy 0 < lambda_min < lambda_max < inf, n_points must be at least 1
    and ``spacing`` one of the two, otherwise ``DegenerateGrid`` is raised.
    """
    lo, hi = lambda_range
    if not 0.0 < lo < hi < math.inf:
        raise DegenerateGrid(
            f"scan range [{lo:g}, {hi:g}] must satisfy 0 < lambda_min < "
            "lambda_max < inf")
    if n_points < 1:
        raise DegenerateGrid(f"scan needs at least one point, got {n_points}")
    if spacing == "log":
        lg = np.log10(lambda_range)
        lam = np.logspace(lg[0], lg[1], n_points)
    elif spacing == "linear":
        lam = np.linspace(lo, hi, n_points)
    else:
        raise DegenerateGrid(f"unknown spacing {spacing!r}")

    # only the upper triangle, columns the larger stretch; the rest is the
    # exact mirror
    ii, jj = np.triu_indices(n_points)
    with np.errstate(all="ignore"):
        t = lam[jj] / lam[ii]
        z = lam[jj] * lam[ii]
        hj = eval_jet2_array(e.h, t)
        fpp = eval_jet2_array(e.f, z).d2
        # A, B' (its limit on the diagonal) and D everywhere, C off the
        # diagonal
        cond_c, cond_d = _coupled_conditions(t, hj.d1, hj.d2)
        w = z**2 * fpp
        b = np.where(cond_c.mask, 2.0 * t * hj.d1 / (t - 1.0), 2.0 * hj.d2)
        vals = np.minimum(np.minimum(t**2 * hj.d2 + w, b), cond_d.margin(w))
        vals = np.where(cond_c.mask, np.minimum(vals, cond_c.margin(w)), vals)

    margins = np.empty((n_points, n_points))
    margins[jj, ii] = vals
    margins[ii, jj] = vals  # exact symmetry by construction

    # NaN compares false both ways and lands on Boundary; a negative tol
    # sets both bits, and NonElliptic takes precedence
    code = 2 * (margins < -tol) + (margins > tol)
    return EllipticityMap(lambda1=lam, lambda2=lam, margins=margins,
                          verdicts=_LABELS[code])


def emit_csv(emap: EllipticityMap, stream: TextIO) -> None:
    """Write one row per cell; numeric fields use 9 significant digits.

    One write per lambda1 row, formatted by one ``%`` call over an object
    array of the row's fields; ``%.9g`` of a float is its ``.9g`` text.
    """
    stream.write("lambda1,lambda2,verdict,min_margin\n")
    n = emap.lambda2.size
    line = "%s%s%s,%.9g\n" * n
    fields = np.empty((n, 4), dtype=object)  # l1 text, l2 text, verdict, margin
    fields[:, 1] = [f"{l2:.9g}," for l2 in emap.lambda2.tolist()]
    for l1, verdicts, margins in zip(emap.lambda1.tolist(), emap.verdicts,
                                     emap.margins):
        fields[:, 0] = f"{l1:.9g},"
        fields[:, 2] = verdicts
        fields[:, 3] = margins
        stream.write(line % tuple(fields.ravel().tolist()))


_COLORS = {"Elliptic": "#3a7ca5", "NonElliptic": "#d1495b", "Boundary": "#edae49"}


def emit_svg(emap: EllipticityMap, stream: TextIO) -> None:
    """Render the verdict grid as an SVG 1.1 heat map in log coordinates.
    A map that is not square raises ``DegenerateGrid`` before any write."""
    cell, margin = 12, 40  # pixels: side of a cell, border around the grid
    n = emap.lambda1.size
    if emap.verdicts.shape != (n, n):
        raise DegenerateGrid("an SVG map needs a square grid, got %d x %d"
                             % emap.verdicts.shape)
    side = n * cell
    width = side + 2 * margin
    height = side + 2 * margin
    stream.write(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
    )
    stream.write(f'<rect width="{width}" height="{height}" fill="white"/>\n')
    # one write per lambda1 column of cells: each cell is the column's head
    # and the text after it, taken from a table of those texts by label code
    # (the order of _LABELS) and lambda2 index
    table = np.array([[f'y="{margin + (n - 1 - j) * cell}" width="{cell}" '
                       f'height="{cell}" fill="{_COLORS[v]}"/>\n'
                       for j in range(n)] for v in _LABELS], dtype=object)
    code = (emap.verdicts == "Elliptic") + 2 * (emap.verdicts == "NonElliptic")
    for i, cells in enumerate(table[code, np.arange(n)].tolist()):
        head = f'<rect x="{margin + i * cell}" '
        stream.write(head + head.join(cells))
    # diagonal lambda1 = lambda2 guide, bottom-left to top-right
    stream.write(
        f'<line x1="{margin}" y1="{margin + side}" x2="{margin + side}" '
        f'y2="{margin}" stroke="black" stroke-dasharray="4,4"/>\n'
    )
    lo = f"{emap.lambda1[0]:.3g}"
    hi = f"{emap.lambda1[-1]:.3g}"
    stream.write(
        f'<text x="{margin + side // 2}" y="{height - 8}" '
        'text-anchor="middle" font-size="14">lambda1</text>\n'
    )
    stream.write(
        f'<text x="12" y="{margin + side // 2}" font-size="14" '
        f'transform="rotate(-90 12 {margin + side // 2})" '
        'text-anchor="middle">lambda2</text>\n'
    )
    stream.write(
        f'<text x="{margin}" y="{height - 24}" font-size="10" '
        f'text-anchor="middle">{lo}</text>\n'
    )
    stream.write(
        f'<text x="{margin + side}" y="{height - 24}" font-size="10" '
        f'text-anchor="middle">{hi}</text>\n'
    )
    stream.write("</svg>\n")
