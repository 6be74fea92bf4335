"""Independent references the tests check the package against.

None of these is run by a subcommand or another module of the package: the
tokenizer as a scan that matches one token at a time and looks past the
whitespace for the offset of a character no token starts with, the
recursive-descent grammar the parser's binding-power loop replaced, one
method per precedence level, the canonical text of an expression tree, the
energy on stretches and on matrices, the general form g(x, y) and its
partials on (t, z) samples (Knowles-Sternberg takes the partials from the
jets it already holds), a rotation matrix to build deformation gradients,
the rank-one second derivative as a 5-point finite difference of W and the
acoustic tensor as a finite-difference Hessian of W (the oracle's kernel
minimises the closed-form 2x2 tensor instead), the quadratic linearized
energy and the split conditions on the unfolded t grid (the routes fold it
onto t >= 1).
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, Optional

import numpy as np

from rankone2d import criteria
from rankone2d.energy import GridSpec, SingularPair, SplitEnergy, _coupled_conditions
from rankone2d.errors import ExpressionSyntaxError, RankOneError
from rankone2d.expr import (Expr, _bind, _fold, _Parser, eval_jet2,
                             eval_jet2_array)
from rankone2d.oracle import svd2

# the 5-point second difference's step along xi (x) eta, relative to |F|
_FD_STEP = 1e-3
# the Hessian stencil's step relative to |F|
_HESSIAN_STEP = 3e-4


class LeftGLplus(RankOneError):
    """A finite-difference step left GL+(2); shrink the step."""


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)


def reference_tokenize(source: str) -> list:
    """The tokens of ``source`` as ``expr._tokenize`` gives them."""
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            stripped = source[pos:].lstrip()
            if not stripped:  # trailing whitespace
                break
            at = len(source) - len(stripped)
            raise ExpressionSyntaxError(f"unexpected character {source[at]!r}", at)
        kind = m.lastgroup
        if kind is not None:
            tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _ReferenceParser(_Parser):
    """``expr``'s grammar with one method per precedence level; ``atom``,
    whose parentheses and call arguments call ``expression``, is shared."""

    def expression(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = _fold(("add" if text == "+" else "sub", node, rhs))
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                node = _fold(("mul" if text == "*" else "div", node, rhs))
            else:
                return node

    def factor(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return _fold(("neg", self.factor()))
        return self.power()

    def power(self):
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return _fold(("pow", node, self.factor()))
        return node


def reference_parse(source: str, variable_name: str, params=None) -> tuple:
    """The tree the recursive-descent grammar gives ``source``."""
    bound = _bind(params or {}, variable_name)
    return _ReferenceParser(source, variable_name, bound).parse()


def pretty(e: Expr) -> str:
    """Canonical fully parenthesized rendering; reparsing yields an equal AST."""
    return _pretty(e.ast, e.variable)


def _pretty(ast: tuple, var: str) -> str:
    tag = ast[0]
    if tag == "num":
        # the grammar reads -x as a negation: (-2)^t is not -(2^t)
        v = ast[1]
        return f"(-{-v!r})" if math.copysign(1.0, v) < 0 else repr(v)
    if tag == "var":
        return var
    if tag == "neg":
        return f"(-{_pretty(ast[1], var)})"
    if tag == "call":
        return f"{ast[1]}({_pretty(ast[2], var)})"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}[tag]
    return f"({_pretty(ast[1], var)} {sym} {_pretty(ast[2], var)})"


def eval_W(e: SplitEnergy, p: SingularPair) -> float:
    """Energy value at the given singular values."""
    return float(eval_jet2(e.h, p.lambda1 / p.lambda2).value
                 + eval_jet2(e.f, p.lambda1 * p.lambda2).value)


def eval_W_matrix(e: SplitEnergy, F: np.ndarray) -> float:
    """Energy value on a 2x2 matrix with positive determinant."""
    return eval_W(e, svd2(F))


def g_partials(e: SplitEnergy, ts, zs):
    """The general form g(x, y) = h(x/y) + f(x*y) and its partials up to
    order 2, at x = sqrt(t*z), y = sqrt(z/t).

    Returns (x, y, g, g_x, g_y, g_xx, g_xy, g_yy) on ``ts`` and ``zs``
    broadcast together.  The h jets are evaluated once per element of ``ts``
    and the f jets once per element of ``zs``, so a column of T values of t
    against a row of Z values of z costs T + Z jets for T x Z points.  g
    itself is formed here: Knowles-Sternberg reads only the partials.
    """
    t = np.asarray(ts, dtype=float)
    z = np.asarray(zs, dtype=float)
    hj, fj = eval_jet2_array(e.h, t), eval_jet2_array(e.f, z)
    x, y, *partials = criteria._g_from_jets(t, z, hj, fj)
    return (x, y, hj.value + fj.value, *partials)


def fd_second_derivative(e: SplitEnergy, F: np.ndarray, xi: np.ndarray,
                         eta: np.ndarray) -> float:
    """5-point central second difference of s -> W(F + s * xi (x) eta),
    with step 1e-3 |F|."""
    F = np.asarray(F, dtype=float)
    D = np.outer(np.asarray(xi, dtype=float), np.asarray(eta, dtype=float))
    step = float(np.linalg.norm(F)) * _FD_STEP
    samples = []
    for k in (-2, -1, 0, 1, 2):
        Fk = F + k * step * D
        if np.linalg.det(Fk) <= 0.0:
            raise LeftGLplus(f"F + {k}*step*(xi(x)eta) left GL+(2); shrink step")
        samples.append(eval_W_matrix(e, Fk))
    w_m2, w_m1, w_0, w_p1, w_p2 = samples
    return (-w_m2 + 16.0 * w_m1 - 30.0 * w_0 + 16.0 * w_p1 - w_p2) / (12.0 * step**2)


def rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


class AcousticTensor(NamedTuple):
    """Symmetric 2x2 matrix whose quadratic form in xi is the rank-one
    second derivative at fixed eta."""

    Q: np.ndarray

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.Q)[0])


def acoustic_tensor(e: SplitEnergy, F: np.ndarray,
                    eta: np.ndarray) -> AcousticTensor:
    """Contract the full FD Hessian of W, step 3e-4 |F|, with eta in both
    slots."""
    F = np.asarray(F, dtype=float)
    eta = np.asarray(eta, dtype=float)
    step = float(np.linalg.norm(F)) * _HESSIAN_STEP

    def w(M: np.ndarray) -> float:
        if np.linalg.det(M) <= 0.0:
            raise LeftGLplus("Hessian stencil left GL+(2); shrink step")
        return eval_W_matrix(e, M)

    idx = [(0, 0), (0, 1), (1, 0), (1, 1)]
    H = np.empty((4, 4))
    w0 = w(F)
    for m, (i, j) in enumerate(idx):
        Em = np.zeros((2, 2))
        Em[i, j] = 1.0
        for n, (k, l) in enumerate(idx):
            if n < m:
                H[m, n] = H[n, m]
                continue
            En = np.zeros((2, 2))
            En[k, l] = 1.0
            if m == n:
                H[m, n] = (w(F + step * Em) - 2.0 * w0 + w(F - step * Em)) / step**2
            else:
                H[m, n] = (
                    w(F + step * (Em + En)) - w(F + step * (Em - En))
                    - w(F - step * (Em - En)) + w(F - step * (Em + En))
                ) / (4.0 * step**2)

    Q = np.empty((2, 2))
    for i in range(2):
        for k in range(2):
            Q[i, k] = sum(
                H[idx.index((i, j)), idx.index((k, l))] * eta[j] * eta[l]
                for j in range(2) for l in range(2)
            )
    Q = 0.5 * (Q + Q.T)
    return AcousticTensor(Q)


def w_lin(mu: float, kappa: float, xi: np.ndarray, eta: np.ndarray) -> float:
    """Quadratic linearized energy on the rank-one matrix xi (x) eta."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    dot = float(xi @ eta)
    return 0.5 * mu * float(xi @ xi) * float(eta @ eta) + 0.5 * kappa * dot * dot


def unfolded_reports(e: SplitEnergy, t_grid: GridSpec, z_grid: GridSpec,
                     f0: Optional[float], tol: float) -> dict:
    """{condition id: report} of vol-iso's A to D and, unless ``f0`` is
    None, main's Main2 to Main4 at ``f0``, on every t of ``t_grid``: A is
    t^2 h''(t) + w at each sample, and B and Main2 read the t >= 1 half."""
    ts, zs = t_grid.points(), z_grid.points()
    hj = eval_jet2_array(e.h, ts)
    with np.errstate(all="ignore"):
        wz = zs**2 * eval_jet2_array(e.f, zs).d2
        wt = ts**2 * hj.d2
    it, iz = int(np.argmin(wt)), int(np.argmin(wz))
    reports = {"A": criteria._report("A", float(wt[it] + wz[iz]),
                                     [float(ts[it]), float(zs[iz])],
                                     ts.size * zs.size, tol)}
    upper = ts >= 1.0
    reports["B"] = criteria._grid_report("B", hj.d1[upper], (ts[upper],), tol)
    if f0 is not None:
        reports["Main2"] = reports["B"]._replace(condition_id="Main2")
    conds = _coupled_conditions(ts, hj.d1, hj.d2)
    for cid, mid, cond in zip("CD", ("Main3", "Main4"), conds):
        reports[cid] = criteria._coupled_report(cid, cond, ts, zs, wz, tol)
        if f0 is not None:
            with np.errstate(all="ignore"):
                margins = cond.margin(f0)[cond.mask]
            reports[mid] = criteria._grid_report(mid, margins, (ts[cond.mask],), tol)
    return reports
