"""Scalar expressions in one variable, evaluated with degree-2 Taylor jets.

The grammar is a small infix language with precedence
``^`` (right-assoc) > unary ``-`` > ``*``, ``/`` > ``+``, ``-``,
parentheses, the constants ``pi`` and ``e``, decimal/scientific literals and
the unary functions exp, log, sqrt, cosh, sinh, tanh, arcosh.  Named
parameters are bound at parse time: a bound name parses as its number, so
no value is ever formatted into source text.  A node whose children are all
numbers folds to the number the walk computes for it (``6/5`` is
``6*(1/5)``), unless that value is not finite, so a tree holds each constant
as one ``("num", value)`` node.

Evaluation propagates (value, d1, d2) through every operation, so first and
second derivatives are exact to machine rounding; no numeric differencing is
involved.  Jets propagate NaN/Inf; eval_jet2_finite and eval_jet2 convert
non-finite results into errors.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .errors import (
    BadParameter,
    DomainError,
    ExpressionSyntaxError,
    OverflowValue,
    UnknownIdentifier,
    WrongVariable,
)

FUNCTIONS = ("exp", "log", "sqrt", "cosh", "sinh", "tanh", "arcosh")
CONSTANTS = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------------------
# degree-2 jets


@dataclass
class Jet2:
    """Value plus first and second derivative w.r.t. the evaluation point.

    Components may be floats or numpy arrays of identical shape; all
    arithmetic is elementwise.
    """

    value: float
    d1: float
    d2: float

    def __add__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.value + other.value, self.d1 + other.d1, self.d2 + other.d2)

    def __sub__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.value - other.value, self.d1 - other.d1, self.d2 - other.d2)

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.d1, -self.d2)

    def __mul__(self, other: "Jet2") -> "Jet2":
        return Jet2(
            self.value * other.value,
            self.value * other.d1 + self.d1 * other.value,
            self.value * other.d2 + 2.0 * self.d1 * other.d1 + self.d2 * other.value,
        )

    def __truediv__(self, other: "Jet2") -> "Jet2":
        w, e1, e2 = other.value, other.d1, other.d2
        inv = Jet2(1.0 / w, -e1 / w**2, (2.0 * e1**2 - w * e2) / w**3)
        return self * inv


def _jet_chain(x: Jet2, g, g1, g2) -> Jet2:
    """Apply a scalar function g with derivatives g1, g2 through the jet."""
    v = g(x.value)
    gv1 = g1(x.value)
    return Jet2(v, gv1 * x.d1, gv1 * x.d2 + g2(x.value) * x.d1**2)


def jet_exp(x: Jet2) -> Jet2:
    v = np.exp(x.value)
    return Jet2(v, v * x.d1, v * x.d2 + v * x.d1**2)


def jet_log(x: Jet2) -> Jet2:
    with np.errstate(all="ignore"):
        return _jet_chain(x, np.log, lambda u: 1.0 / u, lambda u: -1.0 / u**2)


def jet_sqrt(x: Jet2) -> Jet2:
    with np.errstate(all="ignore"):
        return _jet_chain(
            x, np.sqrt, lambda u: 0.5 / np.sqrt(u), lambda u: -0.25 / u**1.5
        )


def jet_cosh(x: Jet2) -> Jet2:
    return _jet_chain(x, np.cosh, np.sinh, np.cosh)


def jet_sinh(x: Jet2) -> Jet2:
    return _jet_chain(x, np.sinh, np.cosh, np.sinh)


def jet_tanh(x: Jet2) -> Jet2:
    return _jet_chain(
        x, np.tanh, lambda u: 1.0 / np.cosh(u) ** 2,
        lambda u: -2.0 * np.tanh(u) / np.cosh(u) ** 2,
    )


def jet_arcosh(x: Jet2) -> Jet2:
    with np.errstate(all="ignore"):
        return _jet_chain(
            x,
            np.arccosh,
            lambda u: 1.0 / np.sqrt(u**2 - 1.0),
            lambda u: -u / (u**2 - 1.0) ** 1.5,
        )


_JET_FUNCS = {
    "exp": jet_exp,
    "log": jet_log,
    "sqrt": jet_sqrt,
    "cosh": jet_cosh,
    "sinh": jet_sinh,
    "tanh": jet_tanh,
    "arcosh": jet_arcosh,
}


def jet_pow(base: Jet2, p: float) -> Jet2:
    """``base`` to the power of the number ``p``."""
    v = base.value**p
    g1 = p * base.value ** (p - 1.0)
    g2 = p * (p - 1.0) * base.value ** (p - 2.0)
    return Jet2(v, g1 * base.d1, g1 * base.d2 + g2 * base.d1**2)


# ---------------------------------------------------------------------------
# parsing

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>" + _NAME + r")"
    r"|(?P<op>[-+*/^()])"
    r")"
)


def _tokenize(source: str):
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


def _bind(params: Mapping[str, float], variable_name: str) -> dict:
    """Validate parameter bindings and map each name to its number node."""
    bound = {}
    for name, value in params.items():
        if not re.fullmatch(_NAME, name):
            raise BadParameter(f"parameter {name!r} is not an identifier")
        if name == variable_name or name in FUNCTIONS or name in CONSTANTS:
            raise BadParameter(f"parameter {name!r} is taken by the variable, "
                               "a function or a constant")
        value = float(value)
        if not math.isfinite(value):
            raise BadParameter(f"parameter {name!r} is not finite: {value}")
        bound[name] = ("num", value)
    return bound


def _fold(node: tuple) -> tuple:
    """``node``, or the number the walk computes for it if all its children
    are numbers.  A value that is not finite has no literal, so such a node
    stays as written."""
    if all(child[0] == "num" for child in node[1:] if isinstance(child, tuple)):
        with np.errstate(all="ignore"):
            value = float(_eval(node, None).value)
        if math.isfinite(value):
            return ("num", value)
    return node


class _Parser:
    def __init__(self, source: str, variable_name: str, params: dict):
        self.source = source
        self.variable = variable_name
        self.params = params
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ExpressionSyntaxError(f"expected {op!r}", offset)
        self.advance()

    def parse(self):
        ast = self.expression()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"trailing input {text!r}", offset)
        return ast

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

    def atom(self):
        kind, text, offset = self.advance()
        if kind == "number":
            return ("num", float(text))
        if kind == "name":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return _fold(("call", text, arg))
            if text in CONSTANTS:
                return ("num", CONSTANTS[text])
            if text == self.variable:
                return ("var",)
            if text in self.params:
                return self.params[text]
            if re.fullmatch(r"[A-Za-z]", text):
                raise WrongVariable(
                    f"unknown variable {text!r}, expected {self.variable!r}", offset
                )
            raise UnknownIdentifier(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            node = self.expression()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError(f"unexpected token {text!r}", offset)


@dataclass(frozen=True)
class Expr:
    """Immutable parsed expression in a single variable."""

    ast: tuple
    variable: str
    source_text: str = field(compare=False)


def parse(source: str, variable_name: str,
          params: Optional[Mapping[str, float]] = None) -> Expr:
    """Parse ``source`` into an Expr whose only free variable is ``variable_name``.

    ``params`` binds names to numbers; a bound name parses as that number.
    Unused bindings are ignored.  A name that is not an identifier, that
    collides with the variable, a function or a constant, or whose value is
    not finite raises ``BadParameter``.
    """
    ast = _Parser(source, variable_name, _bind(params or {}, variable_name)).parse()
    return Expr(ast=ast, variable=variable_name, source_text=source)


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


# ---------------------------------------------------------------------------
# evaluation


def _scale(x: Jet2, c) -> Jet2:
    return Jet2(c * x.value, c * x.d1, c * x.d2)


def _eval(ast: tuple, x: Jet2) -> Jet2:
    """The jet of ``ast`` at ``x``; callers run it under
    ``np.errstate(all="ignore")``, as NaN and inf propagate."""
    tag = ast[0]
    if tag == "num":
        # 0-d arrays, not numpy floats, so that a power of numbers rounds as
        # it does on arrays (numpy's scalar and array ** differ in the last bit)
        zero = np.zeros(())
        return Jet2(np.asarray(ast[1]), zero, zero)
    if tag == "var":
        return x
    if tag == "neg":
        return -_eval(ast[1], x)
    if tag == "call":
        return _JET_FUNCS[ast[1]](_eval(ast[2], x))
    lhs = _eval(ast[1], x)
    rhs = _eval(ast[2], x)
    if tag == "add":
        return lhs + rhs
    if tag == "sub":
        return lhs - rhs
    # a number factor or divisor scales the other jet: its zero
    # derivatives would meet an infinite value as 0*inf = NaN
    if tag == "mul":
        if ast[1][0] == "num":
            return _scale(rhs, lhs.value)
        if ast[2][0] == "num":
            return _scale(lhs, rhs.value)
        return lhs * rhs
    if tag == "div":
        if ast[2][0] == "num":
            return _scale(lhs, 1.0 / rhs.value)
        return lhs / rhs
    if tag == "pow":
        if ast[2][0] == "num":
            return jet_pow(lhs, ast[2][1])
        return jet_exp(rhs * jet_log(lhs))
    raise AssertionError(f"unhandled node {tag}")


def eval_jet2(e: Expr, x: float) -> Jet2:
    """Evaluate value, first and second derivative of ``e`` at ``x > 0``:
    ``eval_jet2_finite`` on a 0-d array, returned as floats."""
    if not x > 0.0:
        raise DomainError(f"evaluation point must be positive, got {x}")
    jet = eval_jet2_finite(e, x)
    return Jet2(float(jet.value), float(jet.d1), float(jet.d2))


def eval_jet2_array(e: Expr, xs: np.ndarray) -> Jet2:
    """Vectorized evaluation; NaN/Inf propagate instead of raising."""
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        jet = _eval(e.ast, Jet2(xs, np.ones_like(xs), np.zeros_like(xs)))
    return Jet2(
        np.broadcast_to(jet.value, xs.shape).astype(float),
        np.broadcast_to(jet.d1, xs.shape).astype(float),
        np.broadcast_to(jet.d2, xs.shape).astype(float),
    )


def eval_jet2_finite(e: Expr, xs: np.ndarray) -> Jet2:
    """``eval_jet2_array`` that raises at the first point whose jet is not
    finite: ``DomainError`` if a part is NaN, else ``OverflowValue``."""
    jet = eval_jet2_array(e, xs)
    parts = np.stack([np.ravel(jet.value), np.ravel(jet.d1), np.ravel(jet.d2)])
    bad = np.flatnonzero(~np.isfinite(parts).all(axis=0))
    if bad.size:
        at = float(np.ravel(xs)[bad[0]])
        if np.isnan(parts[:, bad[0]]).any():
            raise DomainError(f"{e.source_text!r} undefined at {at}")
        raise OverflowValue(f"{e.source_text!r} overflowed at {at}")
    return jet
