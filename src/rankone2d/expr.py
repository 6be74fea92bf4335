"""Scalar expressions in one variable, evaluated with degree-2 Taylor jets.

The grammar is a small infix language whose precedence is stated once, in
``_BINDING``: ``^`` (right-assoc) > unary ``-`` > ``*``, ``/`` > ``+``, ``-``,
parentheses, the constants ``pi`` and ``e``, decimal/scientific literals and
the unary functions exp, log, sqrt, cosh, sinh, tanh, arcosh.  Named
parameters are bound at parse time: a bound name parses as its number, so
no value is ever formatted into source text.  A node that holds no
variable folds to the number the walk computes for it (``6/5`` is
``6*(1/5)``), unless that value is not finite, so a tree holds each finite
constant as one ``("num", value)`` node; ``terms`` reads a tree as a linear
combination of powers of the variable and of whole subtrees.

Evaluation propagates (value, d1, d2) through every operation, so first and
second derivatives are exact to machine rounding; no numeric differencing is
involved.  Jets propagate NaN/Inf; eval_jet2_finite and eval_jet2 convert
non-finite results into errors.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, NamedTuple, Optional

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


class Jet2(NamedTuple):
    """Value plus first and second derivative w.r.t. the evaluation point.

    Components may be floats or numpy arrays of identical shape; all
    arithmetic is elementwise, and ``+`` and ``*`` are jet operations, not
    tuple concatenation and repetition.
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


_JETS = {  # g, g' and g''
    "exp": (np.exp, np.exp, np.exp),
    "sqrt": (np.sqrt, lambda u: 0.5 / np.sqrt(u), lambda u: -0.25 / u**1.5),
    "cosh": (np.cosh, np.sinh, np.cosh),
    "sinh": (np.sinh, np.cosh, np.sinh),
    "tanh": (np.tanh, lambda u: 1.0 / np.cosh(u) ** 2,
             lambda u: -2.0 * np.tanh(u) / np.cosh(u) ** 2),
}


def _arcosh_ratios(u):
    ug1 = 1.0 / np.sqrt((u - 1.0) / u * ((u + 1.0) / u))  # 1/sqrt(1 - 1/u^2)
    return ug1, -ug1**3


# g and (u g'(u), u^2 g''(u)), chained in r = u'/u: they keep their size
# where g' and g'' of a large u underflow and u'^2 overflows
_RATIO_JETS = {"log": (np.log, lambda u: (1.0, -1.0)),
               "arcosh": (np.arccosh, _arcosh_ratios)}


def _jet_call(name: str, x: Jet2) -> Jet2:
    """The function ``name`` through the jet; where it is NaN so is the jet,
    though g' of log and arcosh is finite there.  A derivative that is the
    function itself reuses its value."""
    if name in _RATIO_JETS:
        g, ratios = _RATIO_JETS[name]
        v = g(x.value)
        ug1, ug2 = ratios(x.value)
        r = np.where(np.isnan(v), np.nan, x.d1 / x.value)
        return Jet2(v, ug1 * r, ug1 * (x.d2 / x.value) + ug2 * (r * r))
    g, g1, g2 = _JETS[name]
    v = g(x.value)
    gv1 = v if g1 is g else np.where(np.isnan(v), np.nan, g1(x.value))
    gv2 = v if g2 is g else g2(x.value)
    return Jet2(v, gv1 * x.d1, gv1 * x.d2 + gv2 * x.d1**2)


def jet_pow(base: Jet2, p: float) -> Jet2:
    """``base`` to the power of the number ``p``."""
    v = base.value**p
    g1 = p * base.value ** (p - 1.0)
    g2 = p * (p - 1.0) * base.value ** (p - 2.0)
    return Jet2(v, g1 * base.d1, g1 * base.d2 + g2 * base.d1**2)


# ---------------------------------------------------------------------------
# parsing

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_NUMBER = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"  # ASCII digits only
# whitespace matches none of these, so a scan skips it
_TOKEN_RE = re.compile(
    r"(?P<number>" + _NUMBER + r")"
    r"|(?P<name>" + _NAME + r")"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S)"
)


def _tokenize(source: str):
    """(kind, text, offset) of each token, then ("end", "", len(source))."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        if m.lastgroup == "bad":
            raise ExpressionSyntaxError(f"unexpected character {m[0]!r}", m.start())
        tokens.append((m.lastgroup, m[0], m.start()))
    tokens.append(("end", "", len(source)))
    return tokens


def _number(text: str) -> float:
    """The value of a number literal with an optional sign.  A ValueError
    says why ``text`` has none: it is not numeric, it is not finite, or it
    is a nonzero literal that rounds to 0."""
    if not re.fullmatch(r"[-+]?" + _NUMBER, text):
        raise ValueError("is not numeric")
    value = float(text)
    if math.isinf(value):
        raise ValueError("is not finite")
    if value == 0.0 and re.search(r"[1-9]", text.lower().partition("e")[0]):
        raise ValueError("rounds to 0")
    return value


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


def _constant(node: tuple) -> bool:
    """Whether ``node`` holds no variable."""
    return node[0] != "var" and all(
        _constant(child) for child in node[1:] if isinstance(child, tuple))


def _fold(node: tuple) -> tuple:
    """``node``, or the number the walk computes for it if it holds no
    variable.  A value that is not finite has no literal, so such a node
    stays as written; a parent with a finite value folds it away
    (``exp(-exp(1000))`` is 0)."""
    if _constant(node):
        with np.errstate(all="ignore"):
            value = float(_eval(node, None).value)
        if math.isfinite(value):
            return ("num", value)
    return node


# each binary operator's binding power and tag; a unary minus binds at
# _UNARY, so -t^2 is -(t^2) and 2^-1 is 2^(-1).  ^ is right-associative,
# the others left-associative
_BINDING = {"+": (1, "add"), "-": (1, "sub"), "*": (2, "mul"), "/": (2, "div"),
            "^": (4, "pow")}
_UNARY = 3


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

    def expression(self, floor: int = 0):
        """A unary minus or an atom, then every binary operator that binds
        tighter than ``floor``."""
        if self.peek()[1] == "-":
            self.advance()
            node = _fold(("neg", self.expression(_UNARY)))
        else:
            node = self.atom()
        while True:
            power, tag = _BINDING.get(self.peek()[1], (0, None))
            if power <= floor:
                return node
            self.advance()
            rhs = self.expression(power - 1 if tag == "pow" else power)
            node = _fold((tag, node, rhs))

    def atom(self):
        kind, text, offset = self.advance()
        if kind == "number":
            try:
                return ("num", _number(text))
            except ValueError as exc:
                raise ExpressionSyntaxError(f"number {text} {exc}", offset) from None
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
        raise ExpressionSyntaxError("unexpected end of input" if kind == "end"
                                    else f"unexpected token {text!r}", offset)


class Expr(NamedTuple):
    """Parsed expression in a single variable.  Equality and hash ignore
    ``source_text``: two spellings of one tree are equal."""

    ast: tuple
    variable: str
    source_text: str

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self[:2] == other[:2]

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash(self[:2])


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


def terms(e: Expr) -> dict:
    """The folded tree of ``e`` as ``{key: coefficient}``: a float key p
    stands for x^p (the constant is x^0), any other key for a subtree.  Sums,
    negations, number factors and products or quotients by one power monomial
    distribute; a zero divisor or a non-finite coefficient keeps a node whole."""
    return _terms(e.ast)


def _power(combo: dict) -> bool:
    """Whether ``combo`` is one power monomial c x^p."""
    return len(combo) == 1 and isinstance(next(iter(combo)), float)


def _terms(node: tuple) -> dict:
    tag, whole = node[0], {node: 1.0}
    if tag == "num":
        combo = {0.0: node[1]}
    elif tag == "var" or tag == "pow" and node[1] == ("var",) and node[2][0] == "num":
        combo = {node[2][1] if tag == "pow" else 1.0: 1.0}
    elif tag == "neg":
        combo = {k: -c for k, c in _terms(node[1]).items()}
    elif tag in ("add", "sub"):
        combo = _terms(node[1])
        for k, c in _terms(node[2]).items():
            combo[k] = combo.get(k, 0.0) + (c if tag == "add" else -c)
    elif tag in ("mul", "div"):
        combo, mono = (_terms(child) for child in node[1:])
        if tag == "mul" and not _power(mono):
            combo, mono = mono, combo
        if not _power(mono):
            return whole
        ((p, c),) = mono.items()
        if tag == "div":  # a zero divisor fails the finiteness check below
            p, c = -p, 1.0 / c if c else math.inf
        if p and not all(isinstance(k, float) for k in combo):
            return whole
        combo = {(k + p if p else k): a * c for k, a in combo.items()}
    else:
        return whole
    return combo if all(map(math.isfinite, combo.values())) else whole


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
        return _jet_call(ast[1], _eval(ast[2], x))
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
        return _jet_call("exp", rhs * _jet_call("log", lhs))
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
