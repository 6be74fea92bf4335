"""Hypothesis strategies for expression sources, shared by the test modules.

``sources(variable, names)`` draws source text over the whole expression
grammar: literals, the constants, the variable, parameter names, unary
minus, the five binary operators and the functions.  Operands are
parenthesized or not at random, so precedence and associativity are drawn
too; every drawn source parses.  Literals include values that overflow,
divide by zero or leave a function's domain, so constant parts whose value
is not finite are drawn as well.
"""

from __future__ import annotations

from hypothesis import strategies as st

from rankone2d.expr import FUNCTIONS

LITERALS = ("0", "0.0", "1", "2", "3", "0.5", ".25", "6", "5", "1e3", "2E-2",
            "1000", "1e308", "pi", "e")


def _maybe_parenthesized(source: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    return st.tuples(source, st.booleans()).map(
        lambda sb: f"({sb[0]})" if sb[1] else sb[0])


def sources(variable: str, names=()) -> st.SearchStrategy[str]:
    """Source text in ``variable``; ``names`` are parameters the caller
    binds when it parses."""
    leaves = st.sampled_from((*LITERALS, variable, *names))

    def extend(children):
        operand = _maybe_parenthesized(children)
        binary = st.tuples(operand, st.sampled_from("+-*/^"), operand).map(
            lambda t: f"{t[0]} {t[1]} {t[2]}")
        negated = operand.map(lambda c: f"-{c}")
        call = st.tuples(st.sampled_from(FUNCTIONS), children).map(
            lambda t: f"{t[0]}({t[1]})")
        return binary | negated | call

    return st.recursive(leaves, extend, max_leaves=8)
