import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankone2d import errors, expr
from rankone2d.energy import CATALOG
from rankone2d.scalar_inf import weighted_second
import strategies
from references import pretty, reference_parse, reference_tokenize


def jet(source, x, var="t"):
    return expr.eval_jet2(expr.parse(source, var), x)


class TestParsing:
    def test_precedence_pow_over_mul(self):
        assert jet("2*t^2", 3.0).value == 18.0

    def test_pow_right_associative(self):
        # 2^(3^2) = 512, not (2^3)^2 = 64
        assert jet("2^3^2", 1.0).value == 512.0

    def test_unary_minus_binds_below_pow(self):
        assert jet("-t^2", 3.0).value == -9.0

    def test_nested_parens_and_functions(self):
        v = jet("exp(log(sqrt(t^2)))", 5.0)
        assert v.value == pytest.approx(5.0, rel=1e-14)

    def test_constants(self):
        assert jet("pi", 1.0).value == math.pi
        assert jet("e", 1.0).value == math.e

    def test_scientific_literals(self):
        assert jet("1.5e-3 + 2E2", 1.0).value == pytest.approx(200.0015)

    def test_wrong_variable_is_specific_error(self):
        with pytest.raises(errors.WrongVariable):
            expr.parse("x + 1", "t")

    def test_unknown_identifier(self):
        with pytest.raises(errors.UnknownIdentifier):
            expr.parse("frob(t)", "t")

    def test_syntax_error_carries_offset(self):
        with pytest.raises(errors.ExpressionSyntaxError) as exc:
            expr.parse("t + ", "t")
        assert exc.value.offset == 4

    @pytest.mark.parametrize("source, offset", [("1e999*t", 0), ("t + 2e400", 4)])
    def test_literal_that_is_not_finite_is_rejected(self, source, offset):
        with pytest.raises(errors.ExpressionSyntaxError) as exc:
            expr.parse(source, "t")
        assert exc.value.offset == offset

    def test_largest_literals_parse(self):
        assert expr.parse("1e308*t", "t").ast == ("mul", ("num", 1e308), ("var",))

    @pytest.mark.parametrize("source, offset", [("1e-400*t", 0), ("t + 2.5E-330", 4)])
    def test_nonzero_literal_that_rounds_to_zero_is_rejected(self, source, offset):
        with pytest.raises(errors.ExpressionSyntaxError, match="rounds to 0") as exc:
            expr.parse(source, "t")
        assert exc.value.offset == offset

    # ARABIC-INDIC ONE, DEVANAGARI THREE and FULLWIDTH ONE: Unicode decimal
    # digits that float() reads, but no digit of a literal
    @pytest.mark.parametrize("source, offset", [("١e-400*t + t", 0),
                                                ("t + ३", 4), ("2*t^１", 4)])
    def test_non_ascii_digit_is_an_unexpected_character(self, source, offset):
        with pytest.raises(errors.ExpressionSyntaxError,
                           match="unexpected character") as exc:
            expr.parse(source, "t")
        assert exc.value.offset == offset
        with pytest.raises(ValueError, match="is not numeric"):
            expr._number(source[offset])

    def test_zero_and_subnormal_literals_parse(self):
        assert expr.parse("0.00e-999 + 1e-320*t", "t").ast == \
            ("add", ("num", 0.0), ("mul", ("num", 1e-320), ("var",)))

    @pytest.mark.parametrize("source, tree", [
        ("t^-1", ("pow", ("var",), ("num", -1.0))),
        ("t - 1 - t", ("sub", ("sub", ("var",), ("num", 1.0)), ("var",))),
        ("t/2/t", ("div", ("div", ("var",), ("num", 2.0)), ("var",))),
        ("-t*t", ("mul", ("neg", ("var",)), ("var",))),
    ])
    def test_unary_minus_in_an_exponent_and_left_associativity(self, source, tree):
        assert expr.parse(source, "t").ast == tree

    @pytest.mark.parametrize("source", ["t +", "(t+1/t)/2 +", "exp(", "-"])
    def test_end_of_input_is_named(self, source):
        with pytest.raises(errors.ExpressionSyntaxError) as exc:
            expr.parse(source, "t")
        assert str(exc.value) == f"unexpected end of input (at offset {len(source)})"

    def test_unexpected_character(self):
        with pytest.raises(errors.ExpressionSyntaxError):
            expr.parse("t @ 2", "t")

    def test_trailing_input_rejected(self):
        with pytest.raises(errors.ExpressionSyntaxError):
            expr.parse("(t + 1))", "t")

    def test_pretty_roundtrip(self):
        cases = [
            ("t^2 - 3*t + 1/t", {}),
            ("-exp((1/10)*log(t)^2)", {}),
            ("cosh(t) - sinh(t)*tanh(t)", {}),
            ("2^-t", {}),
            ("(t + 1/t)/2 - 1", {}),
            # a negative number prints as (-x): -2^t would read as -(2^t)
            ("(-2)^t", {}),
            ("k^t", {"k": -1.5}),
            ("t*(-0.0)", {}),
            # a constant part that is not finite has no literal and stays
            # as written; exp(-exp(1000)) is finite and folds to 0
            ("1/0 + t", {}),
            ("0/0 + t", {}),
            ("exp(-exp(1000))*t", {}),
        ]
        for src, params in cases:
            e = expr.parse(src, "t", params)
            again = expr.parse(pretty(e), "t")
            # repr tells -0.0 from 0.0, which == does not
            assert again == e and repr(again.ast) == repr(e.ast), src

    def test_constants_fold_to_numbers(self):
        # a quotient of numbers rounds as the walk scales: 6*(1/5), not 6/5
        assert expr.parse("(6/5)*t", "t").ast == ("mul", ("num", 6 * (1 / 5)),
                                                  ("var",))
        assert expr.parse("pi", "t").ast == ("num", math.pi)
        assert repr(expr.parse("t*(-0.0)", "t").ast) == \
            "('mul', ('var',), ('num', -0.0))"

    def test_variable_free_part_with_a_finite_value_folds(self):
        # exp(1000) is inf and has no literal, but exp(-exp(1000)) is 0
        e = expr.parse("exp(-exp(1000))*t", "t")
        assert repr(e.ast) == "('mul', ('num', 0.0), ('var',))"
        assert expr.eval_jet2(e, 2.0) == expr.Jet2(0.0, 0.0, 0.0)
        # a constant whose own value is not finite stays as written
        assert expr.parse("1/0 + t", "t").ast[1] == \
            ("div", ("num", 1.0), ("num", 0.0))
        assert expr.parse("0*exp(1000) + t", "t").ast[1] == \
            ("mul", ("num", 0.0), ("call", "exp", ("num", 1000.0)))

    def test_expr_equality_ignores_source_text(self):
        assert expr.parse("t+1", "t") == expr.parse("t + 1", "t")

    def test_expr_equality_and_hash_use_ast_and_variable(self):
        assert expr.parse("z", "z") != expr.parse("t", "t")
        assert len({expr.parse("t^2", "t"), expr.parse("(t)^2", "t")}) == 1


def _foldable(ast: tuple) -> list:
    """Subtrees whose children are all numbers and whose value is finite."""
    children = [c for c in ast[1:] if isinstance(c, tuple)]
    found = [n for c in children for n in _foldable(c)]
    if children and all(c[0] == "num" for c in children):
        value = expr.eval_jet2_array(expr.Expr(ast, "t", ""), 1.0).value
        if np.isfinite(value):
            found.append(ast)
    return found


def _chains(source: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """Sources, each perhaps negated, joined by binary operators with no
    parentheses added, so the parser alone orders the operators."""
    signed = st.tuples(st.sampled_from(("", "-")), source).map("".join)
    tail = st.lists(st.tuples(st.sampled_from("+-*/^"), signed), max_size=4)
    return st.tuples(signed, tail).map(
        lambda c: c[0] + "".join(f" {op} {x}" for op, x in c[1]))


def _variants(source: str) -> st.SearchStrategy[str]:
    """``source`` as it is, cut at any point, or with one token doubled or
    dropped."""
    spans = [(at, at + len(text)) for _, text, at in expr._tokenize(source)[:-1]]
    return (st.just(source)
            | st.integers(0, len(source)).map(lambda k: source[:k])
            | st.sampled_from(spans).map(lambda s: f"{source[:s[1]]} {source[s[0]:]}")
            | st.sampled_from(spans).map(lambda s: source[:s[0]] + source[s[1]:]))


def _outcome(call, *args):
    """The repr of what ``call(*args)`` returns, or the error's type, message
    and offset."""
    try:
        return repr(call(*args))
    except errors.ExpressionSyntaxError as exc:
        return type(exc), str(exc), exc.offset


class TestGrammar:
    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(source=_chains(strategies.sources("t", ("mu",))).flatmap(_variants),
           mu=st.sampled_from([-1.5, -0.0, 2.0, 1e300]))
    def test_is_the_recursive_descent_grammar(self, source, mu):
        got = _outcome(lambda *args: expr.parse(*args).ast, source, "t", {"mu": mu})
        assert got == _outcome(reference_parse, source, "t", {"mu": mu})


# characters no token starts with, and whitespace, the Unicode kinds included
_OUTSIDE = st.sampled_from(["$", "@", ",", "=", "[", "\u00e9", "\u200b", "\u2212"])
_SPACE = st.sampled_from([" ", "\t", "\n", "\u00a0", "\u3000", "\u001c", "\u0085"])


def _spliced(source: str) -> st.SearchStrategy[str]:
    """``source`` with whitespace, perhaps followed by a character outside
    the grammar, inserted at any point."""
    return st.tuples(st.integers(0, len(source)), st.lists(_SPACE, max_size=3),
                     st.just("") | _OUTSIDE).map(
        lambda c: source[:c[0]] + "".join(c[1]) + c[2] + source[c[0]:])


class TestTokenizer:
    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(source=_chains(strategies.sources("t", ("mu",)))
           .flatmap(_variants).flatmap(_spliced))
    def test_is_the_reference_scan(self, source):
        assert _outcome(expr._tokenize, source) == _outcome(reference_tokenize, source)


class TestFolding:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(source=strategies.sources("t", names=("k",)),
           k=st.sampled_from([-1.5, -0.0, 0.0, 2.0, 1e300]))
    def test_parse_folds_and_pretty_roundtrips(self, source, k):
        e = expr.parse(source, "t", {"k": k})
        assert _foldable(e.ast) == []
        again = expr.parse(pretty(e), "t")
        assert again == e and repr(again.ast) == repr(e.ast)


def _walk(ast: tuple, xs: np.ndarray) -> np.ndarray:
    return expr.eval_jet2_array(expr.Expr(ast, "t", ""), xs).value


class TestTerms:
    @pytest.mark.parametrize("source, combo", [
        ("(t^2 + 1)/(2*t)", {1.0: 0.5, -1.0: 0.5}),
        ("-(3*t^-1 - t/4) + 2", {-1.0: -3.0, 1.0: 0.25, 0.0: 2.0}),
        ("2*log(t)/4", {("call", "log", ("var",)): 0.5}),
    ])
    def test_distributes(self, source, combo):
        assert expr.terms(expr.parse(source, "t")) == combo

    @pytest.mark.parametrize("source", ["t/0", "1e300*t*1e10", "t*log(t)",
                                        "(t + 1)*(t - 1)", "cosh(log(t))"])
    def test_keeps_the_node_whole(self, source):
        e = expr.parse(source, "t")
        assert expr.terms(e) == {e.ast: 1.0}

    XS = np.array([0.3, 1.7, 5.0])

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(source=strategies.sources("t", names=("k",)),
           k=st.sampled_from([-1.5, -0.0, 0.0, 2.0, 1e300]))
    def test_terms_sum_to_the_walk(self, source, k):
        e = expr.parse(source, "t", {"k": k})
        value = _walk(e.ast, self.XS)
        with np.errstate(all="ignore"):
            parts = np.array([
                c * (self.XS**key if isinstance(key, float) else _walk(key, self.XS))
                for key, c in expr.terms(e).items()])
            total = parts.sum(axis=0)
            error = np.abs(total - value)
            bound = 1e-9 * (np.abs(parts).sum(axis=0) + np.abs(value))
        finite = np.isfinite(total) & np.isfinite(value)
        assert np.all(error[finite] <= bound[finite]), source


class TestParameterBinding:
    def test_bound_name_parses_as_its_literal(self):
        bound = expr.parse("(mu/k)*exp(k*log(t)^2)", "t", {"mu": 2.0, "k": 0.3})
        assert bound == expr.parse("(2.0/0.3)*exp(0.3*log(t)^2)", "t")

    def test_negative_value_parses_as_negated_literal(self):
        bound = expr.parse("k*t", "t", {"k": -1.5})
        assert bound == expr.parse("(-1.5)*t", "t")
        assert expr.parse(pretty(bound), "t") == bound

    def test_unused_binding_ignored(self):
        assert expr.parse("t", "t", {"kappa": 3.0}) == expr.parse("t", "t")

    @pytest.mark.parametrize("name", ["t", "e", "pi", "exp", "log", "my k",
                                      "2k", ""])
    def test_reserved_or_malformed_name_rejected(self, name):
        with pytest.raises(errors.BadParameter, match=repr(name)):
            expr.parse("t", "t", {name: 1.0})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(errors.BadParameter):
            expr.parse("k*t", "t", {"k": value})


class TestJets:
    def test_polynomial_derivatives_exact(self):
        j = jet("t^3 - 2*t", 2.0)
        assert j.value == 4.0
        assert j.d1 == 10.0
        assert j.d2 == 12.0

    def test_quotient_rule(self):
        j = jet("1/t", 2.0)
        assert j.d1 == pytest.approx(-0.25)
        assert j.d2 == pytest.approx(0.25)

    def test_log_jet(self):
        j = jet("log(t)", 3.0)
        assert j.d1 == pytest.approx(1.0 / 3.0)
        assert j.d2 == pytest.approx(-1.0 / 9.0)

    @pytest.mark.parametrize("z", [1000.0, 6720.0])
    def test_log_jet_keeps_its_sign_past_overflow(self, z):
        # u = 1 + (1e75 z)^2 is finite and u^2 is not: g'' = -1/u^2 would
        # read -0 and drop the -(u'/u)^2 term (+2 at z = 1000, NaN at 6720);
        # mpmath at 50 digits gives z^2 f''(z) = -2 at both points
        e = expr.parse("log(1 + (1e75*z)^2)", "z")
        assert weighted_second(e, z) == pytest.approx(-2.0, rel=1e-12)

    @pytest.mark.parametrize("source, exact", [("arcosh(1e150*z)", -1.0),
                                               ("arcosh(1 + (1e80*z)^2)", -2.0)])
    @pytest.mark.parametrize("z", [1.0, 1000.0, 1e5])
    def test_arcosh_jet_keeps_its_sign_past_overflow(self, source, exact, z):
        # (u^2 - 1)^1.5 overflows: g'' = -u/(u^2 - 1)^1.5 would read -0, and
        # z^2 f'' 0 on the first, NaN on the second; u g' and u^2 g'' tend
        # to 1 and -1, so z^2 f''(z) -> -1 and -2
        e = expr.parse(source, "z")
        assert weighted_second(e, z) == pytest.approx(exact, rel=1e-12)

    def test_variable_exponent_power(self):
        j = jet("2^t", 1.5)
        expected = 2.0**1.5
        assert j.value == pytest.approx(expected)
        assert j.d1 == pytest.approx(expected * math.log(2.0))
        assert j.d2 == pytest.approx(expected * math.log(2.0) ** 2)

    def test_arcosh_jet(self):
        j = jet("arcosh(t)", 2.0)
        assert j.value == pytest.approx(math.acosh(2.0))
        assert j.d1 == pytest.approx(1.0 / math.sqrt(3.0))
        assert j.d2 == pytest.approx(-2.0 / 3.0**1.5)

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(min_value=0.2, max_value=5.0))
    def test_jet_matches_finite_differences(self, x):
        e = expr.parse("exp((1/10)*log(t)^2) + t^2/7 - sqrt(t)", "t")
        j = expr.eval_jet2(e, x)
        h = 3e-5 * x
        vals = [expr.eval_jet2(e, x + k * h).value for k in (-2, -1, 0, 1, 2)]
        fd1 = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
        fd2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
        assert j.d1 == pytest.approx(fd1, rel=1e-7, abs=1e-9)
        assert j.d2 == pytest.approx(fd2, rel=1e-4, abs=1e-6)

    def test_nonpositive_point_rejected(self):
        e = expr.parse("t", "t")
        with pytest.raises(errors.DomainError):
            expr.eval_jet2(e, 0.0)
        with pytest.raises(errors.DomainError):
            expr.eval_jet2(e, -1.0)

    def test_nan_becomes_domain_error(self):
        e = expr.parse("sqrt(t - 2)", "t")
        with pytest.raises(errors.DomainError):
            expr.eval_jet2(e, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_undefined_jet_raises_without_warning(self):
        # at t = inf the chain rule multiplies inf by 0
        e = expr.parse("exp((1/10)*log(t)^2)", "t")
        with pytest.raises(errors.DomainError, match="undefined at inf"):
            expr.eval_jet2(e, math.inf)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflow_raises(self):
        e = expr.parse("exp(exp(t))", "t")
        with pytest.raises(errors.OverflowValue):
            expr.eval_jet2(e, 10.0)

    @pytest.mark.parametrize("source", ["(6/5)*(t - 1/t)^2", "(t - 1/t)^2*(6/5)",
                                        "(t - 1/t)^2/(5/6)"])
    def test_constant_factor_keeps_an_overflow(self, source):
        # the constant's zero derivatives would meet the infinite value as
        # 0*inf, and the overflow would read as undefined
        e = expr.parse(source, "t")
        arr = expr.eval_jet2_array(e, np.array([1e200]))
        assert arr.value[0] == math.inf
        assert arr.d1[0] == pytest.approx(2.4e200)
        assert arr.d2[0] == pytest.approx(2.4)
        with pytest.raises(errors.OverflowValue, match=r"overflowed at 1e\+200$"):
            expr.eval_jet2(e, 1e200)

    def test_constant_factor_keeps_the_product_rule_rounding(self):
        xs = np.logspace(-3, 3, 61)
        g = expr.eval_jet2_array(expr.parse("(t - 1/t)^2", "t"), xs)
        c = expr.eval_jet2_array(expr.parse("6/5", "t"), xs)
        for source, want in (("(6/5)*(t - 1/t)^2", c * g),
                             ("(t - 1/t)^2*(6/5)", g * c),
                             ("(t - 1/t)^2/(6/5)", g / c)):
            got = expr.eval_jet2_array(expr.parse(source, "t"), xs)
            for part in ("value", "d1", "d2"):
                assert np.array_equal(getattr(got, part), getattr(want, part)), \
                    (source, part)


class TestArrayEvaluation:
    def test_matches_scalar_path(self):
        e = expr.parse("exp((1/10)*log(t)^2)", "t")
        xs = np.logspace(-2, 2, 37)
        arr = expr.eval_jet2_array(e, xs)
        for i, x in enumerate(xs):
            j = expr.eval_jet2(e, float(x))
            assert arr.value[i] == pytest.approx(j.value, rel=1e-14)
            assert arr.d1[i] == pytest.approx(j.d1, rel=1e-14)
            assert arr.d2[i] == pytest.approx(j.d2, rel=1e-14)

    def test_nan_propagates_instead_of_raising(self):
        e = expr.parse("log(t - 1)", "t")
        arr = expr.eval_jet2_array(e, np.array([0.5, 2.0]))
        assert math.isnan(arr.value[0])
        assert arr.value[1] == pytest.approx(0.0)

    @pytest.mark.parametrize("source, outside, inside", [
        ("log(z - 1/2)", 0.25, 1.5), ("arcosh(z - 3)", 1.0, 5.0)])
    def test_outside_the_domain_every_part_is_nan(self, source, outside, inside):
        # there the derivative formulas (1/u, 1/sqrt(u^2 - 1)) are finite
        e = expr.parse(source, "z")
        arr = expr.eval_jet2_array(e, np.array([outside, inside]))
        for part in (arr.value, arr.d1, arr.d2):
            assert math.isnan(part[0])
            assert math.isfinite(part[1])
        with pytest.raises(errors.DomainError, match=f"undefined at {outside}"):
            expr.eval_jet2(e, outside)

    def test_constant_expression_broadcasts(self):
        e = expr.parse("3", "z")
        arr = expr.eval_jet2_array(e, np.ones(5))
        assert arr.value.shape == (5,)
        assert np.all(arr.d1 == 0.0)


# every catalog source at its default parameters, and a pole at z = 1
SOURCES = [expr.parse(src, var, entry.defaults)
           for entry in CATALOG.values()
           for src, var in ((entry.h, "t"), (entry.f, "z"))]
SOURCES.append(expr.parse("1/(z - 1)", "z"))


class TestSinglePointWalk:
    @settings(max_examples=300, deadline=None)
    @given(e=st.sampled_from(SOURCES),
           x=st.one_of(st.just(1.0), st.floats(min_value=1e-6, max_value=1e6)))
    @example(e=SOURCES[-1], x=1.0)
    def test_is_the_array_walk(self, e, x):
        arr = expr.eval_jet2_array(e, x)
        parts = [float(arr.value), float(arr.d1), float(arr.d2)]
        if all(math.isfinite(p) for p in parts):
            j = expr.eval_jet2(e, x)
            assert [j.value.hex(), j.d1.hex(), j.d2.hex()] == [p.hex() for p in parts]
        else:
            with pytest.raises((errors.DomainError, errors.OverflowValue)):
                expr.eval_jet2(e, x)

    def test_power_of_numbers_rounds_as_the_array_walk(self):
        # numpy's scalar ** and array ** differ in the last bit here; a folded
        # number is computed once, so both walks read the same one
        e = expr.parse("1.3205128205128207^0.7*t", "t")
        assert (expr.eval_jet2(e, 1.0).value
                == expr.eval_jet2_array(e, np.array([1.0])).value[0])
