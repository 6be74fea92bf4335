import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankone2d import errors, expr
from rankone2d.energy import CATALOG
import strategies


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
            # as written
            ("1/0 + t", {}),
            ("0/0 + t", {}),
            ("exp(-exp(1000))*t", {}),
        ]
        for src, params in cases:
            e = expr.parse(src, "t", params)
            again = expr.parse(expr.pretty(e), "t")
            # repr tells -0.0 from 0.0, which == does not
            assert again == e and repr(again.ast) == repr(e.ast), src

    def test_constants_fold_to_numbers(self):
        # a quotient of numbers rounds as the walk scales: 6*(1/5), not 6/5
        assert expr.parse("(6/5)*t", "t").ast == ("mul", ("num", 6 * (1 / 5)),
                                                  ("var",))
        assert expr.parse("pi", "t").ast == ("num", math.pi)
        assert repr(expr.parse("t*(-0.0)", "t").ast) == \
            "('mul', ('var',), ('num', -0.0))"

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


class TestFolding:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(source=strategies.sources("t", names=("k",)),
           k=st.sampled_from([-1.5, -0.0, 0.0, 2.0, 1e300]))
    def test_parse_folds_and_pretty_roundtrips(self, source, k):
        e = expr.parse(source, "t", {"k": k})
        assert _foldable(e.ast) == []
        again = expr.parse(expr.pretty(e), "t")
        assert again == e and repr(again.ast) == repr(e.ast)


class TestParameterBinding:
    def test_bound_name_parses_as_its_literal(self):
        bound = expr.parse("(mu/k)*exp(k*log(t)^2)", "t", {"mu": 2.0, "k": 0.3})
        assert bound == expr.parse("(2.0/0.3)*exp(0.3*log(t)^2)", "t")

    def test_negative_value_parses_as_negated_literal(self):
        bound = expr.parse("k*t", "t", {"k": -1.5})
        assert bound == expr.parse("(-1.5)*t", "t")
        assert expr.parse(expr.pretty(bound), "t") == bound

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
