"""Expression parsing, evaluation, printing, and error reporting."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvoigt import expr
from fracvoigt.errors import EvaluationError
from fracvoigt.expr import ParseError, evaluate, parse, to_source

from expr_cases import PRECEDENCE_CASES, random_expression
from oracles import evaluate_ref

# (source, a point where it fails, the exact message): one row per operator
# or function and numpy floating-point flag it can raise on finite operands
# (1 divide-by-zero, 2 overflow, 8 invalid), and a non-finite input
MESSAGE_CASES = [
    ("1/t", 0.0, "division by zero in '1.0/t'"),  # divide
    ("t/t", 0.0, "division by zero in 't/t'"),  # invalid
    ("t+t", 1e308, "non-finite value in 't+t'"),
    ("-t-t", 1e308, "non-finite value in '-t-t'"),
    ("t*10", 1e308, "non-finite value in 't*10.0'"),
    ("t/1e-308", 1e308, "non-finite value in 't/1e-308'"),
    ("log(t)", 0.0, "log of nonpositive value in 'log(t)'"),  # divide
    ("log(t)", -1.0, "log of nonpositive value in 'log(t)'"),  # invalid
    ("sqrt(t)", -4.0, "sqrt of negative value in 'sqrt(t)'"),
    ("exp(t)", 710.0, "overflow in 'exp(t)'"),
    ("t^-1", 0.0, "invalid power in 't^(-1.0)': math domain error"),  # divide
    ("t^0.5", -2.0, "invalid power in 't^0.5': math domain error"),  # invalid
    ("t^2", 1e308, "invalid power in 't^2.0': math range error"),
    ("pow(t,-1)", 0.0, "invalid power in 'pow(t,-1.0)': math domain error"),
    ("pow(t,0.5)", -2.0, "invalid power in 'pow(t,0.5)': math domain error"),
    ("pow(t,2)", 1e308, "invalid power in 'pow(t,2.0)': math range error"),
    ("1+t", math.inf, "non-finite value in 't'"),
]


class TestPrecedence:
    @pytest.mark.parametrize("src,var,x,expected", PRECEDENCE_CASES)
    def test_fixture(self, src, var, x, expected):
        assert evaluate(parse(src, var), x) == pytest.approx(expected, rel=1e-15, abs=1e-15)


class TestParseErrors:
    def test_empty(self):
        with pytest.raises(ParseError):
            parse("", "t")
        with pytest.raises(ParseError):
            parse("   ", "t")

    def test_unknown_identifier_with_position(self):
        with pytest.raises(ParseError) as exc:
            parse("1 + foo", "t")
        assert exc.value.position == 4

    def test_wrong_variable_name(self):
        with pytest.raises(ParseError):
            parse("1/(1+eps)", "t")

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse("2t", "t")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("1+2)", "t")

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            parse("1+", "t")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(1+2", "t")

    def test_bad_character(self):
        with pytest.raises(ParseError) as exc:
            parse("1 @ 2", "t")
        assert exc.value.position == 2

    def test_whitespace_separates_tokens(self):
        assert parse("\t1 +\n2 ", "t") == parse("1+2", "t")
        with pytest.raises(ParseError) as exc:
            parse("\t\t@", "t")
        assert exc.value.position == 2

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse("pow(2)", "t")
        with pytest.raises(ParseError):
            parse("exp(1,2)", "t")

    @pytest.mark.parametrize(
        "src,offset", [("1e999", 0), ("-1e999", 1), ("sqrt(1e999)", 5), ("t*1e999", 2)]
    )
    def test_literal_past_float_range(self, src, offset):
        with pytest.raises(ParseError, match="'1e999'") as exc:
            parse(src, "t")
        assert exc.value.position == offset

    def test_literal_below_float_range_is_zero(self):
        assert evaluate(parse("1e-999", "t"), 1.0) == 0.0


class TestEvalErrors:
    def test_division_by_zero(self):
        tree = parse("1/t", "t")
        with pytest.raises(EvaluationError) as exc:
            evaluate(tree, 0.0)
        assert "division by zero" in str(exc.value)

    def test_log_of_nonpositive(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("log(t)", "t"), -1.0)
        with pytest.raises(EvaluationError):
            evaluate(parse("log(t)", "t"), 0.0)

    def test_sqrt_of_negative(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("sqrt(t)", "t"), -4.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("t^0.5", "t"), -2.0)

    def test_overflow_is_an_error_not_inf(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("exp(t)", "t"), 1e9)

    def test_error_names_subexpression(self):
        with pytest.raises(EvaluationError) as exc:
            evaluate(parse("1 + 1/(t-1)", "t"), 1.0)
        assert "/(t-1.0)" in str(exc.value).replace(" ", "")


class TestMessages:
    @pytest.mark.parametrize("src,bad,message", MESSAGE_CASES)
    def test_exact_message(self, src, bad, message):
        tree = parse(src, "t")
        with pytest.raises(EvaluationError) as scalar:
            evaluate(tree, bad)
        with pytest.raises(EvaluationError) as array:
            evaluate(tree, np.array([1.5, bad, 2.0]))
        assert str(scalar.value) == str(array.value) == message

    def test_every_flag_fires(self, monkeypatch):
        seen = set()
        raise_flag = expr._raise_flag

        def spy(kind, flag):
            seen.add(flag)
            raise_flag(kind, flag)

        monkeypatch.setattr(expr, "_raise_flag", spy)
        for src, bad, _ in MESSAGE_CASES:
            with pytest.raises(EvaluationError):
                evaluate(parse(src, "t"), bad)
        assert seen == {1, 2, 8}

    def test_constant_ignores_a_non_finite_input(self):
        tree = parse("2", "t")
        assert evaluate(tree, math.inf) == 2.0
        np.testing.assert_array_equal(
            evaluate(tree, np.array([1.5, math.inf, 2.0])), np.full(3, 2.0)
        )


# the edge inputs: signed zeros, the float range's ends, exp's overflow
# threshold and a large argument, then the non-finite inputs
_EDGES = [0.0, -0.0, 1e-308, -1e-308, 1e308, -1e308, 710.0, 1e9]
_POINTS = st.one_of(
    st.sampled_from(_EDGES + [math.inf, -math.inf, math.nan]),
    st.floats(-3.0, 3.0),
)
# trees that random_expression never builds: log, sqrt, a bare '/', and '^'
# or pow with zero or negative bases
_LEAVES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.0, -2.5, 710.0, 1e-308, 1e308]).map(expr.Num),
    st.just(expr.Var("t")),
)


def _extend(children):
    return st.one_of(
        children.map(expr.Neg),
        st.builds(expr.BinOp, st.sampled_from("+-*/^"), children, children),
        st.builds(
            lambda fn, arg: expr.Call(fn, (arg,)),
            st.sampled_from(["exp", "log", "sqrt", "sin", "cos", "abs"]),
            children,
        ),
        st.builds(lambda base, power: expr.Call("pow", (base, power)), children, children),
    )


def _outcome(fn, tree, x):
    try:
        return fn(tree, x)
    except EvaluationError as exc:
        return exc


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


class TestAgainstCheckedWalk:
    """evaluate against evaluate_ref, the walk that checks each node's
    domain and finiteness by hand: bit-identical values, or an error of
    the same type and message."""

    @settings(max_examples=600, deadline=None)
    @given(st.recursive(_LEAVES, _extend, max_leaves=8), st.lists(_POINTS, min_size=1, max_size=6))
    def test_same_values_and_messages(self, tree, points):
        expected = [_outcome(evaluate_ref, tree, x) for x in points]
        for x, want in zip(points, expected):
            got = _outcome(evaluate, tree, x)
            assert type(got) is type(want)
            if isinstance(want, EvaluationError):
                assert str(got) == str(want)
            else:
                assert _bits(got) == _bits(want)
        errors = [o for o in expected if isinstance(o, EvaluationError)]
        got = _outcome(evaluate, tree, np.array(points))
        if errors:  # an array raises the error of its first bad point
            assert isinstance(got, EvaluationError) and str(got) == str(errors[0])
        else:
            assert _bits(got) == _bits(evaluate_ref(tree, np.array(points)))


class TestEvaluation:
    def test_worked_law(self):
        tree = parse("1/(1+eps)", "eps")
        assert evaluate(tree, 0.0) == 1.0
        assert evaluate(tree, 1.0) == 0.5

    def test_exp_decay(self):
        assert evaluate(parse("exp(-t)", "t"), 1.0) == pytest.approx(1.0 / math.e, rel=1e-15)

    def test_identity(self):
        assert evaluate(parse("t", "t"), 2.75) == 2.75


class TestRoundTrip:
    def test_random_trees_print_and_reparse(self):
        rng = random.Random(20240817)
        points = [0.1 + 1.9 * k / 9 for k in range(10)]
        for _ in range(100):
            tree = random_expression(rng)
            printed = to_source(tree)
            reparsed = parse(printed, "t")
            for x in points:
                try:
                    a = evaluate(tree, x)
                except EvaluationError:
                    with pytest.raises(EvaluationError):
                        evaluate(reparsed, x)
                    continue
                b = evaluate(reparsed, x)
                assert b == pytest.approx(a, rel=1e-12, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9))
    def test_round_trip_property(self, seed):
        rng = random.Random(seed)
        tree = random_expression(rng)
        printed = to_source(tree)
        reparsed = parse(printed, "t")
        for x in (0.3, 1.0, 1.7):
            try:
                a = evaluate(tree, x)
            except EvaluationError:
                continue
            b = evaluate(reparsed, x)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-12)

    def test_source_fixture_round_trip(self):
        for src, var, x, _ in PRECEDENCE_CASES:
            tree = parse(src, var)
            printed = to_source(tree)
            assert evaluate(parse(printed, var), x) == pytest.approx(
                evaluate(tree, x), rel=1e-15, abs=1e-15
            )


class TestArrayEvaluation:
    def test_random_trees_match_scalar_calls(self):
        rng = random.Random(20261018)
        points = np.linspace(0.1, 2.0, 40)
        for _ in range(200):
            tree = random_expression(rng)
            scalar = []
            for x in points:
                try:
                    scalar.append(evaluate(tree, float(x)))
                except EvaluationError as exc:
                    scalar.append(exc)
            errors = [v for v in scalar if isinstance(v, EvaluationError)]
            if errors:
                with pytest.raises(EvaluationError) as exc:
                    evaluate(tree, points)
                assert str(exc.value) == str(errors[0])
                continue
            got = evaluate(tree, points)
            assert got.shape == points.shape
            np.testing.assert_allclose(got, scalar, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "src,bad",
        [
            ("log(t)", 0.0),
            ("(-1)^0.5+t", 1.0),
            ("t^0.5", -2.0),
            ("pow(t,-1)", 0.0),
            ("t^1000", 10.0),
            ("1/(t-1)", 1.0),
            ("sqrt(t)", -4.0),
            ("exp(t)", 1e9),
            ("t*1e308", 10.0),
        ],
    )
    def test_one_bad_point_raises_the_scalar_message(self, src, bad):
        tree = parse(src, "t")
        with pytest.raises(EvaluationError) as scalar:
            evaluate(tree, bad)
        with pytest.raises(EvaluationError) as array:
            evaluate(tree, np.array([1.5, bad, 2.0]))
        assert str(array.value) == str(scalar.value)

    def test_first_bad_point_decides_the_message(self):
        # point 0 fails in sqrt, point 2 in log; the scalar loop meets
        # point 0 first, and so does the array call
        tree = parse("log(0.5-t)+sqrt(t-0.2)", "t")
        with pytest.raises(EvaluationError, match="sqrt of negative"):
            evaluate(tree, np.array([0.0, 0.3, 0.9]))

    @pytest.mark.parametrize("first_bad", [0, 1, 777, 4095])
    def test_first_bad_point_of_a_long_array(self, first_bad):
        # the first bad point fails in log, every later one in sqrt, which
        # the array call meets first
        x = np.linspace(1.0, 2.0, 4096)
        x[first_bad:] = -5.0
        x[first_bad] = 0.0
        tree = parse("sqrt(t+1)+log(t)", "t")
        with pytest.raises(EvaluationError) as scalar:
            evaluate(tree, 0.0)
        with pytest.raises(EvaluationError) as array:
            evaluate(tree, x)
        assert str(array.value) == str(scalar.value)
        assert "log" in str(array.value)

    def test_float_in_float_out(self):
        assert type(evaluate(parse("t^2", "t"), 3.0)) is float
        assert type(evaluate(parse("2", "t"), 3.0)) is float

    def test_array_shape_kept(self):
        x = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        np.testing.assert_array_equal(evaluate(parse("t+1", "t"), x), x + 1.0)
        np.testing.assert_array_equal(evaluate(parse("2", "t"), x), np.full((2, 3), 2.0))
