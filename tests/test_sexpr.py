"""Scalar expression language: parsing, precedence, evaluation, printing."""

import math
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excal import opexpr, sexpr
from excal.errors import (
    ArityError,
    DivisionByZeroAtPoint,
    DomainError,
    ExcalError,
    ExprSyntaxError,
    JetBudgetExhausted,
    UnknownIdentifier,
)
from excal.jets import Jet, jet_diff, jet_var

XY = ["x", "y"]


def ev(src, p=(0.0, 0.0)):
    return sexpr.eval_value(sexpr.parse(src, XY), p)


def _coords(p, order):
    """The coordinate jets at p, as a chart context builds them."""
    return tuple(jet_var(p, i, order) for i in range(len(p)))


@pytest.mark.parametrize(
    "src,expected",
    [
        ("2+3*4", 14.0),
        ("(2+3)*4", 20.0),
        ("2+3*4^2", 50.0),
        ("2^3^2", 512.0),  # right-associative power
        ("-2^2", -4.0),  # unary minus binds looser than ^
        ("(-2)^2", 4.0),
        ("6/3/2", 1.0),  # left-associative division
        ("1 - 2 - 3", -4.0),
        ("pi", math.pi),
        ("e^2", math.e**2),
        ("2e3", 2000.0),
        ("1.5e-2", 0.015),
        ("pow(2, 10)", 1024.0),
        ("sqrt(2)*sqrt(2)", pytest.approx(2.0)),
    ],
)
def test_arithmetic(src, expected):
    assert ev(src) == expected


def test_variables_and_functions():
    p = (0.3, 1.7)
    assert ev("x*y + sin(x)", p) == pytest.approx(0.3 * 1.7 + math.sin(0.3))
    assert ev("cos(x)^2 + sin(x)^2", p) == pytest.approx(1.0)
    assert ev("log(exp(y))", p) == pytest.approx(1.7)
    assert ev("tan(x)", p) == pytest.approx(math.tan(0.3))
    with pytest.raises(ArityError):  # y is past the end of a 1-d point
        sexpr.eval_value(sexpr.parse("y", XY), (0.3,))


def test_jet_evaluation_derivatives():
    from excal.jets import jet_partial

    e = sexpr.parse("sin(x*y)", XY)
    j = sexpr.eval_jet(e, _coords((0.5, 2.0), 2))
    assert j.value == pytest.approx(math.sin(1.0))
    assert jet_partial(j, (1, 0)) == pytest.approx(2.0 * math.cos(1.0))
    assert jet_partial(j, (0, 1)) == pytest.approx(0.5 * math.cos(1.0))
    # d2/dxdy sin(xy) = cos(xy) - xy sin(xy)
    assert jet_partial(j, (1, 1)) == pytest.approx(math.cos(1.0) - math.sin(1.0))


def test_jet_power_with_variable_exponent():
    e = sexpr.parse("x^y", XY)
    j = sexpr.eval_jet(e, _coords((2.0, 3.0), 1))
    assert j.value == pytest.approx(8.0)
    from excal.jets import jet_partial

    assert jet_partial(j, (0, 1)) == pytest.approx(8.0 * math.log(2.0))
    # a number base with a jet exponent
    j = sexpr.eval_jet(sexpr.parse("2^x", XY), _coords((3.0, 0.0), 1))
    assert j.value == pytest.approx(8.0)
    assert jet_partial(j, (1, 0)) == pytest.approx(8.0 * math.log(2.0))


def test_constant_expression_is_a_number():
    # the constant rule: an expression that reads no coordinate evaluates to
    # a plain float at any order, the float that eval_value gives
    e = sexpr.parse("2*pi - sqrt(4)", XY)
    for order in (0, 2):
        v = sexpr.eval_jet(e, _coords((0.5, 2.0), order))
        assert type(v) is float and v == sexpr.eval_value(e, (0.5, 2.0))


@pytest.mark.parametrize(
    "src, order", [("x", 0), ("x - x", 0), ("2^x", 0), ("2^(x^2)", 1)]
)
def test_point_dependent_expression_stays_a_jet(src, order):
    # even where its derivatives vanish at the point, so that differentiating
    # it past its order raises rather than silently reading 0
    j = sexpr.eval_jet(sexpr.parse(src, XY), _coords((0.0, 2.0), order))
    assert isinstance(j, Jet) and j.order == order
    for _ in range(order):
        j = jet_diff(j, 0)
    with pytest.raises(JetBudgetExhausted):
        jet_diff(j, 0)


def test_negative_base_integer_exponent():
    assert ev("(-2)^3") == -8.0
    assert ev("pow(0-2, 2)") == 4.0
    j = sexpr.eval_jet(sexpr.parse("(x-1)^2", XY), _coords((0.0, 0.0), 2))
    assert j.value == 1.0
    # a negated and a plain constant exponent on a negative base
    from excal.jets import jet_partial

    for src, value, slope in (("(x-1)^-2", 1.0, 2.0), ("(x-1)^3", -1.0, 3.0)):
        j = sexpr.eval_jet(sexpr.parse(src, XY), _coords((0.0, 0.0), 2))
        assert j.value == value
        assert jet_partial(j, (1, 0)) == slope


@pytest.mark.parametrize(
    "src,exc",
    [
        ("x +", ExprSyntaxError),
        ("(x", ExprSyntaxError),
        ("x y", ExprSyntaxError),
        ("2..3", ExprSyntaxError),
        ("$x", ExprSyntaxError),
        ("z + 1", UnknownIdentifier),
        ("foo(x)", UnknownIdentifier),
        ("sin(x, y)", ArityError),
        ("pow(2)", ArityError),
        # nesting past sexpr.MAX_DEPTH is refused, not a RecursionError in
        # the parser or in evaluation
        pytest.param("(" * 400 + "1" + ")" * 400, ExprSyntaxError, id="deep-parens"),
        pytest.param("-" * 3000 + "1", ExprSyntaxError, id="deep-minus"),
        pytest.param("1" + "+x" * 5000, ExprSyntaxError, id="long-sum"),
    ],
)
def test_parse_errors(src, exc):
    with pytest.raises(exc):
        sexpr.parse(src, XY)


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as ei:
        sexpr.parse("1 + @", XY)
    assert ei.value.offset == 4


@pytest.mark.parametrize("literal", ["1e400", "1" * 400])
def test_a_literal_past_the_float_range_is_refused_at_its_offset(literal):
    # float() reads both as inf
    with pytest.raises(ExprSyntaxError) as ei:
        sexpr.parse("x + " + literal, XY)
    assert ei.value.offset == 4


@pytest.mark.parametrize(
    "src,exc",
    [
        ("1/ (x - x)", DivisionByZeroAtPoint),
        ("log(x - 1)", DomainError),
        ("sqrt(0 - 1)", DomainError),
        ("(x-1)^0.5", DomainError),
        ("exp(2000*x)", DomainError),  # float overflow
        ("pow(x + 2, 1000.5)", DomainError),
        ("sin(x*1e308*10)", DomainError),  # sin of an infinite value
        ("1/(2-2)", DivisionByZeroAtPoint),  # a zero number divisor
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evaluation_domain_errors(src, exc):
    e = sexpr.parse(src, XY)
    for evaluate in (sexpr.eval_value, lambda e, p: sexpr.eval_jet(e, _coords(p, 2))):
        with pytest.raises(exc) as ei:
            evaluate(e, (0.5, 0.5))
        if exc is DivisionByZeroAtPoint:
            assert ei.value.span == src.index("/")


def test_pretty_round_trip():
    cases = [
        "x + y*2",
        "-(x + y)",
        "x^(y + 1)",
        "sin(x*pi) - cos(y)/2",
        "pow(x, 2) + sqrt(y + 3)",
        "1/(x + 2)^2",
        "-x^2",
    ]
    for src in cases:
        e = sexpr.parse(src, XY)
        printed = sexpr.pretty(e)
        again = sexpr.parse(printed, XY)
        for p in [(0.25, 0.5), (1.5, 2.5)]:
            assert sexpr.eval_value(again, p) == pytest.approx(
                sexpr.eval_value(e, p), rel=1e-15
            )
        # printing is idempotent
        assert sexpr.pretty(again) == printed


coords = st.floats(min_value=0.1, max_value=3.0)


@settings(max_examples=60, deadline=None)
@given(coords, coords)
def test_jet_value_agrees_with_float_eval(x, y):
    e = sexpr.parse("x^2*cos(y) + sqrt(x + y) - y/x", XY)
    want = sexpr.eval_value(e, (x, y))
    got = sexpr.eval_jet(e, _coords((x, y), 2)).value
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


# the lexer both languages share, fed ASCII and non-ASCII digits, letters,
# marks and a zero-width space
FUZZ_TEXT = st.text(
    alphabet=st.sampled_from(
        string.ascii_letters + string.digits + "+-*/^(),.eE_ " + "²³½٣𝟙Ⅻßµω\u200b"
    ),
    max_size=16,
)


def _parse_error(parse, src):
    """The message of the typed error parse(src) raises, or None."""
    try:
        parse(src)
    except ExcalError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(FUZZ_TEXT)
def test_both_parsers_return_a_tree_or_raise_a_typed_error(src):
    _parse_error(lambda s: sexpr.parse(s, ["x1", "y2"]), src)
    first = _parse_error(opexpr.parse, src)
    assert _parse_error(opexpr.parse, src) == first
