"""Jet arithmetic: exact derivatives, ring laws, truncation, error paths."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excal.errors import (
    DivisionByZeroAtPoint,
    DomainError,
    JetBudgetExhausted,
    OrderExceeded,
    ShapeMismatch,
)
from excal.jets import (
    MAX_ORDER,
    Jet,
    is_zero,
    jet_apply,
    jet_const,
    jet_diff,
    jet_partial,
    jet_space,
    jet_var,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


def test_const_and_var_values():
    c = jet_const(2.5, 3, 2)
    assert c.value == 2.5
    assert jet_partial(c, (1, 0, 0)) == 0.0
    x = jet_var((1.0, 2.0), 0, 2)
    assert x.value == 1.0
    assert jet_partial(x, (1, 0)) == 1.0
    assert jet_partial(x, (0, 1)) == 0.0
    assert jet_partial(x, (2, 0)) == 0.0


def test_polynomial_partials():
    # f(x, y) = x^2 y + 3y at (2, 5)
    x = jet_var((2.0, 5.0), 0, 3)
    y = jet_var((2.0, 5.0), 1, 3)
    f = x * x * y + 3.0 * y
    assert f.value == pytest.approx(35.0)
    assert jet_partial(f, (1, 0)) == pytest.approx(20.0)  # 2xy
    assert jet_partial(f, (0, 1)) == pytest.approx(7.0)  # x^2 + 3
    assert jet_partial(f, (2, 0)) == pytest.approx(10.0)  # 2y
    assert jet_partial(f, (1, 1)) == pytest.approx(4.0)  # 2x
    assert jet_partial(f, (3, 0)) == 0.0


def test_jet_diff_matches_partials():
    x = jet_var((0.7, -0.3), 0, 3)
    y = jet_var((0.7, -0.3), 1, 3)
    f = x * y * y + x
    g = jet_diff(f, 1)  # d/dy, one order lower
    assert g.order == 2
    assert g.value == pytest.approx(2 * 0.7 * -0.3)
    assert jet_partial(g, (1, 1)) == pytest.approx(2.0)
    # a plain-number coefficient is a constant
    assert jet_diff(2.5, 0) == 0.0
    assert jet_diff(0, 1) == 0.0


def test_elementary_functions_chain_rule():
    x = jet_var((0.4,), 0, 4)
    f = jet_apply("sin", x * x)
    assert f.value == pytest.approx(math.sin(0.16))
    assert jet_partial(f, (1,)) == pytest.approx(2 * 0.4 * math.cos(0.16))
    g = jet_apply("exp", jet_apply("log", x))
    np.testing.assert_allclose(g.c, x.c, atol=1e-14)
    s = jet_apply("sqrt", x)
    np.testing.assert_allclose((s * s).c, x.c, atol=1e-14)


def test_tan_matches_sin_over_cos():
    x = jet_var((1.1,), 0, 4)
    lhs = jet_apply("tan", x)
    rhs = jet_apply("sin", x) * jet_apply("cos", x).reciprocal()
    np.testing.assert_allclose(lhs.c, rhs.c, atol=1e-13)


def test_reciprocal_and_division():
    x = jet_var((3.0, 1.0), 0, 3)
    one = x * x.reciprocal()
    np.testing.assert_allclose(one.c, jet_const(1.0, 2, 3).c, atol=1e-14)
    q = (x * x) / x
    np.testing.assert_allclose(q.c, x.c, atol=1e-14)


def test_huge_integer_exponent_returns_quickly():
    # one multiply per bit of the exponent: 10**308 takes about 1024 squarings
    x = jet_var((0.5,), 0, 2)
    with np.errstate(over="ignore", under="ignore"):
        y = x ** (10**308)
    assert y.value == 0.0
    assert (x ** 5).c == pytest.approx((x * x * x * x * x).c)


def test_integer_power_overflow_is_a_domain_error():
    # 1.5 ** 10**308 overflows: a typed error, not a jet of inf and nan
    with pytest.raises(DomainError):
        jet_var((1.5,), 0, 2) ** 10**308


def test_integer_powers():
    x = jet_var((-2.0,), 0, 3)
    cube = x**3
    assert cube.value == -8.0
    assert jet_partial(cube, (1,)) == pytest.approx(12.0)
    inv = x**-2
    assert inv.value == pytest.approx(0.25)
    # an integral float exponent multiplies at a positive base too
    y = jet_var((1.5,), 0, 3)
    np.testing.assert_array_equal((y**3.0).c, (y * y * y).c)
    # integer powers go through ** only; the series needs a positive base
    with pytest.raises(DomainError):
        jet_apply("pow", x, 2)


def test_truncation_is_prefix_slice():
    x = jet_var((1.5, 0.5), 0, 3)
    f = jet_apply("exp", x)
    t = f.truncate(1)
    assert t.order == 1
    np.testing.assert_allclose(t.c, f.c[: t.space.size])
    with pytest.raises(OrderExceeded):
        t.truncate(3)


def test_mixed_order_operands_auto_truncate():
    a = jet_var((1.0,), 0, 3)
    b = jet_var((1.0,), 0, 2)
    assert (a * b).order == 2
    assert (a + b).order == 2


@pytest.mark.parametrize("orders", [(3, 2), (2, 0), (4, 1)])
@pytest.mark.parametrize(
    "fn", [operator.add, operator.sub, operator.mul, operator.truediv],
    ids=["add", "sub", "mul", "div"],
)
def test_mixed_orders_read_the_common_prefix(orders, fn):
    # a mixed-order result is the same operation on both operands truncated
    # to the lower order, bit for bit, and leaves both operands as they were
    p = (0.3, -0.7)
    a = jet_apply("exp", jet_var(p, 0, orders[0]) * jet_var(p, 1, orders[0]))
    b = jet_apply("cos", jet_var(p, 0, orders[1]) - jet_var(p, 1, orders[1]))
    k = min(orders)
    for x, y in ((a, b), (b, a)):
        before = x.c.copy(), y.c.copy()
        got = fn(x, y)
        assert got.order == k
        np.testing.assert_array_equal(got.c, fn(x.truncate(k), y.truncate(k)).c)
        np.testing.assert_array_equal(x.c, before[0])
        np.testing.assert_array_equal(y.c, before[1])


def test_error_paths():
    with pytest.raises(JetBudgetExhausted):
        jet_space(2, MAX_ORDER + 1)
    with pytest.raises(JetBudgetExhausted):
        jet_diff(jet_const(1.0, 2, 0), 0)
    with pytest.raises(ShapeMismatch):
        jet_var((1.0, 2.0), 0, 2) + jet_var((1.0,), 0, 2)
    with pytest.raises(ShapeMismatch):
        jet_var((1.0,), 3, 2)
    with pytest.raises(DivisionByZeroAtPoint):
        jet_const(0.0, 1, 2).reciprocal()
    with pytest.raises(DomainError):  # 1e-200**2 underflows to a zero divisor
        jet_const(1e-200, 1, 2).reciprocal()
    with pytest.raises(OrderExceeded):
        jet_partial(jet_const(1.0, 2, 1), (2, 0))


def _rand_jet(draw_vals, n, order):
    sp = jet_space(n, order)
    return Jet(sp, np.array(draw_vals[: sp.size]))


@st.composite
def jets2(draw, n=2, order=3):
    size = jet_space(n, order).size
    vals = draw(st.lists(finite, min_size=size, max_size=size))
    return _rand_jet(vals, n, order)


@settings(max_examples=50, deadline=None)
@given(jets2(), jets2(), jets2())
def test_ring_laws(a, b, c):
    lhs = (a + b) * c
    rhs = a * c + b * c
    np.testing.assert_allclose(lhs.c, rhs.c, atol=1e-9, rtol=1e-9)
    np.testing.assert_allclose((a * b).c, (b * a).c, atol=1e-12)
    np.testing.assert_allclose(((a * b) * c).c, (a * (b * c)).c, atol=1e-7, rtol=1e-9)


@settings(max_examples=50, deadline=None)
@given(jets2())
def test_additive_inverse(a):
    np.testing.assert_allclose((a - a).c, 0.0, atol=0.0)
    np.testing.assert_allclose((-(-a)).c, a.c)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.1, max_value=5.0), st.floats(min_value=-2, max_value=2))
def test_exp_log_identities(x0, y0):
    x = jet_var((x0, y0), 0, 3)
    y = jet_var((x0, y0), 1, 3)
    lhs = jet_apply("exp", x + y)
    rhs = jet_apply("exp", x) * jet_apply("exp", y)
    np.testing.assert_allclose(lhs.c, rhs.c, atol=1e-8, rtol=1e-8)


def test_sin_cos_pythagoras():
    x = jet_var((0.9, 0.1), 0, 4)
    s, c = jet_apply("sin", x), jet_apply("cos", x)
    total = s * s + c * c
    np.testing.assert_allclose(total.c, jet_const(1.0, 2, 4).c, atol=1e-14)


def test_is_zero():
    # the one zero rule: a number equal to 0 (signed zero too), or a jet
    # with no nonzero Taylor coefficient; tiny and NaN values are not zero
    for c in (0, 0.0, -0.0, np.float64(0.0), jet_const(0.0, 2, 2), jet_const(-0.0, 2, 0)):
        assert is_zero(c), c
    grad_only = jet_var((0.0, 0.5), 0, 1)
    assert grad_only.value == 0.0
    nan_jet = jet_const(0.0, 2, 1)
    nan_jet.c[2] = math.nan
    for c in (1e-300, -1e-300, math.nan, grad_only, nan_jet, jet_const(1e-300, 2, 2)):
        assert not is_zero(c), c


def test_numbers_are_constants():
    # the constant rule: a plain number is a point-independent value
    assert jet_apply("sqrt", 4) == 2.0
    for fn, x in (("log", -1.0), ("exp", 1000.0), ("sqrt", 0.0)):
        with pytest.raises(DomainError):
            jet_apply(fn, x)
    assert jet_partial(2.5, (0, 0)) == 2.5
    assert jet_partial(2.5, (1, 0)) == 0.0


# -- the point rule: a jet of several points is each point's jet ---------------

POINTS = 7


def _coordinates(values, order):
    """The batched coordinate jets of the (P, n) values, and each point's."""
    n = values.shape[1]
    batch = [jet_var(list(values.T), i, order) for i in range(n)]
    each = [[jet_var(tuple(p), i, order) for i in range(n)] for p in values.tolist()]
    return batch, each


def _assert_columns(batch, each, label):
    for i, alone in enumerate(each):
        if not isinstance(alone, Jet):  # a number is the same at every point
            assert batch == alone, (label, i)
            continue
        assert batch.space is alone.space, (label, i)
        assert batch.c.shape == alone.c.shape + (POINTS,), (label, i)
        col = batch.c[:, i]
        assert np.array_equal(col, alone.c) and np.array_equal(np.signbit(col), np.signbit(alone.c)), (label, i)


def _operations():
    from excal import sexpr

    ops = {
        "x + y": lambda x, y: x + y, "x - y": lambda x, y: x - y,
        "x * y": lambda x, y: x * y, "x / y": lambda x, y: x / y,
        "x + 2.5": lambda x, y: x + 2.5, "2.5 + x": lambda x, y: 2.5 + x,
        "x - 2.5": lambda x, y: x - 2.5, "2.5 - x": lambda x, y: 2.5 - x,
        "x * -1.5": lambda x, y: x * -1.5, "-1.5 * x": lambda x, y: -1.5 * x,
        "x / 3": lambda x, y: x / 3.0, "3 / x": lambda x, y: 3.0 / x,
        "-x": lambda x, y: -x, "1 / x": lambda x, y: x.reciprocal(),
        "x ^ 3": lambda x, y: x ** 3, "x ^ -2": lambda x, y: x ** -2, "x ^ 0": lambda x, y: x ** 0,
        "x ^ 3.0": lambda x, y: x ** 3.0, "x ^ 2.5": lambda x, y: x ** 2.5,
        "x ^ -0.5": lambda x, y: x ** -0.5,
    }
    for fn in sexpr.FUNCTIONS:
        r = (1.5,) if fn == "pow" else ()
        ops[fn] = lambda x, y, fn=fn, r=r: jet_apply(fn, 0.5 * x * y + 0.1, *r)
    # through the walker: a jet exponent, constant where it has no variable
    for src in ("x1 ^ x2", "2 ^ (x1 * x2)", "x1 ^ (x2 - x2 + 2)", "pow(x1, x2) / (1 + x1 * x2)"):
        tree = sexpr.parse(src, ["x1", "x2"])
        ops[src] = lambda x, y, tree=tree: sexpr.eval_jet(tree, (x, y))
    return ops


@pytest.mark.parametrize("order", range(MAX_ORDER + 1))
def test_a_batched_jet_is_each_points_jet_bit_for_bit(order):
    values = np.random.default_rng(order).uniform(0.2, 1.5, (POINTS, 2))
    batch, each = _coordinates(values, order)
    for label, op in _operations().items():
        _assert_columns(op(*batch), [op(*xs) for xs in each], label)


def test_a_jet_exponent_takes_each_points_branch():
    # at order 0 an exponent jet is constant at every point, with a value
    # per point: the integral ones multiply, the others compose a series
    from excal import sexpr

    values = np.array([[0.5, 2.0], [0.7, 2.5], [1.2, -1.0], [0.9, 0.0], [1.1, 3.0], [0.3, 0.5], [0.8, 1.0]])
    tree = sexpr.parse("x1 ^ x2", ["x1", "x2"])
    for order in (0, 2):
        batch, each = _coordinates(values, order)
        _assert_columns(sexpr.eval_jet(tree, batch), [sexpr.eval_jet(tree, xs) for xs in each], order)


def test_a_refusal_at_one_point_refuses_the_batch():
    values = np.random.default_rng(3).uniform(0.2, 1.5, (POINTS, 2))
    values[4, 0] = -0.25
    (x, _), each = _coordinates(values, 2)
    with pytest.raises(DomainError) as exc:
        jet_apply("log", x)
    assert exc.value.value == -0.25
    with pytest.raises(DomainError):
        jet_apply("log", each[4][0])
    jet_apply("log", each[3][0])  # the other points alone are fine
    values[4, 0] = 0.0
    (x, _), _ = _coordinates(values, 2)
    with pytest.raises(DivisionByZeroAtPoint):
        x.reciprocal()
    with pytest.raises(DivisionByZeroAtPoint):
        1.0 / x
