"""Jet arithmetic: exact derivatives, ring laws, truncation, error paths."""

import math

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
