"""compare._errors against the leaf-by-leaf scan it replaced, bit for bit."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excal.alt import _alt, _basis, _vec
from excal.compare import _errors, _leaves, _values
from excal.errors import NonFiniteValue


def _scan_oracle(lhs, rhs):
    """_errors as one scan per leaf, before the one-pass form: the reference."""
    err = scale = 0.0
    for slot, lv, rv in _leaves(lhs, rhs, ()):
        a, b = _values(lv, rv)
        finite = np.isfinite(a) & np.isfinite(b)
        if not finite.all():
            at = tuple(int(i) for i in np.argwhere(~finite)[0])
            names = tuple(f"slot {i}" for i in slot)
            if len(at) == 3:
                names += (f"component {at[0]}",)
            names += (f"basis key {_basis(lv.n, lv.k)[at[-2]]}",)
            raise NonFiniteValue(
                f"non-finite value at {', '.join(names)}: lhs {float(a[at])!r}, rhs {float(b[at])!r}"
            )
        err = max(err, float(np.abs(a - b).max(initial=0.0)))
        scale = max(scale, float(max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))))
    return err, scale


BIG = np.finfo(float).max
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
         1.0, -2.5, 9e307, 1e308, -1e308, BIG, -BIG]
coeffs = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def leaf_pairs(draw):
    """A pair of values of one kind, n and k, k up to n + 1, each at one
    point or three: a one-point value against a value of several points
    is read as if repeated."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, n + 1))
    rows = math.comb(n, k) if k <= n else 0
    lead, make = draw(st.sampled_from([((rows,), _alt), ((n, rows), _vec)]))
    sides = []
    for points in draw(st.sampled_from([(1, 1), (1, 3), (3, 1), (3, 3)])):
        shape = lead + (1, points)
        flat = draw(st.lists(coeffs, min_size=math.prod(shape), max_size=math.prod(shape)))
        sides.append(make(n, k, None, np.array(flat, dtype=float).reshape(shape)))
    return tuple(sides)


def _split(pairs):
    return [lhs for lhs, _ in pairs], [rhs for _, rhs in pairs]


# parallel nested lists of leaf pairs, empty lists included
trees = st.recursive(leaf_pairs(), lambda kids: st.lists(kids, max_size=3).map(_split),
                     max_leaves=6)
poisons = st.none() | st.tuples(st.integers(0, 2**16), st.integers(0, 2**16), st.booleans(),
                                st.sampled_from([math.nan, math.inf, -math.inf]))


def _poison(lhs, rhs, poison):
    """Put a NaN or infinity at a drawn coefficient of a drawn leaf."""
    leaves = [(lv, rv) for _, lv, rv in _leaves(lhs, rhs, ()) if lv.c.size and rv.c.size]
    if poison is None or not leaves:
        return
    leaf, entry, on_lhs, value = poison
    c = leaves[leaf % len(leaves)][0 if on_lhs else 1].c
    c.flat[entry % c.size] = value


@settings(max_examples=150, derandomize=True, deadline=None)
@given(trees, poisons)
def test_one_pass_equals_the_leaf_scan(tree, poison):
    lhs, rhs = tree
    _poison(lhs, rhs, poison)
    try:
        with np.errstate(over="ignore"):
            want = _scan_oracle(lhs, rhs)
    except NonFiniteValue as exc:
        with pytest.raises(NonFiniteValue) as got:
            _errors(lhs, rhs)
        assert str(got.value) == str(exc)
        return
    if math.isfinite(want[0]):
        assert [x.hex() for x in _errors(lhs, rhs)] == [x.hex() for x in want]
        return
    # finite coefficients whose difference overflows: named, never returned
    with pytest.raises(NonFiniteValue, match="^non-finite difference at ") as got:
        _errors(lhs, rhs)
    a, b = map(float, re.search(r"lhs (\S+), rhs (\S+)$", str(got.value)).groups())
    assert math.isfinite(a) and math.isfinite(b) and not math.isfinite(a - b)
