"""Dense form values: the form-level rules, and an oracle for the tables.

The oracle evaluates wedge, the Frolicher-Nijenhuis interior, i_dir, trace
and sharp from their definitions on random tangent vectors, through
alt.apply (a Laplace expansion), with the Taylor products done by a
truncated convolution written out here: it shares no code with the sign
and index tables of alt or with JetSpace.mul_table.
"""

import functools
import math
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excal.alt import (
    AltValue,
    VecAltValue,
    _fill,
    _partials,
    apply,
    apply_vec,
    i_dir,
    interior,
    sharp,
    trace,
    wedge,
    wedge_sv,
)
from excal import jets
from excal.catalog import builtin
from excal.errors import JetBudgetExhausted
from excal.geometry import _christoffel_square, _riemann, sample_points
from excal.jets import Jet, jet_diff, jet_space, jet_var
from excal.operators import codiff, d_nabla, ext_d, nabla_coord

# -- an independent truncated Taylor product --------------------------------


def _pair(m):
    """An n x n nested list of jets and numbers as a (space, array) pair."""
    n = len(m)
    return _fill((n, n), [((a, b), m[a][b]) for a in range(n) for b in range(n)])


def _midx(n, order):
    """Multi-indices of total degree <= order, graded then lexicographic."""
    return sorted(
        (a for a in product(range(order + 1), repeat=n) if sum(a) <= order),
        key=lambda a: (sum(a), a),
    )


@functools.cache
def _taylor_pairs(n, order):
    """(i, j, out) index arrays of every pair of multi-indices whose sum has
    total degree <= order, written out here from _midx."""
    midx = _midx(n, order)
    where = {a: i for i, a in enumerate(midx)}
    pairs = [
        (i, j, where[tuple(u + v for u, v in zip(a, b))])
        for i, a in enumerate(midx)
        for j, b in enumerate(midx)
        if sum(a) + sum(b) <= order
    ]
    return tuple(np.array(col) for col in zip(*pairs))


def _taylor_mul(x, y, n, order):
    """The truncated product of two Taylor coefficient arrays of one order."""
    i, j, out = _taylor_pairs(n, order)
    return np.bincount(out, weights=x[i] * y[j], minlength=len(x))


def _coeffs(c, size):
    """Taylor coefficients of a jet or number, read at a given size."""
    if isinstance(c, Jet):
        return np.array(c.c[:size], dtype=float)
    out = np.zeros(size)
    out[0] = c
    return out


def _expect(got, want, size):
    """got (a value's coefficient, jet or number) against want's array."""
    assert np.allclose(_coeffs(got, size), want, rtol=1e-12, atol=1e-12)


def _perm_sign(perm):
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1.0 if inv % 2 else 1.0


# -- random operands ----------------------------------------------------------


def _scalar(rng, n, order):
    """A jet of the given order, or a number when order is None."""
    if order is None:
        return float(rng.uniform(-1, 1))
    sp = jet_space(n, order)
    return Jet(sp, rng.uniform(-1, 1, sp.size))


def _form(rng, n, k, order):
    return AltValue(n, k, {I: _scalar(rng, n, order) for I in combinations(range(n), k)})


def _vec_form(rng, n, p, order):
    return VecAltValue(n, p, [_form(rng, n, p, order) for _ in range(n)])


def _orders(draw):
    """Two operand orders: jets of one order, mixed orders, or a constant."""
    order = draw(st.integers(0, 3))
    other = draw(st.sampled_from(["same", "lower", "constant"]))
    second = {"same": order, "lower": draw(st.integers(0, order)), "constant": None}[other]
    if draw(st.booleans()):
        return second, order
    return order, second


def _size(n, *orders):
    """The Taylor size of a result: that of the lowest order among jets."""
    known = [o for o in orders if o is not None]
    return len(_midx(n, min(known))) if known else 1


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 5))
    oa, ob = _orders(draw)
    return n, oa, ob, draw(st.integers(0, 2**32 - 1))


def _alternating(value, vs):
    """value(ordered tuple of positions in vs), read from one evaluation per
    set of positions and the sign of the permutation that sorts the tuple."""
    cache = {}

    def at(positions):
        key = tuple(sorted(positions))
        if key not in cache:
            cache[key] = value([vs[s] for s in key])
        return _perm_sign(positions) * cache[key]

    return at


ORACLE = settings(max_examples=25, derandomize=True, deadline=None)


@ORACLE
@given(_cases())
def test_wedge_against_the_permutation_sum(case):
    # (a ^ b)(v) = sum_sigma sgn(sigma) a(v_sigma(1..k)) b(v_sigma(k+1..)) / (k! l!)
    # for every pair of degrees that fits the dimension
    n, oa, ob, seed = case
    rng = np.random.default_rng(seed)
    size = _size(n, oa, ob)
    order = min(o for o in (oa, ob) if o is not None) if size > 1 else 0
    for ka in range(n + 1):
        for kb in range(n + 1 - ka):
            a, b = _form(rng, n, ka, oa), _form(rng, n, kb, ob)
            m = ka + kb
            vs = rng.uniform(-1, 1, (m, n)).tolist()
            at_a = _alternating(lambda v: _coeffs(apply(a, v), size), vs)
            at_b = _alternating(lambda v: _coeffs(apply(b, v), size), vs)
            want = np.zeros(size)
            for sigma in permutations(range(m)):
                term = _taylor_mul(at_a(sigma[:ka]), at_b(sigma[ka:]), n, order)
                want += _perm_sign(sigma) * term
            want /= math.factorial(ka) * math.factorial(kb)
            got = wedge(a, b)
            assert got.k == m
            _expect(apply(got, vs), want, size)


@ORACLE
@given(_cases())
def test_interior_against_the_permutation_sum(case):
    # (i_phi w)(v) = sum_sigma sgn(sigma) w(phi(v_sigma(1..p)), v_sigma(p+1..))
    #                / (p! (k-1)!), expanded over phi's components, for
    # p = 0, 1, 2 and every degree k that fits the dimension
    n, oa, ob, seed = case
    rng = np.random.default_rng(seed)
    size = _size(n, oa, ob)
    order = min(o for o in (oa, ob) if o is not None) if size > 1 else 0
    e = np.eye(n).tolist()
    for p in range(min(2, n) + 1):
        for k in range(1, n + 2 - p):
            phi, w = _vec_form(rng, n, p, oa), _form(rng, n, k, ob)
            m = k + p - 1
            vs = rng.uniform(-1, 1, (m, n)).tolist()
            at_phi = _alternating(
                lambda v: np.array([_coeffs(c, size) for c in apply_vec(phi, v)]), vs
            )
            at_w = [
                _alternating(lambda v, b=b: _coeffs(apply(w, [e[b]] + v), size), vs)
                for b in range(n)
            ]
            want = np.zeros(size)
            for sigma in permutations(range(m)):
                comps = at_phi(sigma[:p])
                for b in range(n):
                    term = _taylor_mul(comps[b], at_w[b](sigma[p:]), n, order)
                    want += _perm_sign(sigma) * term
            want /= math.factorial(p) * math.factorial(k - 1)
            got = interior(phi, w)
            assert got.k == m
            _expect(apply(got, vs), want, size)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, 5), st.integers(0, 3), st.booleans(), st.integers(0, 2**32 - 1))
def test_i_dir_trace_and_sharp_against_their_definitions(n, order, constant, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n + 1))
    w = _form(rng, n, k, None if constant else order)
    vs = rng.uniform(-1, 1, (k - 1, n)).tolist()
    e = np.eye(n).tolist()
    size = 1 if constant else len(_midx(n, order))
    # (i_{e_a} w)(v) = w(e_a, v)
    for a in range(n):
        _expect(apply(i_dir(a, w), vs), _coeffs(apply(w, [e[a]] + vs), size), size)
    # (tr phi)(v) = sum_b phi^b(e_b, v)
    phi = _vec_form(rng, n, k, None if constant else order)
    want = sum(_coeffs(apply(phi.comps[b], [e[b]] + vs), size) for b in range(n))
    _expect(apply(trace(phi), vs), want, size)
    # sharp(w)^b(v) = sum_a g^{ab} w(e_a, v), g symmetric with jet entries
    g = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            g[a][b] = g[b][a] = _scalar(rng, n, order)
    size = len(_midx(n, order))
    got = sharp(w, _pair(g))
    for b in range(n):
        want = sum(
            _taylor_mul(_coeffs(g[a][b], size), _coeffs(apply(w, [e[a]] + vs), size), n, order)
            for a in range(n)
        )
        _expect(apply(got.comps[b], vs), want, size)


def test_the_oracle_lists_multi_indices_as_jets_do():
    for n in range(1, 6):
        for order in range(4):
            assert _midx(n, order) == jet_space(n, order).midx


# -- the form-level rules -----------------------------------------------------


def _flat_ctx(order):
    G = builtin("euclidean(3)").geometry
    return G.context(sample_points(G, 1, 5)[0], order)


def test_a_point_dependent_value_at_order_zero_cannot_be_differentiated():
    ctx = _flat_ctx(0)
    w = AltValue(3, 1, {(0,): ctx.coords[1], (2,): 2.0})
    assert w.space.order == 0
    with pytest.raises(JetBudgetExhausted):
        ext_d(ctx, w)
    with pytest.raises(JetBudgetExhausted):
        codiff(ctx, w)
    with pytest.raises(JetBudgetExhausted):
        d_nabla(ctx, VecAltValue(3, 1, [w, w, w]))


@pytest.mark.parametrize("order", [0, 2])
def test_constant_and_zero_values_differentiate_to_zero(order):
    ctx = _flat_ctx(order)
    for w in (AltValue(3, 1, {(0,): 1.5, (2,): -2.0}), AltValue.zero(3, 1)):
        assert w.space is None and w.c.shape == (3, 1)
        for out in (ext_d(ctx, w), codiff(ctx, w)):
            assert out.space is None and not out.c.any()
        sp, N = nabla_coord(ctx, w)
        assert sp is None and N.shape == (3, 3, 1) and not N.any()


def test_a_sum_works_at_the_lower_order_and_leaves_its_operands():
    p = (0.3, -0.2, 0.5)
    x2 = [jet_var(p, i, 2) for i in range(3)]
    x1 = [jet_var(p, i, 1) for i in range(3)]
    a = AltValue(3, 1, {(0,): x2[0] * x2[1], (1,): x2[2]})
    b = AltValue(3, 1, {(1,): x1[0], (2,): 4.0})
    before = a.c.copy(), b.c.copy()
    for got in (a + b, b + a):
        assert got.space is jet_space(3, 1) and got.c.shape == (3, 4)
        want = a.c[:, :4] + b.c
        assert np.array_equal(got.c.view(np.int64), want.view(np.int64))
    assert np.array_equal(a.c, before[0]) and np.array_equal(b.c, before[1])
    # a constant joins through its value column only
    c = AltValue(3, 1, {(0,): 1.0, (1,): -1.0})
    for got, sign in ((a - c, 1.0), (c - a, -1.0)):
        assert got.space is a.space
        assert np.array_equal(got.c[:, 1:], sign * a.c[:, 1:])
        assert np.array_equal(got.c[:, 0], sign * (a.c[:, 0] - c.c[:, 0]))


def test_coeffs_leaves_out_zero_rows_and_cannot_be_written():
    p = (0.3, -0.2, 0.5)
    x = [jet_var(p, i, 1) for i in range(3)]
    w = AltValue(3, 2, {(0, 1): x[0] - x[0], (0, 2): x[1], (1, 2): 0.0})
    assert w.c.shape == (3, 4) and not w.c[0].any()
    assert list(w.coeffs) == [(0, 2)]
    with pytest.raises(TypeError):
        w.coeffs[(0, 1)] = 1.0
    assert w.get((0, 1)) == 0.0 and w.get((1, 2)) == 0.0


def test_degrees_above_the_dimension_stay_canonical_zero_values():
    p = (0.3, -0.2)
    top = AltValue(2, 2, {(0, 1): jet_var(p, 0, 2)})
    one = AltValue(2, 1, {(1,): 1.0})
    for w in (wedge(one, top), wedge(top, top), ext_d(None, top)):
        assert w.k > 2 and w.c.shape == (0, 1) and not w.coeffs
    assert (wedge(top, top) + wedge(top, top)).k == 4
    assert interior(VecAltValue.identity(2), wedge(one, top)).c.shape == (0, 1)


# -- one kind of table ---------------------------------------------------------


def test_linear_maps_are_one_kernel_call_each(monkeypatch):
    # d, i_dir and trace are products of the constant one with their operand
    rng = np.random.default_rng(3)
    w = _form(rng, 3, 2, 2)
    phi = _vec_form(rng, 3, 2, 2)
    calls = []
    kernel = jets.mul_coeffs
    monkeypatch.setattr(jets, "mul_coeffs", lambda *args: calls.append(args) or kernel(*args))
    for op in (lambda: ext_d(None, w), lambda: i_dir(1, w), lambda: trace(phi)):
        calls.clear()
        op()
        assert len(calls) == 1


def test_one_dimensional_values_keep_their_component_axis():
    # on a 1-D chart a tangent-valued value has one component and a form of
    # degree 0 or 1 one row, so the layout is the table's, not the sizes'
    G = builtin("euclidean(1)").geometry
    ctx = G.context(sample_points(G, 1, 3)[0], 2)
    rng = np.random.default_rng(7)
    s, g = _scalar(rng, 1, 2), _scalar(rng, 1, 2)
    for k in (0, 1):
        phi = _vec_form(rng, 1, k, 2)
        cases = [(phi.scale(s), phi.comps[0].scale(s))]
        for l in range(2 - k):
            omega = _form(rng, 1, l, 2)
            cases.append((wedge_sv(omega, phi), wedge(omega, phi.comps[0])))
        if k == 0:  # the flat chart's d_nabla is d of each component
            cases.append((d_nabla(ctx, phi), ext_d(ctx, phi.comps[0])))
        else:
            w = _form(rng, 1, k, 2)
            cases.append((sharp(w, _pair([[g]])), i_dir(0, w).scale(g)))
        for got, want in cases:
            assert got.c.ndim == 3 and got.c.shape[:2] == (1, math.comb(1, got.k))
            assert got.k == want.k and got.space is want.space
            assert np.array_equal(got.comps[0].c, want.c)


# -- the curvature's Christoffel products ------------------------------------


def _curvature_at_christoffel_order(gam):
    """R from nested Christoffel jets by the scalar formula, with the products
    taken at their own order, one above the curvature's."""
    n = len(gam)
    d = [[[[jet_diff(gam[l][i][j], m) for m in range(n)] for j in range(n)]
          for i in range(n)] for l in range(n)]
    R = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i, j, k, l in product(range(n), repeat=4):
        acc = d[l][j][k][i] - d[l][i][k][j]
        for m in range(n):
            acc = acc + gam[m][j][k] * gam[l][i][m] - gam[m][i][k] * gam[l][j][m]
        R[i][j][k][l] = acc
    return R


@pytest.mark.parametrize("name, order", [("hopf_lck", 3), ("sasakian_s3", 2), ("sphere2", 4)])
def test_curvature_bits_do_not_depend_on_the_christoffel_product_order(name, order):
    G = builtin(name).geometry
    ctx = G.context(sample_points(G, 1, 11)[0], order)
    space, R = ctx.curvature()
    sg, gam = ctx.gamma()
    # the products read Gamma's prefix at the curvature's order; taken at
    # Gamma's own order, they give the same bits
    want_space, want = _riemann(*_partials(G.n, sg, gam), *_christoffel_square(G.n)(sg, gam, sg, gam))
    assert space is want_space and space.order == order - 2
    assert np.array_equal(R.view(np.int64), want.view(np.int64))
    # and the dense R is the scalar formula's, Taylor coefficient by coefficient
    nested = [[[Jet(sg, gam[l, i, j]) for j in range(G.n)] for i in range(G.n)] for l in range(G.n)]
    scalar = _curvature_at_christoffel_order(nested)
    for i, j, k, l in product(range(G.n), repeat=4):
        _expect(scalar[i][j][k][l], R[i, j, k, l], space.size)
