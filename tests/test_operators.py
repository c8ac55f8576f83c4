"""Operator calculus: d, delta, Lie/covariant derivatives, decomposition."""

from itertools import combinations

import numpy as np
import pytest

from excal import jets, sexpr
from excal.alt import AltValue, VecAltValue, _partials, interior, trace, wedge
from excal.catalog import builtin
from excal.compare import alt_errors, within, zero_like
from excal.errors import JetBudgetExhausted, NonFiniteValue, NotADerivation
from excal.geometry import sample_points
from excal.jets import Jet, jet_diff
from excal.operators import (
    Operator,
    codiff,
    curvature_shuffle,
    d_nabla,
    endo_compose,
    ext_d,
    fn_decompose,
    graded_comm,
    lie_metric,
    lie_vec,
    nabla_coord,
    nabla_vec,
    nijenhuis,
    op_d,
    op_delta,
    op_eps,
    sharp_field,
    value_of,
)
from excal.verifier import _frame_codiff, random_form, random_vec_form

E3 = builtin("euclidean(3)").geometry


def ctx_at(G, order=3, seed=17):
    p = sample_points(G, 1, seed)[0]
    return G.context(p, order)


def jet_field(ctx, srcs):
    """Vector field with jet components from expression strings."""
    G = ctx.geometry
    comps = [sexpr.eval_jet(G.parse_expr(s), ctx.coords) for s in srcs]
    return VecAltValue.from_vector(comps)


def test_exterior_derivative_basic():
    ctx = ctx_at(E3)
    # d(x1 dx2) = dx1 ^ dx2
    x1 = sexpr.eval_jet(E3.parse_expr("x1"), ctx.coords)
    w = AltValue(3, 1, {(1,): x1})
    dw = value_of(ext_d(ctx, w))
    assert dw.get((0, 1)) == pytest.approx(1.0)
    assert dw.get((0, 2)) == 0.0
    # top degree: d of a 3-form is canonical zero of degree 4
    top = random_form(E3, 3, 5).at(ctx)
    assert ext_d(ctx, top).k == 4


def test_d_squared_zero_pointwise():
    ctx = ctx_at(E3)
    for k in range(0, 3):
        w = random_form(E3, k, 21).at(ctx)
        dd = ext_d(ctx, ext_d(ctx, w))
        assert alt_errors(dd, zero_like(dd))[0] < 1e-12


def test_classical_lie_derivative_oracle():
    # L_X w against the coordinate formula
    # (L_X w)_I = X^a d_a w_I + sum_s (d_{I_s} X^a) w_{I|s->a}
    ctx = ctx_at(E3)
    X = jet_field(ctx, ["x2*x3", "x1 - x3*x3", "x1*x2 + x2"])
    for k in (1, 2):
        w = random_form(E3, k, 31).at(ctx)
        got = value_of(lie_vec(ctx, X, w))
        comps = X.as_vector()
        for I in combinations(range(3), k):
            acc = 0.0
            wI = w.coeffs.get(I, None)
            for a in range(3):
                if wI is not None:
                    acc += comps[a].value * jet_diff(wI, a).value
            for s in range(k):
                for a in range(3):
                    key = tuple(sorted(I[:s] + (a,) + I[s + 1 :]))
                    if len(set(I[:s] + (a,) + I[s + 1 :])) < k:
                        continue
                    # sign from re-sorting the substituted index
                    seq = I[:s] + (a,) + I[s + 1 :]
                    inv = sum(
                        1
                        for u in range(k)
                        for v in range(u + 1, k)
                        if seq[u] > seq[v]
                    )
                    sign = -1.0 if inv % 2 else 1.0
                    c = w.coeffs.get(key)
                    if c is None:
                        continue
                    acc += sign * jet_diff(comps[a], I[s]).value * c.value
            assert got.get(I) == pytest.approx(acc, abs=1e-11)


def test_lie_of_identity_is_d():
    ctx = ctx_at(E3)
    Id = VecAltValue.identity(3)
    for k in range(0, 3):
        w = random_form(E3, k, 8).at(ctx)
        lhs = value_of(lie_vec(ctx, Id, w))
        rhs = value_of(ext_d(ctx, w))
        assert within(lhs, rhs, atol=1e-12, rtol=1e-12)


def test_interior_identity_scales_by_degree():
    ctx = ctx_at(E3)
    Id = VecAltValue.identity(3)
    for k in range(1, 4):
        w = random_form(E3, k, 9).at(ctx)
        assert within(value_of(interior(Id, w)), value_of(w.scale(float(k))), atol=1e-12)
    assert trace(Id).get(()) == 3.0


def test_identity_is_parallel_on_curved_chart():
    S = builtin("sphere2").geometry
    ctx = ctx_at(S, order=2)
    out = d_nabla(ctx, VecAltValue.identity(2))
    assert alt_errors(out, zero_like(out))[0] < 1e-12


def test_codiff_euclidean_divergence():
    # delta(w) = -div on 1-forms in flat coordinates
    G = builtin("euclidean(2)").geometry
    ctx = ctx_at(G, order=2)
    x1 = sexpr.eval_jet(G.parse_expr("x1"), ctx.coords)
    w = AltValue(2, 1, {(0,): x1})
    out = value_of(codiff(ctx, w))
    assert out.get(()) == pytest.approx(-1.0)
    # degree 0 input: canonical zero of degree -1
    z = codiff(ctx, AltValue(2, 0, {(): x1}))
    assert z.k == -1 and not z.coeffs


def test_codiff_frame_independent():
    # the g^{-1} contraction against the frame formula -sum_X i_X nabla_X w
    # over either Gram-Schmidt frame
    S = builtin("sasakian_s3").geometry
    ctx = ctx_at(S, order=2)
    w = random_form(S, 2, 13).at(ctx)
    a = value_of(codiff(ctx, w))
    for descending in (False, True):
        b = value_of(_frame_codiff(ctx, w, ctx.frame(descending)))
        assert within(a, b, atol=1e-10)


def test_nabla_on_a_flat_chart_is_the_partials_alone(monkeypatch):
    # euclidean(3) has the zero constant as its Christoffel symbols, so nabla
    # multiplies nothing: no kernel call, and the partials bit for bit
    ctx = ctx_at(E3, order=2)
    w = random_form(E3, 1, 5).at(ctx)
    phi = random_vec_form(E3, 1, 6).at(ctx)
    ctx.gamma()  # built once per context
    calls = []
    kernel = jets.mul_coeffs
    monkeypatch.setattr(jets, "mul_coeffs", lambda *args: calls.append(args) or kernel(*args))
    for v in (w, phi):
        sp, N = nabla_coord(ctx, v)
        sd, D = _partials(3, v.space, v.c)
        assert sp is sd and np.array_equal(N, D)
    assert not calls


def test_sharp_field_euclidean():
    ctx = ctx_at(E3, order=2)
    dx1 = AltValue(3, 1, {(0,): 1.0})
    v = sharp_field(ctx, dx1)
    assert value_of(v).as_vector() == [1.0, 0.0, 0.0]


def test_graded_commutator_signs():
    ctx = ctx_at(E3, order=2)
    w = random_form(E3, 1, 3).at(ctx)
    # [d, d] = 2 d^2 = 0 (odd-odd commutator is an anticommutator)
    out = graded_comm(ctx, op_d(), op_d(), w)
    assert alt_errors(out, zero_like(out))[0] < 1e-12
    # [eps_f, eps_g] = 0 for two even (degree-0) multiplications
    f = random_form(E3, 0, 4)
    g = random_form(E3, 0, 5)
    out = graded_comm(ctx, op_eps(f), op_eps(g), w)
    assert alt_errors(out, zero_like(out))[0] < 1e-13


def test_nabla_vec_vector_case_on_flat_chart():
    # for a vector field on a flat chart, nabla_X = L_X + i_{dX} reduces to
    # the covariant (= coordinate) derivative along X on functions
    ctx = ctx_at(E3, order=2)
    X = jet_field(ctx, ["x2", "0 - x1", "1"])
    f = random_form(E3, 0, 6).at(ctx)
    got = value_of(nabla_vec(ctx, X, f))
    want = value_of(lie_vec(ctx, X, f))
    assert within(got, want, atol=1e-12)


def test_fn_decompose_round_trip():
    ctx = ctx_at(E3, order=3)
    phi = random_vec_form(E3, 1, 101).at(ctx)
    psi = random_vec_form(E3, 2, 102).at(ctx)

    def D_fn(c, w):
        return lie_vec(c, phi, w) + interior(psi, w)

    D = Operator("test", 1, D_fn)
    phi2, psi2 = fn_decompose(ctx, D)
    for b in range(3):
        assert within(value_of(phi2.comps[b]), value_of(phi.comps[b]), atol=1e-9)
        assert within(value_of(psi2.comps[b]), value_of(psi.comps[b]), atol=1e-9)


def test_fn_decompose_of_two_points_is_each_points_bit_for_bit():
    p, q = sample_points(E3, 2, 23)
    phi = random_vec_form(E3, 2, 103)
    psi = random_vec_form(E3, 3, 104)
    D = Operator("test", 2, lambda c, w: lie_vec(c, phi.at(c), w) + interior(psi.at(c), w))
    both = fn_decompose(E3.batch([p, q], 2), D)
    for i, point in enumerate((p, q)):
        alone = fn_decompose(E3.context(point, 2), D)
        for got, want in zip(both, alone):
            assert np.array_equal(got.point(i).c, want.c)


def test_fn_decompose_rejects_non_derivation():
    ctx = ctx_at(E3, order=3)
    om = random_form(E3, 1, 55)
    with pytest.raises(NotADerivation):
        fn_decompose(ctx, op_eps(om))


def test_fn_decompose_refuses_non_finite_values():
    # a NaN-valued operator must not hand back a NaN phi and psi
    ctx = ctx_at(E3, order=3)
    D = Operator("nan-d", 1, lambda c, w: ext_d(c, w).scale(float("nan")))
    with pytest.raises(NonFiniteValue):
        fn_decompose(ctx, D)


def test_endomorphism_algebra():
    A = VecAltValue.from_endomorphism([[0.0, 1.0], [-1.0, 0.0]])
    B = VecAltValue.from_endomorphism([[2.0, 0.0], [0.0, 3.0]])
    AB = endo_compose(A, B)
    # (A o B) e_1 = A (2 e_1) = -2 e_2: the image of e_c is column c
    assert AB.column(0) == [0.0, -2.0]
    assert AB.column(1) == [3.0, 0.0]
    # A^2 = -Id for the standard complex structure
    A2 = endo_compose(A, A)
    assert A2.column(0) == [-1.0, 0.0]


def test_nijenhuis_vanishes_for_constant_structure():
    K = builtin("flat_kahler(1)").geometry
    ctx = ctx_at(K, order=2)
    N = nijenhuis(ctx, ctx.structure("J"))
    assert alt_errors(N, zero_like(N))[0] < 1e-14


def test_lie_metric_killing_and_not():
    S = builtin("sphere2").geometry
    ctx = ctx_at(S, order=2)
    # the rotation field d/dphi is Killing on the round sphere
    killing = VecAltValue.from_vector(
        [sexpr.eval_jet(S.parse_expr(s), ctx.coords) for s in ("0", "1")]
    )
    _, L = lie_metric(ctx, killing)
    assert np.abs(L[..., 0]).max() < 1e-12
    # d/dtheta is not Killing: L_xi g = 2 sin cos dphi^2
    not_killing = VecAltValue.from_vector(
        [sexpr.eval_jet(S.parse_expr(s), ctx.coords) for s in ("1", "0")]
    )
    import math

    _, L = lie_metric(ctx, not_killing)
    th = ctx.points[0][0]
    assert L[1, 1, 0] == pytest.approx(2 * math.sin(th) * math.cos(th), abs=1e-12)
    # the Reeb field 2 d/dpsi of sasakian_s3 is Killing for a non-diagonal
    # metric that does not depend on psi
    S3 = builtin("sasakian_s3").geometry
    ctx = ctx_at(S3, order=2)
    _, L = lie_metric(ctx, jet_field(ctx, ["0", "0", "2"]))
    assert np.abs(L[..., 0]).max() < 1e-12


@pytest.mark.parametrize("name", ["sasakian_s3", "hopf_lck", "sphere2"])
def test_lie_metric_matches_the_coordinate_formula(name):
    # (L_xi g)_ab = xi^c d_c g_ab + g_cb d_a xi^c + g_ac d_b xi^c, from the
    # partials of g and xi alone, with no Christoffel symbols; the pair is
    # symmetric in every Taylor coefficient
    G = builtin(name).geometry
    for p in sample_points(G, 3, 43):
        ctx = G.context(p, 2)
        xi = random_vec_form(G, 0, 47).at(ctx)
        sg, g = ctx.g()
        dg = _partials(G.n, sg, g)[1][..., 0, 0]  # dg[c, a, b] = d_c g_ab
        dxi = _partials(G.n, xi.space, xi.c[:, 0])[1][..., 0, 0]  # dxi[a, c] = d_a xi^c
        gv = g[..., 0, 0]
        want = (np.einsum("c,cab->ab", xi.c[:, 0, 0, 0], dg)
                + np.einsum("cb,ac->ab", gv, dxi) + np.einsum("ac,bc->ab", gv, dxi))
        _, L = lie_metric(ctx, xi)
        np.testing.assert_allclose(L[..., 0, 0], want, rtol=0, atol=1e-12)
        assert np.array_equal(L, L.swapaxes(0, 1))


def test_curvature_shuffle_matches_dnabla_squared():
    S = builtin("sphere2").geometry
    ctx = ctx_at(S, order=2)
    phi = random_vec_form(S, 0, 71).at(ctx)
    lhs = value_of(d_nabla(ctx, d_nabla(ctx, phi)))
    rhs = value_of(curvature_shuffle(ctx, phi))
    assert within(lhs, rhs, atol=1e-10)


def test_constant_coefficients_need_no_jet_order():
    # delta Omega on a flat Kaehler chart reads only constant coefficients,
    # so an order-0 context gives the order-2 value (exactly 0) instead of
    # exhausting the jet budget
    G = builtin("flat_kahler(1)").geometry
    values = []
    for order in (0, 2):
        ctx = G.context((0.5, 0.5), order)
        values.append(value_of(codiff(ctx, G.forms["Omega"].at(ctx))).coeffs)
    assert values[0] == values[1]


def test_point_dependent_coefficients_exhaust_the_jet_budget():
    H = builtin("hopf_lck").geometry
    ctx = H.context((0.5, 0.5, 0.5, 0.5), 0)
    with pytest.raises(JetBudgetExhausted):
        ext_d(ctx, H.forms["Omega"].at(ctx))
    ctx = ctx_at(E3, order=0)
    with pytest.raises(JetBudgetExhausted):
        ext_d(ctx, random_form(E3, 1, seed=3).at(ctx))


def test_value_of_strips_jets():
    ctx = ctx_at(E3, order=2)
    w = random_form(E3, 2, 12).at(ctx)
    flat = value_of(w)
    assert all(isinstance(c, float) for c in flat.coeffs.values())
    assert all(isinstance(c, Jet) for c in w.coeffs.values())
