"""A check's points on one batch axis: the batched values are each point's
own, bit for bit, and a point that fails inside a batch fails alone."""

import gc
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from excal import jets, sexpr
from excal.alt import AltValue, interior, wedge
from excal.catalog import builtin
from excal.errors import ShapeMismatch
from excal.geometry import FormField, load_config, sample_points
from excal.operators import codiff, curvature_shuffle, lie_vec, omega_diamond
from excal.verifier import IdentityCheck, random_form, random_vec_form, run_check

from test_geometry import _pullback_flat3

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from unit import SUITE_ENTRIES  # noqa: E402

POINTS = 7


def _chart(name):
    return _pullback_flat3() if name == "pullback_flat3" else builtin(name).geometry


def _walked_field(G):
    """A 1-form whose coefficients are no quadratics: it is walked per point."""
    x = G.coord_names
    return FormField(1, {(a,): G.parse_expr(f"sin({x[a]}) * {x[0]} + 0.5") for a in range(G.n)})


def _values(G, ctx):
    """Every value the comparison covers at ctx, as (space, array) pairs: the
    operators, the metric and what the context builds from it, the frame and
    the structure tensors."""
    w = random_form(G, 1, 5).at(ctx)
    b = random_form(G, 2, 6).at(ctx)
    phi = random_vec_form(G, 1, 7).at(ctx)
    X = random_vec_form(G, 0, 8).at(ctx)
    values = {
        "field": w,
        "walked field": _walked_field(G).at(ctx),
        "codiff": codiff(ctx, b),
        "lie_vec": lie_vec(ctx, phi, b),
        "omega_diamond": omega_diamond(ctx, b),
        "wedge": wedge(w, b),
        "interior": interior(phi, b),
        "curvature_shuffle": curvature_shuffle(ctx, X),
    }
    pairs = {label: (v.space, v.c) for label, v in values.items()}
    for name in ("g", "g_inv", "gamma", "curvature"):
        pairs[name] = getattr(ctx, name)()
    for a, v in enumerate(ctx.frame(descending=True)):
        pairs[f"frame[{a}]"] = (v.space, v.c)
    for name in G.structures:
        v = ctx.structure(name)
        pairs[f"structure {name}"] = (v.space, v.c)
    return pairs


@pytest.mark.parametrize("name", list(SUITE_ENTRIES) + ["pullback_flat3"])
def test_a_batch_gives_each_point_its_own_bits(name):
    G = _chart(name)
    points = sample_points(G, POINTS, 53)
    batch = G.batch(points, 2)
    assert batch.points == tuple(points)
    batched = _values(G, batch)
    for i, p in enumerate(points):
        ctx = G.batch([p], 2)
        assert ctx is G.context(p, 2) and ctx.points == (p,)
        alone = _values(G, ctx)
        assert alone.keys() == batched.keys()
        for label, (space, c) in alone.items():
            got_space, got = batched[label]
            got = got[..., i:i + 1] if got.shape[-1] > 1 else got
            assert got_space is space, (label, i)
            assert got.shape == c.shape, (label, i)
            assert np.array_equal(got, c), (label, i)
            assert np.array_equal(np.signbit(got), np.signbit(c)), (label, i)


def test_one_context_walks_each_tree_once_for_all_its_points(monkeypatch):
    G = builtin("sasakian_s3").geometry
    points = sample_points(G, POINTS, 67)
    walked = []
    eval_jet = sexpr.eval_jet
    monkeypatch.setattr(sexpr, "eval_jet", lambda e, xs: walked.append(e) or eval_jet(e, xs))
    ctx = G.batch(points, 2)
    ctx.g()
    assert len(walked) == len(G._metric_trees)
    walked.clear()
    ctx.structure("phi")
    assert len(walked) == G.n * G.n
    walked.clear()
    _walked_field(G).at(ctx)
    assert len(walked) == G.n
    assert all(x.c.shape[-1] == POINTS for x in ctx.coords)


def test_a_field_and_a_context_keep_neither_the_other_nor_its_value_alive():
    G = builtin("hopf_lck").geometry
    ctx = G.batch(sample_points(G, POINTS, 71), 2)
    fields = [random_form(G, 2, 9), _walked_field(G)]
    for f in fields:
        assert f.at(ctx) is f.at(ctx)
    values = [weakref.ref(f.at(ctx).c) for f in fields]
    del fields, f
    gc.collect()
    assert [v() for v in values] == [None, None]  # the context kept no value
    field = random_form(G, 1, 10)
    value = weakref.ref(field.at(ctx).c)
    context = weakref.ref(ctx)
    G._ctx_cache.clear()
    del ctx
    gc.collect()
    assert context() is None and value() is None  # nor did the field


def test_the_kernel_splits_the_point_axis_without_moving_a_bit(monkeypatch):
    # a batch whose temporaries pass the cap is evaluated in point chunks
    G = builtin("hopf_lck").geometry
    points = sample_points(G, POINTS, 59)

    def value():
        ctx = G.batch(points, 2)
        return codiff(ctx, random_form(G, 2, 3).at(ctx))

    want = value()
    monkeypatch.setattr(jets, "KERNEL_CHUNK", 64)  # one point per pass
    got = value()
    assert np.array_equal(got.c, want.c)
    assert np.array_equal(np.signbit(got.c), np.signbit(want.c))


def test_a_value_of_several_points_is_read_one_point_at_a_time():
    G = builtin("sphere2").geometry
    ctx = G.batch(sample_points(G, 3, 61), 1)
    w = random_form(G, 1, 2).at(ctx)
    assert w.c.shape[-1] == 3
    with pytest.raises(ShapeMismatch):
        w.coeffs
    assert set(w.point(2).coeffs) == {(0,), (1,)}
    # a value that is the same everywhere has one point, read at each
    one = AltValue(2, 0, {(): 2.5})
    assert one.c.shape[-1] == 1 and one.point(2).get(()) == 2.5


def test_one_failing_point_fails_alone():
    # log(x1) is undefined at the second point: the batch raises, each point
    # is evaluated alone, and the error is recorded there only
    G = builtin("euclidean(2)").geometry
    f = FormField(0, {(): G.parse_expr("log(x1)")})
    check = IdentityCheck(
        id="log-domain", geometry=G, lhs="d(f)", rhs=lambda ctx: AltValue.zero(2, 1),
        inputs={"f": f}, points=[(0.5, 0.25), (-0.4, 0.2), (0.8, -0.6)],
    )
    # d(log x1) = dx1 / x1 at the other two, as when each point ran alone
    def worst(lhs):
        return {"slot": None, "component": None, "key": [0], "lhs": lhs, "rhs": 0.0}

    assert run_check(check)["points"] == [
        {"p": [0.5, 0.25], "abs_err": 2.0, "rel_err": 1.0, "worst": worst(2.0)},
        {"p": [-0.4, 0.2], "abs_err": 1e308, "rel_err": 1e308,
         "error": "DomainError: log undefined at value -0.4"},
        {"p": [0.8, -0.6], "abs_err": 1.25, "rel_err": 1.0, "worst": worst(1.25)},
    ]


def test_a_metric_that_fails_at_one_point_fails_there_alone():
    # g = diag(x1, 1) is not positive-definite where x1 < 0: the batch
    # refuses, each point is evaluated alone, and only that point records it
    G = load_config({"name": "half", "dim": 2, "coords": ["x1", "x2"],
                     "metric": [["x1", "0"], ["0", "1"]], "domain": [[-1, 1], [-1, 1]]})
    w = FormField(1, {(0,): G.parse_expr("x1 * x2"), (1,): G.parse_expr("x2 + 0.5")})
    points = [(0.5, 0.25), (-0.4, 0.2), (0.8, -0.6)]

    def check(pts):
        return IdentityCheck(id="half-plane", geometry=G, lhs="delta(w)",
                             rhs=lambda ctx: AltValue.zero(2, 0), inputs={"w": w}, points=pts)

    records = run_check(check(points))["points"]
    assert records[1] == {
        "p": [-0.4, 0.2], "abs_err": 1e308, "rel_err": 1e308,
        "error": "SingularMetric: metric not positive-definite at (-0.4, 0.2) (eigmin=-0.4)",
    }
    for i in (0, 2):
        assert records[i] == run_check(check([points[i]]))["points"][0]
        assert "error" not in records[i] and records[i]["abs_err"] > 0


def test_a_point_whose_product_overflows_walks_alone_in_its_batch():
    # (1e300*x)*y overflows at the second point only: that point takes the
    # walker's values and the other two keep the table product's, as alone
    G = load_config({"name": "wide-ish", "dim": 2, "coords": ["x", "y"],
                     "metric": [["1", "0"], ["0", "1"]], "domain": [[0.5, 2e200], [0.5, 2e200]]})
    field = FormField(0, {(): G.parse_expr("1.0*x + 1e300*x*y")})
    assert field._poly_table(G.n)
    points = [(0.75, 0.5), (1.5e200, 1.2e200), (1.0, 2.0)]
    batch = field.at(G.batch(points, 2))
    assert np.isfinite(batch.c[..., [0, 2]]).all() and not np.isfinite(batch.c[..., 1]).all()
    for i, p in enumerate(points):
        alone = field.at(G.context(p, 2))
        got = batch.c[..., i:i + 1]
        assert np.array_equal(got, alone.c, equal_nan=True), i
        assert np.array_equal(np.signbit(got), np.signbit(alone.c)), i
