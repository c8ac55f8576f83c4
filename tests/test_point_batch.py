"""A check's points on one batch axis: the batched values are each point's
own, bit for bit, and a point that fails inside a batch fails alone."""

import sys
from pathlib import Path

import numpy as np
import pytest

from excal import jets
from excal.alt import AltValue, interior, wedge
from excal.catalog import builtin
from excal.errors import ShapeMismatch
from excal.geometry import BatchContext, ChartContext, FormField, sample_points
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
    """Every operator the comparison covers, at ctx."""
    w = random_form(G, 1, 5).at(ctx)
    b = random_form(G, 2, 6).at(ctx)
    phi = random_vec_form(G, 1, 7).at(ctx)
    X = random_vec_form(G, 0, 8).at(ctx)
    return {
        "field": w,
        "walked field": _walked_field(G).at(ctx),
        "codiff": codiff(ctx, b),
        "lie_vec": lie_vec(ctx, phi, b),
        "omega_diamond": omega_diamond(ctx, b),
        "wedge": wedge(w, b),
        "interior": interior(phi, b),
        "curvature_shuffle": curvature_shuffle(ctx, X),
    }


@pytest.mark.parametrize("name", list(SUITE_ENTRIES) + ["pullback_flat3"])
def test_a_batch_gives_each_point_its_own_bits(name):
    G = _chart(name)
    points = sample_points(G, POINTS, 53)
    batch = G.batch(points, 2)
    assert isinstance(batch, BatchContext) and batch.points == tuple(points)
    batched = _values(G, batch)
    for i, p in enumerate(points):
        ctx = G.batch([p], 2)
        assert isinstance(ctx, ChartContext)
        for label, alone in _values(G, ctx).items():
            got = batched[label].point(i)
            assert got.space is alone.space, (label, i)
            assert got.c.shape == alone.c.shape, (label, i)
            assert np.array_equal(got.c, alone.c), (label, i)
            assert np.array_equal(np.signbit(got.c), np.signbit(alone.c)), (label, i)


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
    assert run_check(check)["points"] == [
        {"p": [0.5, 0.25], "abs_err": 2.0, "rel_err": 1.0},
        {"p": [-0.4, 0.2], "abs_err": 1e308, "rel_err": 1e308,
         "error": "DomainError: log undefined at value -0.4"},
        {"p": [0.8, -0.6], "abs_err": 1.25, "rel_err": 1.0},
    ]
