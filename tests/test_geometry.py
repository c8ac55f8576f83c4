"""Charts: metric jets, Christoffel symbols, frames, curvature, config IO."""

import json
import math
import re

import numpy as np
import pytest

from excal import sexpr
from excal.alt import VecAltValue, _vec, flat, interior, sharp
from excal.catalog import builtin
from excal.errors import ConfigError, JetBudgetExhausted, PointExcluded, SingularMetric
from excal.geometry import (
    CONTEXT_CACHE_SIZE,
    SAMPLE_CACHE_SIZE,
    ChartContext,
    FormField,
    dumps_config,
    emit_config,
    load_config,
    sample_points,
)
from excal.jets import MAX_ORDER, Jet, jet_partial, scalar_value
from excal.operators import nabla_coord
from excal.verifier import GEOMS_ALL, MAIN_GEOMS


def conformal_2d():
    """Metric e^{2x} (dx^2 + dy^2)."""
    return load_config(
        {
            "name": "conformal",
            "dim": 2,
            "coords": ["x", "y"],
            "metric": [["exp(2*x)", "0"], ["0", "exp(2*x)"]],
            "domain": [[-1, 1], [-1, 1]],
        }
    )


def _one(pair):
    """A one-point context's (space, array) pair with its point axis dropped:
    Taylor coefficients last."""
    space, a = pair
    assert a.shape[-1] == 1
    return space, a[..., 0]


def test_euclidean_christoffels_vanish():
    G = builtin("euclidean(3)").geometry
    space, gam = _one(G.context((0.2, -0.4, 0.7), 2).gamma())
    assert space is None and gam.shape == (3, 3, 3, 1) and not gam.any()


def test_sphere_christoffels():
    G = builtin("sphere2").geometry
    th = 1.0
    gam = _one(G.context((th, 2.0), 2).gamma())[1][..., 0]
    assert gam[0, 1, 1] == pytest.approx(-math.sin(th) * math.cos(th))
    assert gam[1, 0, 1] == pytest.approx(math.cos(th) / math.sin(th))
    assert gam[1, 1, 0] == gam[1, 0, 1]  # torsion-free
    assert gam[0, 0, 0] == pytest.approx(0.0, abs=1e-14)


def test_conformal_christoffels():
    # g = e^{2f} delta with f = x gives Gamma^k_ij = d_i f d_jk + d_j f d_ik - d_k f d_ij
    G = conformal_2d()
    gam = _one(G.context((0.3, -0.2), 2).gamma())[1][..., 0]
    assert gam[0, 0, 0] == pytest.approx(1.0)
    assert gam[0, 1, 1] == pytest.approx(-1.0)
    assert gam[1, 0, 1] == pytest.approx(1.0)
    assert gam[1, 0, 0] == pytest.approx(0.0, abs=1e-14)
    assert gam[0, 0, 1] == pytest.approx(0.0, abs=1e-14)
    assert gam[1, 1, 1] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("name", ["sphere2", "hopf_lck", "sasakian_s3"])
def test_metric_compatibility(name):
    # d_a g_ij = Gamma^m_ai g_mj + Gamma^m_aj g_im
    G = builtin(name).geometry
    p = sample_points(G, 1, 77)[0]
    ctx = G.context(p, 2)
    g, gam = _jets(*_one(ctx.g())), _one(ctx.gamma())[1][..., 0]
    n = G.n
    for a in range(n):
        e_a = tuple(1 if t == a else 0 for t in range(n))
        for i in range(n):
            for j in range(n):
                dg = jet_partial(g[i][j], e_a)
                rhs = sum(
                    gam[m, a, i] * scalar_value(g[m][j]) + gam[m, a, j] * scalar_value(g[i][m])
                    for m in range(n)
                )
                assert dg == pytest.approx(rhs, abs=1e-10)


def _values(x):
    """A nested list of jets and numbers with each entry's value as a float."""
    return [_values(e) for e in x] if isinstance(x, list) else scalar_value(x)


def test_flat_chart_values_are_numbers():
    # the constant rule: a constant metric gives plain numbers all the way
    # down, even at jet order 2
    G = builtin("euclidean(3)").geometry
    ctx = G.context((0.2, -0.4, 0.7), 2)
    values = []
    for descending in (False, True):
        values += [c for X in ctx.frame(descending) for c in X.as_vector()]
    assert len(values) == 18
    assert all(isinstance(v, float) for v in values)
    # and the dense ones are constants: space None, one Taylor column
    pairs = map(_one, (ctx.g(), ctx.g_inv(), ctx.gamma(), ctx.curvature()))
    for rank, (space, a) in zip((2, 2, 3, 4), pairs):
        assert space is None and a.shape == (3,) * rank + (1,)


def test_metric_entry_is_a_jet_where_it_depends_on_the_point():
    # sphere2 has g = diag(1, sin(theta)^2): g_11 is a row zero past its
    # value, g_22 one with derivatives
    space, g = _one(builtin("sphere2").geometry.context((1.0, 2.0), 2).g())
    assert space.order == 2
    assert g[0, 0, 0] == 1.0 and not g[0, 0, 1:].any()
    assert g[1, 1, 1:].any()


def test_sphere_sectional_curvature_is_one():
    G = builtin("sphere2").geometry
    for p in sample_points(G, 3, 5):
        R = _one(G.context(p, 2).curvature())[1][..., 0]
        g = _one(G.context(p, 2).g())[1][..., 0]
        num = sum(R[0, 1, 1, l] * g[l][0] for l in range(2))
        den = g[0][0] * g[1][1] - g[0][1] ** 2
        assert num / den == pytest.approx(1.0, abs=1e-10)


def test_flat_curvature_vanishes():
    G = builtin("flat_kahler(2)").geometry
    p = sample_points(G, 1, 3)[0]
    space, R = _one(G.context(p, 2).curvature())
    assert space is None and np.abs(R).max() < 1e-13


def test_hopf_metric_values():
    G = builtin("hopf_lck").geometry
    p = (0.5, 0.5, 0.5, 0.5)
    ctx = G.context(p, 0)
    g, g_inv = _one(ctx.g())[1][..., 0], _one(ctx.g_inv())[1][..., 0]
    r2 = sum(x * x for x in p)
    for i in range(4):
        for j in range(4):
            want = (1.0 / r2 if i == j else 0.0)
            assert g[i, j] == pytest.approx(want)
            assert g_inv[i, j] == pytest.approx(r2 if i == j else 0.0)


def test_metric_walks_each_distinct_entry_once(monkeypatch):
    # hopf_lck: four equal diagonal entries and twelve "0" entries, two trees
    G = builtin("hopf_lck").geometry
    walked = []
    eval_jet = sexpr.eval_jet
    monkeypatch.setattr(sexpr, "eval_jet", lambda e, xs: walked.append(e) or eval_jet(e, xs))
    sg, g = _one(ChartContext(G, ((0.5, 0.25, 0.75, 0.375),), 2).g())
    assert sorted(map(repr, walked)) == sorted({repr(e) for row in G.metric for e in row})
    assert len(walked) == 2
    diagonal = eval_jet(G.metric[0][0], G.context((0.5, 0.25, 0.75, 0.375), 2).coords)
    assert all(np.array_equal(g[a, a], diagonal.c) for a in range(4))
    assert not (g * (1 - np.eye(4))[..., None]).any()


@pytest.mark.parametrize("name", ["sphere2", "sasakian_s3", "hopf_lck"])
def test_orthonormal_frame(name):
    G = builtin(name).geometry
    p = sample_points(G, 1, 11)[0]
    ctx = G.context(p, 0)
    g = _one(ctx.g())[1][..., 0]
    frame = np.array([_values(v.as_vector()) for v in ctx.frame()])
    gram = frame @ g @ frame.T
    np.testing.assert_allclose(gram, np.eye(G.n), atol=1e-12)
    # descending order gives a (generally different) orthonormal frame
    frame_d = np.array([_values(v.as_vector()) for v in ctx.frame(descending=True)])
    gram_d = frame_d @ g @ frame_d.T
    np.testing.assert_allclose(gram_d, np.eye(G.n), atol=1e-12)


def _jets(space, a):
    """A dense (space, array) pair as a nested list of jets, or of numbers
    for a constant."""
    if a.ndim > 1:
        return [_jets(space, row) for row in a]
    return float(a[0]) if space is None else Jet(space, a)


def _coeffs(c, size):
    """The Taylor coefficients of a jet or a number, at a given size."""
    if isinstance(c, Jet):
        return c.c[:size]
    return np.eye(1, size)[0] * c


def _assert_identity(ctx, scale=1e-12):
    """g g^{-1} = I in every Taylor coefficient, to scale relative to
    |g| |g^{-1}|."""
    (sg, ga), (space, inv) = _one(ctx.g()), _one(ctx.g_inv())
    size = 1 if space is None else space.size
    g, gi = _jets(sg, ga), _jets(space, inv)
    n = len(g)
    tol = scale * max(1.0, np.abs(ga).max() * np.abs(inv).max())
    for i in range(n):
        for j in range(n):
            got = _coeffs(sum(g[i][m] * gi[m][j] for m in range(n)), size)
            want = np.eye(1, size)[0] * (i == j)
            np.testing.assert_allclose(got, want, rtol=0, atol=tol)


CATALOG_CHARTS = (
    [f"euclidean({n})" for n in range(1, 7)] + [f"flat_torus({n})" for n in range(1, 7)]
    + ["sphere2", "hopf_lck", "sasakian_s3"]
    + [f"flat_kahler({m})" for m in (1, 2, 3)] + [f"flat_cokahler({m})" for m in (1, 2)]
)


@pytest.mark.parametrize("name", CATALOG_CHARTS)
def test_inverse_metric_on_every_catalog_chart(name):
    G = builtin(name).geometry
    for p in sample_points(G, 3, 23):
        _assert_identity(G.context(p, 4))


@pytest.mark.parametrize("name", ["sphere2", "sasakian_s3", "hopf_lck"])
def test_gram_schmidt_frame_squares_to_the_inverse_metric(name):
    # sum_X X (x) X over an orthonormal frame is g^{-1}, whichever order
    # Gram-Schmidt runs in, Taylor coefficient by Taylor coefficient
    G = builtin(name).geometry
    for p in sample_points(G, 3, 29):
        ctx = G.context(p, 3)
        space, inv = _one(ctx.g_inv())
        for descending in (False, True):
            frame = [X.as_vector() for X in ctx.frame(descending)]
            for a in range(G.n):
                for b in range(G.n):
                    got = _coeffs(sum(X[a] * X[b] for X in frame), space.size)
                    np.testing.assert_allclose(got, inv[a, b], rtol=0, atol=1e-12 * max(1.0, np.abs(inv).max()))


# -- a dense pulled-back flat chart ------------------------------------------

# phi(x) = (x1 + x2^2/2, x2 + x1 x3/3, x3 + x1^2/4 - x2/5); row k of J is the
# gradient of phi_k
PULLBACK_J = [
    ["1", "x2", "0"],
    ["x3/3", "1", "x1/3"],
    ["x1/2", "-1/5", "1"],
]


def _pullback_flat3():
    """The flat metric pulled back through phi, g = J^T J, with the pulled
    back dx_i ^ dx_j as forms "w12", "w13" and "w23"."""
    J = PULLBACK_J
    g = [[" + ".join(f"({J[k][i]})*({J[k][j]})" for k in range(3)) for j in range(3)]
         for i in range(3)]
    forms = {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        coeffs = {f"{a + 1},{b + 1}": f"({J[i][a]})*({J[j][b]}) - ({J[i][b]})*({J[j][a]})"
                  for a, b in ((0, 1), (0, 2), (1, 2))}
        forms[f"w{i + 1}{j + 1}"] = {"degree": 2, "coeffs": coeffs}
    return load_config({"name": "pullback_flat3", "dim": 3, "coords": ["x1", "x2", "x3"],
                        "metric": g, "domain": [[-0.5, 0.5]] * 3, "forms": forms})


def test_pulled_back_flat_chart_is_flat_and_keeps_its_parallel_forms():
    # a dense metric with every entry point-dependent; the known answers are
    # exact, so index placement errors in g^{-1}, Gamma or R show
    G = _pullback_flat3()
    for p in sample_points(G, 3, 31):
        ctx = G.context(p, 4)
        space, g = _one(ctx.g())
        assert space.order == 4 and g[..., 1:].any(axis=-1).all()
        _assert_identity(ctx)
        space, R = _one(ctx.curvature())
        assert space.order == 2 and np.abs(R).max() < 1e-12
        for w in G.forms.values():
            space, N = nabla_coord(ctx, w.at(ctx))
            assert space.order == 3 and np.abs(N).max() < 1e-12


def test_sample_points_deterministic_and_in_domain():
    G = builtin("hopf_lck").geometry
    pts = sample_points(G, 25, 99)
    assert pts == sample_points(G, 25, 99)
    assert pts != sample_points(G, 25, 100)
    for p in pts:
        assert G.in_domain(p)


def test_sample_points_draws_a_list_once_and_returns_a_copy(monkeypatch):
    G = load_config({"dim": 2, "coords": ["x", "y"], "metric": [["1", "0"], ["0", "1"]],
                     "domain": [[-1, 1], [-1, 1]], "exclude": "x + y + 1"})
    walks = []
    eval_value = sexpr.eval_value
    monkeypatch.setattr(sexpr, "eval_value", lambda e, p: walks.append(p) or eval_value(e, p))
    pts = sample_points(G, 10, 7)
    drawn = len(walks)
    assert drawn >= 10
    pts.append((0.0, 0.0))
    pts[0] = (9.0, 9.0)
    again = sample_points(G, 10, 7)
    assert len(walks) == drawn  # the exclude tree is not walked again
    assert len(again) == 10 and again[0] != (9.0, 9.0)
    assert sample_points(G, 10, 8) != again and len(walks) > drawn
    # the cache is bounded: a list pushed out is drawn again, to the same points
    for seed in range(100, 100 + SAMPLE_CACHE_SIZE):
        sample_points(G, 3, seed)
    drawn = len(walks)
    assert sample_points(G, 10, 7) == again and len(walks) > drawn


def test_a_nan_exclusion_value_excludes_the_point():
    # inf - inf is NaN, which is not > 0: the point fails closed
    G = load_config({"dim": 1, "coords": ["x1"], "metric": [["1"]], "domain": [[0.5, 1]],
                     "exclude": "x1*1e200*1e200 - x1*1e200*1e200"})
    assert math.isnan(sexpr.eval_value(G.exclude, (0.7,)))
    assert not G.in_domain((0.7,))
    with pytest.raises(PointExcluded):
        G.context((0.7,), 1)


def test_point_excluded():
    G = builtin("sphere2").geometry
    with pytest.raises(PointExcluded):
        G.context((0.0, 1.0), 1)  # theta below the chart box
    with pytest.raises(PointExcluded):
        G.context((1.0,), 1)  # wrong arity


def test_context_coords_are_the_coordinate_jets():
    G = builtin("hopf_lck").geometry
    p = (0.5, 0.25, 0.75, 0.375)
    ctx = G.context(p, 3)
    for i, x in enumerate(ctx.coords):
        assert isinstance(x, Jet) and x.value == p[i] and x.order == ctx.order
        for j in range(G.n):
            assert jet_partial(x, tuple(int(t == j) for t in range(G.n))) == (i == j)
    # every jet at the point is built from them: a coordinate holds the very
    # coefficients of its jet, bit for bit
    f = FormField(0, {(): G.parse_expr("x1")})
    got = f.at(ctx).coeffs[()]
    assert got.space is ctx.coords[0].space
    assert np.array_equal(got.c.view(np.int64), ctx.coords[0].c.view(np.int64))


@pytest.mark.parametrize("order", [-1, MAX_ORDER + 1])
def test_context_order_out_of_range(order):
    with pytest.raises(JetBudgetExhausted):
        builtin("sphere2").geometry.context((1.0, 2.0), order)


def test_context_caching():
    G = builtin("euclidean(2)").geometry
    c1 = G.context((0.1, 0.2), 2)
    c2 = G.context((0.1, 0.2), 2)
    assert c1 is c2
    assert G.context((0.1, 0.2), 1) is not c1


def test_context_cache_is_bounded_lru():
    G = conformal_2d()
    pts = sample_points(G, 300, 8)
    first = G.context(pts[0], 1)
    for p in pts[1:]:
        ctx = G.context(p, 1)
        assert len(G._ctx_cache) <= CONTEXT_CACHE_SIZE
        # a context in steady use is the least likely to be dropped
        assert G.context(pts[0], 1) is first
    assert G.context(pts[-1], 1) is ctx
    assert len(G._ctx_cache) == CONTEXT_CACHE_SIZE


def test_flat_matches_numpy():
    G = builtin("sasakian_s3").geometry
    p = sample_points(G, 1, 19)[0]
    ctx = G.context(p, 1)
    gv = _one(ctx.g())[1][..., 0]
    assert gv[1][2] != 0.0  # a non-diagonal metric
    u, v = [0.3, -1.2, 0.7], [1.1, 0.4, -0.9]
    low = flat(VecAltValue.from_vector(v), ctx.g())
    np.testing.assert_allclose(low.c[:, 0, 0], gv @ np.array(v), rtol=0, atol=1e-14)
    # g(u, v) is the flat of v applied to u
    g_uv = interior(VecAltValue.from_vector(u), low).c[0, 0, 0]
    assert g_uv == pytest.approx(np.array(u) @ gv @ np.array(v), abs=1e-14)


SUITE_CHARTS = sorted(set(GEOMS_ALL) | set(MAIN_GEOMS))


@pytest.mark.parametrize("name", SUITE_CHARTS + ["pullback_flat3"])
def test_sharp_undoes_flat(name):
    # sharp(flat(X)) = X in every Taylor coefficient, for X with random
    # Taylor coefficients at order 3
    G = _pullback_flat3() if name == "pullback_flat3" else builtin(name).geometry
    rng = np.random.default_rng(37)
    for p in sample_points(G, 3, 41):
        ctx = G.context(p, 3)
        space = ctx.coords[0].space
        X = _vec(G.n, 0, space, rng.uniform(-1.0, 1.0, (G.n, 1, space.size, 1)))
        back = sharp(flat(X, ctx.g()), ctx.g_inv())
        assert back.space is space
        np.testing.assert_allclose(back.c, X.c, rtol=0, atol=1e-12)


def test_config_round_trip():
    G = builtin("sasakian_s3").geometry
    doc = emit_config(G)
    again = emit_config(load_config(doc))
    assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert json.loads(dumps_config(G)) == doc


@pytest.mark.parametrize(
    "doc",
    [
        {"version": "excal-config v2", "dim": 1, "coords": ["x"], "metric": [["1"]], "domain": [[0, 1]]},
        {"dim": 2, "coords": ["x"], "metric": [["1"]], "domain": [[0, 1]]},
        {"dim": 1, "coords": ["x"], "metric": [["1", "0"]], "domain": [[0, 1]]},
        {"dim": 1, "coords": ["x"], "domain": [[0, 1]]},
        "not an object",
    ],
)
def test_config_errors(doc):
    with pytest.raises(ConfigError):
        load_config(doc)


def _config(**fields):
    doc = {
        "dim": 2,
        "coords": ["x", "y"],
        "metric": [["1", "0"], ["0", "1"]],
        "domain": [[0, 1], [0, 1]],
    }
    doc.update(fields)
    return doc


def _flat_config(n):
    """A well-formed flat chart of dimension n, whatever n is."""
    return {
        "dim": n,
        "coords": [f"x{i}" for i in range(n)],
        "metric": [["1" if i == j else "0" for j in range(n)] for i in range(n)],
        "domain": [[0, 1]] * n,
    }


def _form_config(degree, coeffs=None):
    """A flat 1-D chart with one form w of the given degree."""
    coeffs = {"1": "x0"} if coeffs is None else coeffs
    return dict(_flat_config(1), forms={"w": {"degree": degree, "coeffs": coeffs}})


@pytest.mark.parametrize(
    "doc, field",
    [
        (_config(dim="two"), "dim"),
        (_config(domain=[[0, 1], ["a", 1]]), "domain bound"),
        (_config(domain=[[0, 1], [0]]), "domain interval"),
        (_config(structures={"J": 5}), "structure tensor 'J'"),
        (_config(forms={"w": 3}), "form 'w'"),
        (_config(forms={"w": {"degree": "a", "coeffs": {}}}), "degree of form 'w'"),
        (_config(forms={"w": {"degree": 0, "coeffs": [1]}}), "coeffs of form 'w'"),
        (_config(coords=["x", "x"]), "coordinate name 'x'"),
        (_config(coords=["x", "pi"]), "coordinate name 'pi'"),
        (_config(coords=["sin", "y"]), "coordinate name 'sin'"),
        # dim 0 failed later naming no field; a point's cost doubles with
        # each dimension, so a large dim hung
        (_flat_config(0), "dim must be in 1..6"),
        (_flat_config(7), "dim must be in 1..6"),
        # each of these loaded, truncated or coerced to a number (an
        # infinite bound sampled the point inf and passed checks there),
        # or, for an integer beyond the float range, was an OverflowError
        (dict(_flat_config(1), dim=1.9), "dim must be an integer"),
        (dict(_flat_config(1), dim=True), "dim must be an integer"),
        (dict(_flat_config(1), dim="1"), "dim must be an integer"),
        (_form_config(1.7), "degree of form 'w' must be an integer"),
        (_form_config(True), "degree of form 'w' must be an integer"),
        (_form_config("1"), "degree of form 'w' must be an integer"),
        (_form_config(-1, {}), "degree of form 'w' must be in 0..1"),
        (dict(_config(), forms={"w": {"degree": 5, "coeffs": {}}}),
         "degree of form 'w' must be in 0..2"),
        (dict(_flat_config(1), domain=[[0, True]]), "domain bound must be a finite number"),
        (dict(_flat_config(1), domain=[[0, "0.5"]]), "domain bound must be a finite number"),
        (dict(_flat_config(1), domain=[[0, math.inf]]), "domain bound must be a finite number"),
        (dict(_flat_config(1), domain=[[math.nan, 1]]), "domain bound must be a finite number"),
        (dict(_flat_config(1), domain=[[0, 10**400]]), "domain bound must be a finite number"),
        # each of these loaded: a reversed or overflowing interval was
        # refused after 10000 draws as "rejects too many samples", a
        # non-string name was a TypeError traceback where a seed is
        # derived from it, or, for a number, a silent seed salt
        (dict(_flat_config(1), domain=[[1.0, 0.0]]), "domain interval [1.0, 0.0]"),
        (dict(_flat_config(1), domain=[[-1e308, 1e308]]), "domain interval [-1e+308, 1e+308]"),
        (dict(_flat_config(1), name=["a"]), "name must be a string"),
        (dict(_flat_config(1), name={"a": 1}), "name must be a string"),
        (dict(_flat_config(1), name=None), "name must be a string"),
        (dict(_flat_config(1), name=1.5), "name must be a string"),
    ],
    ids=["dim", "bound", "interval", "structure", "form", "degree", "coeffs",
         "repeated-coord", "constant-coord", "function-coord", "dim-0", "dim-7",
         "dim-float", "dim-bool", "dim-string", "degree-float", "degree-bool",
         "degree-string", "degree-negative", "degree-above-dim", "bound-bool",
         "bound-string", "bound-inf", "bound-nan", "bound-huge", "domain-reversed",
         "domain-width-overflow", "name-list", "name-object", "name-null", "name-number"],
)
def test_config_malformed_field_names_it(doc, field):
    # each of these was a traceback, a hang, or a coordinate silently misread
    with pytest.raises(ConfigError, match=re.escape(field)):
        load_config(doc)


def test_degenerate_domain_interval_samples_its_point():
    G = load_config(dict(_flat_config(2), domain=[[0.5, 0.5], [0, 1]]))
    assert all(p[0] == 0.5 for p in sample_points(G, 5, 1))


def test_config_bad_form_key():
    base = {
        "dim": 2,
        "coords": ["x", "y"],
        "metric": [["1", "0"], ["0", "1"]],
        "domain": [[0, 1], [0, 1]],
        "forms": {"w": {"degree": 2, "coeffs": {"2,1": "1"}}},
    }
    with pytest.raises(ConfigError):
        load_config(base)
    base["forms"]["w"]["coeffs"] = {"1": "1"}  # wrong length for degree 2
    with pytest.raises(ConfigError):
        load_config(base)


@pytest.mark.parametrize(
    "structures",
    [
        {"J": [["0", "-1"], ["1", "0"], ["0", "0"]]},  # three rows on a 2-d chart
        {"phi": [["0", "-1"], ["1"]]},  # a short row
        {"xi": ["1"]},
        {"eta": ["1", "0", "0"]},
    ],
)
def test_config_structure_shape(structures):
    doc = {
        "dim": 2,
        "coords": ["x", "y"],
        "metric": [["1", "0"], ["0", "1"]],
        "domain": [[0, 1], [0, 1]],
        "structures": structures,
    }
    with pytest.raises(ConfigError, match="entries per row"):
        load_config(doc)


def test_singular_metric_rejected():
    doc = {
        "dim": 2,
        "coords": ["x", "y"],
        "metric": [["1", "1"], ["1", "1"]],
        "domain": [[0, 1], [0, 1]],
    }
    G = load_config(doc)
    with pytest.raises(SingularMetric):
        G.context((0.5, 0.5), 1).g()
    lorentz = load_config(
        {
            "dim": 2,
            "coords": ["x", "y"],
            "metric": [["-1", "0"], ["0", "1"]],
            "domain": [[0, 1], [0, 1]],
        }
    )
    with pytest.raises(SingularMetric):
        lorentz.context((0.5, 0.5), 1).g()
