"""Charts: metric jets, Christoffel symbols, frames, curvature, config IO."""

import json
import math
import re

import numpy as np
import pytest

from excal.catalog import builtin
from excal.errors import ConfigError, PointExcluded, SingularMetric
from excal.geometry import (
    CONTEXT_CACHE_SIZE,
    christoffel,
    curvature,
    dumps_config,
    emit_config,
    load_config,
    metric_at,
    metric_inner,
    metric_lower,
    orthonormal_frame,
    sample_points,
)
from excal.jets import jet_partial


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


def test_euclidean_christoffels_vanish():
    G = builtin("euclidean(3)").geometry
    gam = christoffel(G, (0.2, -0.4, 0.7), 1)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                assert gam[k][i][j].value == pytest.approx(0.0, abs=1e-14)


def test_sphere_christoffels():
    G = builtin("sphere2").geometry
    th = 1.0
    gam = christoffel(G, (th, 2.0), 1)
    assert gam[0][1][1].value == pytest.approx(-math.sin(th) * math.cos(th))
    assert gam[1][0][1].value == pytest.approx(math.cos(th) / math.sin(th))
    assert gam[1][1][0].value == gam[1][0][1].value  # torsion-free
    assert gam[0][0][0].value == pytest.approx(0.0, abs=1e-14)


def test_conformal_christoffels():
    # g = e^{2f} delta with f = x gives Gamma^k_ij = d_i f d_jk + d_j f d_ik - d_k f d_ij
    G = conformal_2d()
    gam = christoffel(G, (0.3, -0.2), 1)
    assert gam[0][0][0].value == pytest.approx(1.0)
    assert gam[0][1][1].value == pytest.approx(-1.0)
    assert gam[1][0][1].value == pytest.approx(1.0)
    assert gam[1][0][0].value == pytest.approx(0.0, abs=1e-14)
    assert gam[0][0][1].value == pytest.approx(0.0, abs=1e-14)
    assert gam[1][1][1].value == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("name", ["sphere2", "hopf_lck", "sasakian_s3"])
def test_metric_compatibility(name):
    # d_a g_ij = Gamma^m_ai g_mj + Gamma^m_aj g_im
    G = builtin(name).geometry
    p = sample_points(G, 1, 77)[0]
    ctx = G.context(p, 2)
    g, gam = ctx.g(), ctx.gamma()
    n = G.n
    for a in range(n):
        e_a = tuple(1 if t == a else 0 for t in range(n))
        for i in range(n):
            for j in range(n):
                dg = jet_partial(g[i][j], e_a)
                rhs = sum(
                    gam[m][a][i].value * g[m][j].value
                    + gam[m][a][j].value * g[i][m].value
                    for m in range(n)
                )
                assert dg == pytest.approx(rhs, abs=1e-10)


def test_sphere_sectional_curvature_is_one():
    G = builtin("sphere2").geometry
    for p in sample_points(G, 3, 5):
        R = curvature(G, p)
        g = G.context(p, 2).g_value()
        num = sum(R[0][1][1][l] * g[l][0] for l in range(2))
        den = g[0][0] * g[1][1] - g[0][1] ** 2
        assert num / den == pytest.approx(1.0, abs=1e-10)


def test_flat_curvature_vanishes():
    G = builtin("flat_kahler(2)").geometry
    p = sample_points(G, 1, 3)[0]
    R = curvature(G, p)
    flat = np.array(R)
    assert np.abs(flat).max() < 1e-13


def test_hopf_metric_values():
    G = builtin("hopf_lck").geometry
    p = (0.5, 0.5, 0.5, 0.5)
    g, g_inv = metric_at(G, p, 0)
    r2 = sum(x * x for x in p)
    for i in range(4):
        for j in range(4):
            want = (1.0 / r2 if i == j else 0.0)
            assert g[i][j].value == pytest.approx(want)
            assert g_inv[i][j].value == pytest.approx(r2 if i == j else 0.0)


@pytest.mark.parametrize("name", ["sphere2", "sasakian_s3", "hopf_lck"])
def test_orthonormal_frame(name):
    G = builtin(name).geometry
    p = sample_points(G, 1, 11)[0]
    g = G.context(p, 0).g_value()
    frame = np.array(orthonormal_frame(G, p))
    gram = frame @ g @ frame.T
    np.testing.assert_allclose(gram, np.eye(G.n), atol=1e-12)
    # descending order gives a (generally different) orthonormal frame
    frame_d = np.array(orthonormal_frame(G, p, descending=True))
    gram_d = frame_d @ g @ frame_d.T
    np.testing.assert_allclose(gram_d, np.eye(G.n), atol=1e-12)


def test_sample_points_deterministic_and_in_domain():
    G = builtin("hopf_lck").geometry
    pts = sample_points(G, 25, 99)
    assert pts == sample_points(G, 25, 99)
    assert pts != sample_points(G, 25, 100)
    for p in pts:
        assert G.in_domain(p)


def test_point_excluded():
    G = builtin("sphere2").geometry
    with pytest.raises(PointExcluded):
        G.context((0.0, 1.0), 1)  # theta below the chart box
    with pytest.raises(PointExcluded):
        G.context((1.0,), 1)  # wrong arity


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


def test_metric_helpers_match_numpy():
    G = builtin("sasakian_s3").geometry
    p = sample_points(G, 1, 19)[0]
    g = G.context(p, 1).g()
    gv = G.context(p, 1).g_value()
    assert gv[1][2] != 0.0  # a non-diagonal metric
    u, v = [0.3, -1.2, 0.7], [1.1, 0.4, -0.9]
    assert metric_inner(g, u, v).value == pytest.approx(np.array(u) @ gv @ np.array(v), abs=1e-14)
    low = [c.value for c in metric_lower(g, v)]
    np.testing.assert_allclose(low, gv @ np.array(v), rtol=0, atol=1e-14)


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
    ],
    ids=["dim", "bound", "interval", "structure", "form", "degree", "coeffs",
         "repeated-coord", "constant-coord", "function-coord"],
)
def test_config_malformed_field_names_it(doc, field):
    # each of these was a traceback, or a coordinate silently misread
    with pytest.raises(ConfigError, match=re.escape(field)):
        load_config(doc)


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
