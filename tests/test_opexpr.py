"""Prefix operator expressions: parsing, evaluation, error reporting."""

import pytest

from excal import opexpr
from excal.alt import AltValue, VecAltValue, interior, wedge
from excal.catalog import builtin
from excal.compare import alt_errors, within, zero_like
from excal.errors import ArityError, DegreeError, ExprSyntaxError, UnknownIdentifier
from excal.geometry import sample_points
from excal.operators import (
    codiff,
    ext_d,
    graded_comm,
    lie_vec,
    op_delta,
    op_eps,
    sharp_field,
    value_of,
)
from excal.verifier import random_form, random_vec_form


@pytest.fixture(scope="module")
def ctx():
    G = builtin("euclidean(3)").geometry
    p = sample_points(G, 1, 23)[0]
    return G.context(p, 3)


@pytest.fixture(scope="module")
def env(ctx):
    G = ctx.geometry
    return {
        "om": random_form(G, 1, 601),
        "beta": random_form(G, 2, 602),
        "f": random_form(G, 0, 603),
        "V": random_vec_form(G, 1, 604),
    }


def test_parse_shapes():
    root = opexpr.parse("comm(delta, eps(om), beta)")
    assert root.name == "comm" and len(root.args) == 3
    assert root.args[0].args is None
    assert root.args[1].name == "eps" and len(root.args[1].args) == 1
    bare = opexpr.parse("  om ")
    assert bare.name == "om" and bare.args is None


@pytest.mark.parametrize(
    "src,needle",
    [
        ("", "unexpected end"),
        ("d(om", "unexpected end"),
        ("d om", "trailing input"),
        ("3om", "unexpected character"),
        ("(om)", "expected a name"),
        ("d(om))", "trailing input"),
        pytest.param("d(" * 600 + "om" + ")" * 600, "nests deeper", id="deep-d"),
    ],
)
def test_parse_errors(src, needle):
    with pytest.raises(ExprSyntaxError) as ei:
        opexpr.parse(src)
    assert needle in str(ei.value)


def test_parse_error_offset():
    with pytest.raises(ExprSyntaxError) as ei:
        opexpr.parse("d(om) x")
    assert ei.value.offset == 6


def test_parse_errors_are_raised_on_every_call():
    for src in ["d(om) x", "d(om", "3om"]:
        errors = []
        for _ in range(3):
            with pytest.raises(ExprSyntaxError) as ei:
                opexpr.parse(src)
            errors.append((str(ei.value), ei.value.offset))
        assert errors == errors[:1] * 3, src


def snapshot(node):
    """A node's tree as nested tuples, its argument sequence types included."""
    if node.args is None:
        return node.name, None, node.offset
    return node.name, type(node.args), tuple(map(snapshot, node.args)), node.offset


def test_parsed_trees_are_shared_and_never_mutated(ctx, env):
    src = "comm(delta, eps(om), beta)"
    tree = opexpr.parse(src)
    before = snapshot(tree)
    assert type(tree.args) is tuple
    for _ in range(2):
        opexpr.evaluate_str(src, ctx, env)
        opexpr.evaluate(tree, ctx, env)
    assert opexpr.parse(src) is tree
    assert snapshot(tree) == before


def test_heads_match_direct_operators(ctx, env):
    om = env["om"].at(ctx)
    beta = env["beta"].at(ctx)
    V = env["V"].at(ctx)
    pairs = [
        ("d(om)", ext_d(ctx, om)),
        ("delta(beta)", codiff(ctx, beta)),
        ("eps(om, beta)", wedge(om, beta)),
        ("i(V, beta)", interior(V, beta)),
        ("lie(V, om)", lie_vec(ctx, V, om)),
    ]
    for src, want in pairs:
        got = opexpr.evaluate_str(src, ctx, env)
        assert within(value_of(got), value_of(want), atol=1e-12), src


def test_vector_valued_heads(ctx, env):
    om = env["om"].at(ctx)
    shp = opexpr.evaluate_str("sharp(om)", ctx, env)
    want = sharp_field(ctx, om)
    for b in range(3):
        assert within(value_of(shp.comps[b]), value_of(want.comps[b]), atol=1e-13)
    assert opexpr.evaluate_str("diamond(om)", ctx, env).k == 1
    assert opexpr.evaluate_str("nablaF(om)", ctx, env).k == 1


def test_commutator_matches_manual(ctx, env):
    got = opexpr.evaluate_str("comm(delta, eps(om), beta)", ctx, env)
    want = graded_comm(ctx, op_delta(), op_eps(env["om"]), env["beta"].at(ctx))
    assert within(value_of(got), value_of(want), atol=1e-12)
    acomm = opexpr.evaluate_str("acomm(delta, eps(f), beta)", ctx, env)
    want = graded_comm(
        ctx, op_delta(), op_eps(env["f"]), env["beta"].at(ctx), anti=True
    )
    assert within(value_of(acomm), value_of(want), atol=1e-12)


def test_nested_composition(ctx, env):
    got = opexpr.evaluate_str("delta(d(f))", ctx, env)
    want = codiff(ctx, ext_d(ctx, env["f"].at(ctx)))
    assert within(value_of(got), value_of(want), atol=1e-12)


def test_leaf_resolution_order(ctx, env):
    # env wins over geometry forms; structures resolve last
    S = builtin("sasakian_s3").geometry
    p = sample_points(S, 1, 31)[0]
    sctx = S.context(p, 2)
    eta = opexpr.evaluate_str("eta", sctx, {})
    assert isinstance(eta, AltValue) and eta.k == 1
    xi = opexpr.evaluate_str("xi", sctx, {})
    assert isinstance(xi, VecAltValue) and xi.k == 0
    # eta(xi) = 1
    pairing = value_of(interior(xi, eta))
    assert pairing.get(()) == pytest.approx(1.0)
    shadow = {"eta": random_form(S, 0, 5)}
    assert opexpr.evaluate_str("eta", sctx, shadow).k == 0


@pytest.mark.parametrize(
    "src,exc",
    [
        ("bogus(om)", UnknownIdentifier),
        ("nope", UnknownIdentifier),
        ("d(nope)", UnknownIdentifier),
        ("eps(om, bogus(beta))", UnknownIdentifier),
        ("d(om, beta)", ArityError),
        ("comm(delta, eps(om))", ArityError),
        ("comm(om, delta, beta)", ArityError),
        ("d(V)", DegreeError),
        ("i(om, beta)", DegreeError),
    ],
)
def test_evaluation_errors(ctx, env, src, exc):
    with pytest.raises(exc) as info:
        opexpr.evaluate_str(src, ctx, env)
    if exc is UnknownIdentifier:
        # the error names the unknown name and points at it in the source
        err = info.value
        assert err.name in ("bogus", "nope")
        assert src[err.offset :].startswith(err.name)


def test_dsquared_is_zero_via_expressions(ctx, env):
    out = opexpr.evaluate_str("d(d(om))", ctx, env)
    assert alt_errors(out, zero_like(out))[0] < 1e-12
