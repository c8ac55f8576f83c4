"""Built-in geometry catalog: naming, caching, structural validation."""

import math
import re

import numpy as np
import pytest

from excal.alt import AltValue, VecAltValue, _alt, interior
from excal import catalog, geometry
from excal.catalog import (FAMILIES, VALIDATION_POINTS, VALIDATION_SEED, CatalogEntry,
                           builtin)
from excal.compare import within
from excal.errors import JetBudgetExhausted, UnknownEntry, ValidationFailed
from excal.geometry import sample_points
from excal.operators import endo_compose, value_of

ALL_NAMES = [
    "euclidean(1)",
    "euclidean(3)",
    "euclidean(6)",
    "flat_torus(2)",
    "sphere2",
    "flat_kahler(1)",
    "flat_kahler(2)",
    "flat_kahler(3)",
    "hopf_lck",
    "sasakian_s3",
    "flat_cokahler(1)",
    "flat_cokahler(2)",
]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_builtin_validates(name):
    entry = builtin(name)
    assert isinstance(entry, CatalogEntry)
    assert entry.geometry.name == name
    entry.validate()  # idempotent, raises ValidationFailed on breakage


def test_families_listing():
    assert len(FAMILIES) == 7
    bases = {pattern.split("(")[0] for pattern, _ in FAMILIES}
    assert bases == {
        "euclidean",
        "flat_torus",
        "sphere2",
        "flat_kahler",
        "hopf_lck",
        "sasakian_s3",
        "flat_cokahler",
    }


def test_cache_returns_same_entry():
    a = builtin("euclidean(2)")
    b = builtin("euclidean( 2 )")
    assert a is b


def test_argument_beyond_int_conversion_is_unknown():
    # int() refuses a string of more than 4300 digits with a ValueError
    with pytest.raises(UnknownEntry):
        builtin("euclidean(" + "9" * 5000 + ")")


def test_cache_keys_the_parsed_name():
    assert builtin("euclidean(02)") is builtin("euclidean(2)")


@pytest.mark.parametrize(
    "name",
    ["euclidean(0)", "euclidean(7)", "flat_kahler(4)", "flat_cokahler(0)",
     "sphere3", "sphere2(2)", "euclidean(x)", "euclidean",
     # each of these resolved to euclidean(3): a name parses exactly
     "euclidean(3", "euclidean(3))", "euclidean(+3)"],
)
def test_unknown_entries(name):
    with pytest.raises(UnknownEntry):
        builtin(name)


def test_dimensions():
    assert builtin("flat_kahler(3)").geometry.n == 6
    assert builtin("flat_cokahler(2)").geometry.n == 5
    assert builtin("hopf_lck").geometry.n == 4
    assert builtin("sasakian_s3").geometry.n == 3


def test_hopf_lee_form_values():
    # theta = -2 dlog r, i.e. theta_i = -2 x_i / r^2
    G = builtin("hopf_lck").geometry
    p = (0.5, 0.4, 0.3, 0.6)
    ctx = G.context(p, 1)
    theta = value_of(ctx.structure("theta"))
    r2 = sum(x * x for x in p)
    for i in range(4):
        assert theta.get((i,)) == pytest.approx(-2 * p[i] / r2)


def test_sasakian_structure_algebra():
    G = builtin("sasakian_s3").geometry
    p = sample_points(G, 1, 13)[0]
    ctx = G.context(p, 1)
    phi = ctx.structure("phi")
    xi = ctx.structure("xi")
    eta = ctx.structure("eta")
    # eta(xi) = 1
    assert value_of(interior(xi, eta)).get(()) == pytest.approx(1.0)
    # phi(xi) = 0: component b of phi(xi) is i_xi of phi's component b
    img = [interior(xi, c).get(()) for c in phi.comps]
    assert all(abs(getattr(c, "value", c)) < 1e-12 for c in img)
    # phi^2 = -Id + eta (x) xi
    phi2 = value_of(endo_compose(phi, phi))
    eta_v = value_of(eta)
    xi_v = [getattr(c, "value", c) for c in xi.as_vector()]
    for b in range(3):
        for c in range(3):
            want = -(1.0 if b == c else 0.0) + eta_v.get((c,)) * xi_v[b]
            assert phi2.comps[b].get((c,)) == pytest.approx(want, abs=1e-12)


def test_kahler_complex_structure_squares_to_minus_one():
    G = builtin("flat_kahler(2)").geometry
    ctx = G.context((0.1, 0.2, 0.3, 0.4), 1)
    J = ctx.structure("J")
    J2 = value_of(endo_compose(J, J))
    for b in range(4):
        for c in range(4):
            assert J2.comps[b].get((c,)) == pytest.approx(-1.0 if b == c else 0.0)


def test_validation_catches_broken_structure():
    # corrupting a structure tensor must trip the structural checks
    entry = builtin("flat_kahler(1)")
    G = entry.geometry
    saved = G.structures["J"]
    try:
        G.structures["J"] = [[G.parse_expr("1"), G.parse_expr("0")],
                             [G.parse_expr("0"), G.parse_expr("1")]]
        G._ctx_cache.clear()
        with pytest.raises(ValidationFailed):
            entry.validate()
    finally:
        G.structures["J"] = saved
        G._ctx_cache.clear()
        entry.validate()


def test_named_forms_are_exposed():
    entry = builtin("hopf_lck")
    assert "Omega" in entry.geometry.forms
    s = builtin("sasakian_s3")
    assert "Phi" in s.geometry.forms


def test_torus_domain_is_full_period():
    G = builtin("flat_torus(2)").geometry
    for lo, hi in G.domain:
        assert lo == 0.0 and hi == pytest.approx(2 * math.pi)


def test_a_validation_failure_names_its_point():
    # a value wrong at one point only is reported there
    entry = builtin("flat_kahler(1)")
    pts = sample_points(entry.geometry, VALIDATION_POINTS, VALIDATION_SEED)

    def off_at_point_5(entry, ctx):
        c = np.array([[[1.0 if p == pts[5] else 0.0 for p in ctx.points]]])
        return [(_alt(2, 0, None, c), AltValue.zero(2, 0))]

    broken = CatalogEntry("broken", entry.geometry, [("off", off_at_point_5)])
    with pytest.raises(ValidationFailed, match=re.escape(f"at {pts[5]}")):
        broken.validate()


def test_validation_builds_one_context_of_its_points(monkeypatch):
    built = []
    make = geometry.ChartContext

    def counted(G, points, order):
        built.append((G.name, len(points), order))
        return make(G, points, order)

    monkeypatch.setattr(geometry, "ChartContext", counted)
    for name in ALL_NAMES:
        entry = builtin(name)
        entry.geometry._ctx_cache.clear()
        built.clear()
        entry.validate()
        assert built == [(entry.name, VALIDATION_POINTS, catalog.VALIDATION_ORDER)]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_each_validation_value_is_its_points_own(name):
    # every validation body gives, at each point of the one context, the
    # value rows it gives on that point's context alone
    entry = builtin(name)
    G, order = entry.geometry, catalog.VALIDATION_ORDER
    pts = sample_points(G, VALIDATION_POINTS, VALIDATION_SEED)
    batch = G.batch(pts, order)
    for _, fn in entry.validations:
        pairs = fn(entry, batch)
        for i in (0, 7, VALIDATION_POINTS - 1):
            alone = fn(entry, G.context(pts[i], order))
            for both, one in zip(pairs, alone):
                for a, b in zip(both, one):
                    assert np.array_equal(a.point(i).c[..., 0, :], b.c[..., 0, :])


def test_validation_needs_its_order(monkeypatch):
    # the validation bodies read first derivatives: order 1 is enough for
    # every entry, and a point-dependent entry cannot validate at order 0
    assert catalog.VALIDATION_ORDER == 1
    entry = builtin("hopf_lck")
    monkeypatch.setattr(catalog, "VALIDATION_ORDER", 0)
    with pytest.raises(JetBudgetExhausted):
        entry.validate()
