"""Identity verifier: random fields, check execution, reports, suites."""

import dataclasses
import math

import pytest

from excal.alt import AltValue, VecAltValue, _alt, interior, wedge
from excal.catalog import builtin
from excal.compare import alt_errors, worst
from excal.cli import main
from excal.errors import (ConfigError, DegreeError, JetBudgetExhausted, ShapeMismatch,
                          UnknownSuite)
from excal.geometry import load_config, emit_config, sample_points
from excal.operators import Operator, fn_decompose, lie_vec
from excal.verifier import (
    DEFAULT_POINTS,
    REPORT_VERSION,
    SUITES,
    IdentityCheck,
    all_pass,
    build_checks,
    inline_checks,
    random_form,
    random_vec_form,
    _resolve_pair,
    _sides,
    run_check,
    suite,
)

E2 = builtin("euclidean(2)").geometry
E3 = builtin("euclidean(3)").geometry


def _coeff_values(field, p=(0.1, 0.2, 0.3)):
    c = E3.context(p, 0)
    return sorted((k, v.value) for k, v in field.at(c).coeffs.items())


class TestRandomForm:
    def test_deterministic(self):
        a = random_form(E3, 2, 7)
        b = random_form(E3, 2, 7)
        assert _coeff_values(a) == _coeff_values(b)

    def test_seed_sensitivity(self):
        a = random_form(E3, 2, 2)
        b = random_form(E3, 2, 3)
        assert _coeff_values(a) != _coeff_values(b)

    def test_degree_range(self):
        with pytest.raises(DegreeError):
            random_form(E3, 4, 1)
        with pytest.raises(DegreeError):
            random_form(E3, -1, 1)

    def test_vec_form_components_differ(self):
        v = random_vec_form(E3, 1, 9)
        assert len(v.comps) == 3
        vals = [_coeff_values(c) for c in v.comps]
        assert vals[0] != vals[1]


def _zero_rhs(k):
    def fn(ctx):
        return AltValue.zero(ctx.geometry.n, k)

    return fn


def make_check(**kw):
    base = dict(
        id="test/dsquared",
        geometry="euclidean(2)",
        lhs="d(d(om))",
        rhs=_zero_rhs(3),
        inputs={"om": random_form(E2, 1, 42)},
        n_points=4,
        seed=11,
        jet_order=2,
    )
    base.update(kw)
    return IdentityCheck(**base)


class TestRunCheck:
    def test_passing_check(self):
        report = run_check(make_check())
        assert report["pass"] is True
        assert report["max_abs_err"] < 1e-12
        assert len(report["points"]) == 4

    def test_report_schema(self):
        report = run_check(make_check())
        assert report["version"] == REPORT_VERSION
        for key in (
            "check",
            "pass",
            "expected_fail",
            "max_abs_err",
            "max_rel_err",
            "points",
            "seeds",
            "jet_order",
            "tolerance",
            "wall_time_s",
        ):
            assert key in report
        assert report["seeds"]["run"] == 11
        assert report["tolerance"] == {"atol": 1e-9, "rtol": 1e-8}
        for rec in report["points"]:
            assert set(rec) >= {"p", "abs_err", "rel_err"}

    def test_determinism_modulo_wall_time(self):
        a = run_check(make_check())
        b = run_check(make_check())
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b

    def test_failing_check(self):
        report = run_check(make_check(id="test/fails", lhs="om", rhs=_zero_rhs(1)))
        assert report["pass"] is False
        assert report["max_abs_err"] > 1e-3
        # each failing point says where its sides differ most
        for rec in report["points"]:
            w = rec["worst"]
            assert (w["slot"], w["component"], w["rhs"]) == (None, None, 0.0)
            assert tuple(w["key"]) in ((0,), (1,))
            assert abs(w["lhs"]) == rec["abs_err"]

    def test_passing_points_record_no_worst(self):
        report = run_check(make_check())
        assert all(set(rec) == {"p", "abs_err", "rel_err"} for rec in report["points"])

    def test_nan_tolerance_fails_closed(self):
        # err > nan is false for every err, so the bound must not pass a residual
        report = run_check(
            make_check(id="test/fails", lhs="om", rhs=_zero_rhs(1), atol=float("nan"))
        )
        assert report["pass"] is False

    def test_expected_fail_inverts(self):
        report = run_check(
            make_check(id="test/xfail", lhs="om", rhs=_zero_rhs(1), expected_fail=True)
        )
        assert report["pass"] is True
        assert report["expected_fail"] is True

    def test_expected_fail_requires_large_residual(self):
        # an identity that holds cannot satisfy an expected-fail check
        report = run_check(make_check(expected_fail=True))
        assert report["pass"] is False

    def test_point_errors_recorded_not_raised(self):
        def boom(ctx):
            raise RuntimeError("synthetic failure")

        report = run_check(make_check(id="test/error", lhs=boom))
        assert report["pass"] is False
        assert all("error" in rec for rec in report["points"])
        assert report["max_abs_err"] == 1e308

    @pytest.mark.parametrize("lhs, rhs", [(math.nan, 1.0), (math.inf, math.inf)])
    def test_non_finite_values_fail_the_point(self, lhs, rhs):
        # both used to pass: max(0.0, nan) is 0.0, and inf - inf is nan
        def side(value):
            return lambda ctx: AltValue(ctx.geometry.n, 0, {(): value})

        report = run_check(make_check(id="test/nonfinite", lhs=side(lhs), rhs=side(rhs)))
        assert report["pass"] is False
        assert report["max_abs_err"] == 1e308
        for rec in report["points"]:
            assert rec["error"].startswith("NonFiniteValue: ")
            assert "basis key ()" in rec["error"]
            assert math.isfinite(rec["abs_err"]) and math.isfinite(rec["rel_err"])

    def test_explicit_points(self):
        report = run_check(make_check(points=[(0.1, 0.2)]))
        assert len(report["points"]) == 1
        assert report["points"][0]["p"] == [0.1, 0.2]
        with pytest.raises(ConfigError):
            run_check(make_check(points=[]))

    def test_default_point_count(self):
        report = run_check(make_check(n_points=DEFAULT_POINTS))
        assert len(report["points"]) == DEFAULT_POINTS


class TestSuites:
    def test_single_suite_passes(self):
        reports = suite("dsquared", n_points=5)
        assert reports and all_pass(reports)
        assert all(r["check"].startswith("dsquared/") for r in reports)

    def test_multiple_suites(self):
        reports = suite(["dsquared", "deltasquared"], n_points=3)
        prefixes = {r["check"].split("/")[0] for r in reports}
        assert prefixes == {"dsquared", "deltasquared"}

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            suite("not-a-suite")
        with pytest.raises(UnknownSuite):
            suite(["dsquared", "bogus"])

    def test_seed_changes_points(self):
        a = suite("dsquared", seed=1, n_points=2)
        b = suite("dsquared", seed=2, n_points=2)
        assert [r["points"] for r in a] != [r["points"] for r in b]

    def test_built_suites_keep_their_shape(self):
        # builds all suites without running a check
        checks = list(build_checks(list(SUITES)))
        ids = [c.id for c in checks]
        assert len(ids) == len(set(ids)) == 229
        by_suite = {}
        for c in checks:
            by_suite.setdefault(c.id.split("/")[0], []).append(c)
        assert list(by_suite) == list(SUITES)
        assert [c.id for c in checks if c.expected_fail] == [
            "killing-negative/sphere2",
            "parallel-negative/euclidean(3)",
        ]
        for c in by_suite["fn-decompose-roundtrip"]:
            assert (c.n_points, c.rtol) == (2, 0.0)
        # each family runs at the lowest jet order its sides are defined at
        second_order = {"dsquared", "deltasquared", "curvature-dnabla2",
                        "fn-decompose-roundtrip"}
        for name, family in by_suite.items():
            orders = [c.jet_order for c in family]
            if name in ("fn-contraction", "omegaiphi"):
                assert set(orders) == {0}, name
            elif name == "lck-constants":
                assert orders == [0, 0, 1, 1]
            else:
                assert set(orders) == {2 if name in second_order else 1}, name
        assert [sum(c.jet_order == k for c in checks) for k in range(3)] == [38, 155, 36]
        assert all(c.inputs == {} for c in checks)

    def test_inline_checks_on_config_geometry(self):
        # a geometry loaded from an emitted config runs the structural suite
        G = load_config(emit_config(builtin("sphere2").geometry))
        reports = inline_checks(G, n_points=3)
        assert reports and all_pass(reports)

    def test_all_pass_helper(self):
        good = run_check(make_check())
        bad = run_check(make_check(id="t", lhs="om", rhs=_zero_rhs(1)))
        assert all_pass([good]) and not all_pass([good, bad])


def test_fn_decompose_checks_evaluate_their_points_as_one_batch(capsys):
    builtin("euclidean(3)")  # validated before the cache is emptied
    E3._ctx_cache.clear()
    assert main(["check", "--builtin", "fn-decompose-roundtrip", "--seed", "42"]) == 0
    assert E3._ctx_cache and {len(points) for points, _ in E3._ctx_cache} == {2}


def test_a_point_that_fails_the_leibniz_property_is_recorded_alone():
    # D = L_phi + i_psi + eps_theta, theta = (x1 - c)^2 dx1: at the point
    # with x1 = c, theta and its first derivatives vanish and D decomposes;
    # at the other it is no derivation
    p0, p1 = (0.25, -0.5, 0.125), (0.75, 0.5, -0.25)
    ph, ps = random_vec_form(E3, 1, 5), random_vec_form(E3, 2, 6)

    def fn(ctx, w):
        x = ctx.coords[0] - p0[0]
        theta = AltValue(3, 1, {(0,): x * x})
        return lie_vec(ctx, ph.at(ctx), w) + interior(ps.at(ctx), w) + wedge(theta, w)

    check = IdentityCheck(
        id="leibniz-at-one-point", geometry="euclidean(3)",
        lhs=lambda ctx: list(fn_decompose(ctx, Operator("D", 1, fn))),
        rhs=lambda ctx: [ph.at(ctx), ps.at(ctx)],
        points=[p0, p1], jet_order=2,
    )
    report = run_check(check)
    first, second = report["points"]
    assert "error" not in first and first["abs_err"] < 1e-12
    assert second["error"].startswith("NotADerivation: operator 'D' fails the Leibniz property")
    assert not report["pass"]


def test_every_built_in_order_is_minimal_and_enough():
    # one point per check: its sides are defined at its jet order and not
    # one order below
    for c in build_checks():
        if c.jet_order == 0:
            continue
        G, _ = _resolve_pair(c.geometry)
        p = sample_points(G, 1, 7)
        _sides(c, G, p, dict(c.inputs))
        with pytest.raises(JetBudgetExhausted):
            _sides(dataclasses.replace(c, jet_order=c.jet_order - 1), G, p, dict(c.inputs))


def test_compared_sides_of_unequal_slots_are_a_shape_mismatch():
    a = random_form(E2, 1, 42).at(E2.context((0.1, 0.2), 1))
    b = random_form(E2, 1, 43).at(E2.context((0.1, 0.2), 1))
    with pytest.raises(ShapeMismatch, match="at the top level: lhs a list of 2, rhs a list of 1"):
        alt_errors([a, b], [a])
    with pytest.raises(ShapeMismatch, match="at slot 1: lhs a list of 2, rhs a value"):
        alt_errors([a, [a, b]], [a, b])
    with pytest.raises(ShapeMismatch, match="at the top level: lhs a value, rhs a list of 1"):
        worst(a, [a])


def test_comparison_reads_the_value_row_only():
    # values equal at the point and different past it compare equal, which
    # is why a check needs no order beyond the one its sides are defined at
    a = random_form(E2, 1, 42).at(E2.context((0.1, 0.2), 2))
    b = _alt(a.n, a.k, a.space, a.c.copy())
    b.c[:, 1:, :] += 1.0
    assert alt_errors(a, b)[0] == 0.0
    w = worst(a, b)
    assert w["lhs"] == w["rhs"]


@pytest.mark.parametrize("cid", ["main-lie/hopf_lck/p1", "main-covariant/sasakian_s3/p1"])
def test_a_higher_order_gives_the_same_verdict(cid):
    family = cid.split("/")[0]
    (c,) = [c for c in build_checks(family, seed=42) if c.id == cid]
    low = run_check(c)
    high = run_check(dataclasses.replace(c, jet_order=2))
    assert (low["jet_order"], high["jet_order"]) == (1, 2)
    assert low["pass"] is high["pass"] is True
    assert abs(low["max_abs_err"] - high["max_abs_err"]) <= 1e-12


def test_worst_names_the_slot_component_and_key():
    def vec(*comps):
        return VecAltValue(3, 1, [AltValue(3, 1, c) for c in comps])

    lhs = [AltValue(3, 1, {(0,): 1.0}), VecAltValue.identity(3)]
    rhs = [AltValue(3, 1, {(0,): 1.25}),
           vec({(0,): 1.0}, {(1,): 1.0}, {(1,): -0.5, (2,): 1.0})]
    assert worst(lhs, rhs) == {"slot": 1, "component": 2, "key": [1], "lhs": 0.0, "rhs": -0.5}
    assert worst(lhs[0], rhs[0]) == {"slot": None, "component": None, "key": [0],
                                     "lhs": 1.0, "rhs": 1.25}
    assert worst(AltValue.zero(3, 4), AltValue.zero(3, 4)) is None
