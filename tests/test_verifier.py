"""Identity verifier: random fields, check execution, reports, suites."""

import math

import pytest

from excal.alt import AltValue
from excal.catalog import builtin
from excal.errors import ConfigError, DegreeError, UnknownSuite
from excal.geometry import load_config, emit_config
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
        for name in ("fn-contraction", "omegaiphi"):
            assert {c.jet_order for c in by_suite[name]} == {0}
        orders = [c.jet_order for c in by_suite["lck-constants"]]
        assert orders == [0, 0, 2, 2]
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
