"""Command-line interface: subcommands, report formats, exit codes."""

import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import excal
from excal.cli import main
from excal.geometry import emit_config, load_config

EVAL_CONFIG = {
    "version": "excal-config v1",
    "name": "quadratic",
    "dim": 2,
    "coords": ["x", "y"],
    "metric": [["1", "0"], ["0", "1"]],
    "domain": [[-3, 3], [-3, 3]],
    "forms": {"f": {"degree": 0, "coeffs": {"": "x^2*y"}}},
}


@pytest.fixture
def eval_config(tmp_path):
    path = tmp_path / "quadratic.json"
    path.write_text(json.dumps(EVAL_CONFIG))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "--list")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 7
    assert any("sphere2" in l for l in lines)


# The catalog entries the built-in suites run on (SUITE_ENTRIES in
# perfbench/unit.py).
SUITE_ENTRIES = (
    "euclidean(3)",
    "flat_torus(2)",
    "sphere2",
    "flat_kahler(1)",
    "flat_kahler(2)",
    "hopf_lck",
    "sasakian_s3",
    "flat_cokahler(1)",
    "flat_cokahler(2)",
)


@pytest.mark.parametrize("name", SUITE_ENTRIES)
def test_catalog_emit_round_trips(capsys, name):
    code, out, _ = run(capsys, "catalog", "--emit", name)
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == "excal-config v1"
    G = load_config(doc)
    assert G.name == name and G.n == excal.builtin(name).geometry.n
    assert emit_config(G) == doc


def test_catalog_emit_unknown(capsys):
    code, _, err = run(capsys, "catalog", "--emit", "nope")
    assert code == 2
    assert "error" in err


def test_check_config_file(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "--emit", "euclidean(2)")
    cfg = tmp_path / "e2.json"
    cfg.write_text(out)
    code, out, _ = run(capsys, "check", str(cfg), "--points", "3")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL " not in out


def test_check_config_stdin(capsys, monkeypatch):
    code, out, _ = run(capsys, "catalog", "--emit", "euclidean(2)")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "check", "-", "--points", "2")
    assert code == 0


def test_check_builtin_json_report(capsys):
    code, out, _ = run(
        capsys, "check", "--builtin", "dsquared", "--points", "3",
        "--seed", "7", "--report", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == "excal-report v1"
    assert doc["seed"] == 7
    assert doc["pass"] is True
    assert doc["reports"] and all(r["pass"] for r in doc["reports"])


def test_check_overflow_is_silent_and_its_verdicts_ignore_warning_filters(capsys, tmp_path):
    # a flat chart whose random quadratics overflow: some checks compare zero
    # forms and pass, the rest meet a non-finite value and fail
    cfg = tmp_path / "wide.json"
    wide = dict(EVAL_CONFIG, name="wide", domain=[[1e200, 2e200], [1e200, 2e200]])
    del wide["forms"]
    cfg.write_text(json.dumps(wide))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "check", str(cfg), "--points", "2")
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "RuntimeWarning" not in err
    assert code == 1 and "PASS  lie-wedge/wide/k1p1l1" in out and "FAIL  main-lie/wide/p1" in out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(capsys, "check", str(cfg), "--points", "2") == (code, out, err)


def test_check_failing_suite_exits_one(capsys, tmp_path):
    # a config with a named form that is not closed still passes the
    # structural identities; force failure with an impossible tolerance
    code, out, _ = run(
        capsys, "check", "--builtin", "dsquared", "--points", "2",
        "--tol-abs", "0", "--tol-rel", "0",
    )
    # d^2 = 0 holds exactly at most points; tolerate either outcome but
    # require consistency between text and exit code
    assert code in (0, 1)
    assert ("FAIL" in out) == (code == 1)


def test_a_failing_check_says_where_in_the_text_report():
    from excal.alt import AltValue
    from excal.cli import _report_lines
    from excal.verifier import IdentityCheck, run_check

    def side(value):
        return lambda ctx: [AltValue(2, 0), AltValue(2, 1, {(1,): value})]

    def boom(ctx):
        raise RuntimeError("synthetic failure")

    base = dict(geometry="euclidean(2)", points=[(0.5, 0.25)], jet_order=0)
    reports = [
        run_check(IdentityCheck("t/differs", lhs=side(1.5), rhs=side(1.0), **base)),
        run_check(IdentityCheck("t/raises", lhs=boom, rhs=side(1.0), **base)),
        run_check(IdentityCheck("t/holds", lhs=side(1.0), rhs=side(1.0), **base)),
    ]
    out = io.StringIO()
    _report_lines(reports, out)
    assert out.getvalue().splitlines() == [
        "FAIL  t/differs  max_abs_err=5.000e-01  max_rel_err=3.333e-01",
        "      at p=[0.5, 0.25]: slot 1, basis key (1,): lhs 1.5, rhs 1",
        "FAIL  t/raises  max_abs_err=1.000e+308  max_rel_err=1.000e+308",
        "      at p=[0.5, 0.25]: RuntimeError: synthetic failure",
        "PASS  t/holds  max_abs_err=0.000e+00  max_rel_err=0.000e+00",
        "1/3 checks passed",
    ]


def test_check_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "check")
    assert code == 2 and "config path or --builtin" in err
    cfg = tmp_path / "x.json"
    cfg.write_text("{}")
    code, _, err = run(capsys, "check", str(cfg), "--builtin", "all")
    assert code == 2 and "not both" in err


@pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rel"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_check_refuses_a_tolerance_that_cannot_fail(capsys, flag, value):
    # an infinite bound passes every residual and a negative one fails every
    # check; a NaN one passed every residual before exceeds failed closed
    code, _, err = run(capsys, "check", "--builtin", "dsquared", "--points", "1", flag, value)
    assert code == 2
    assert "finite number >= 0" in err and "Traceback" not in err


def test_check_malformed_json(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code, _, err = run(capsys, "check", str(cfg))
    assert code == 2
    assert "not valid JSON" in err


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "/no/such/file.json")
    assert code == 2


def test_check_unknown_suite(capsys):
    code, _, err = run(capsys, "check", "--builtin", "bogus-suite")
    assert code == 2
    assert "error" in err


def test_eval_exterior_derivative(capsys, eval_config):
    code, out, _ = run(
        capsys, "eval", eval_config, "--expr", "d(f)", "--at", "1,2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("1: 4")
    assert lines[1].startswith("2: 1")


def test_eval_degree_zero_output(capsys, eval_config):
    code, out, _ = run(capsys, "eval", eval_config, "--expr", "f", "--at", "2,1")
    assert code == 0
    assert out.strip() == "(): 4"


def test_eval_vector_valued_output(capsys, eval_config):
    code, out, _ = run(
        capsys, "eval", eval_config, "--expr", "sharp(d(f))", "--at", "1,2"
    )
    assert code == 0
    assert "e1 | " in out and "e2 | " in out


def test_eval_catalog_entry_by_name(capsys):
    # delta(Omega) = -eta on the lcK chart
    code, out, _ = run(
        capsys, "eval", "hopf_lck", "--expr", "delta(Omega)",
        "--at", "0.5,0.5,0.5,0.5",
    )
    assert code == 0
    got = {}
    for line in out.strip().splitlines():
        key, _, val = line.partition(":")
        got[key.strip()] = float(val)
    code, out, _ = run(
        capsys, "eval", "hopf_lck", "--expr", "eta", "--at", "0.5,0.5,0.5,0.5"
    )
    eta = {}
    for line in out.strip().splitlines():
        key, _, val = line.partition(":")
        eta[key.strip()] = float(val)
    assert set(got) == set(eta)
    for key in eta:
        assert got[key] == pytest.approx(-eta[key], abs=1e-9)


def test_eval_order_zero_differentiates_constants(capsys):
    # delta(Omega) is exactly 0 on a flat Kaehler chart, whose coefficients
    # are constants; d(Omega) on hopf_lck needs a jet order it was not given
    code, out, _ = run(
        capsys, "eval", "flat_kahler(1)", "--order", "0", "--at", "0.5,0.5",
        "--expr", "delta(Omega)",
    )
    assert code == 0 and out == "0\n"
    code, _, err = run(
        capsys, "eval", "hopf_lck", "--order", "0", "--at", "0.5,0.5,0.5,0.5",
        "--expr", "d(Omega)",
    )
    assert code == 2
    assert err.startswith("error: JetBudgetExhausted") and "Traceback" not in err


@pytest.mark.parametrize("order", ["-1", "5"])
def test_eval_order_out_of_range_exits_two(capsys, order):
    # refused even where every coefficient is a constant and no jet is built
    code, _, err = run(
        capsys, "eval", "flat_kahler(1)", "--order", order, "--at", "0.5,0.5",
        "--expr", "Omega",
    )
    assert code == 2 and err.startswith("error: JetBudgetExhausted")


def test_eval_syntax_error_has_caret(capsys, eval_config):
    code, _, err = run(capsys, "eval", eval_config, "--expr", "d(f", "--at", "0,0")
    assert code == 2
    assert "^" in err


def test_eval_unknown_name_has_caret(capsys):
    expr = "sharp(d(x1))"
    code, _, err = run(capsys, "eval", "sphere2", "--expr", expr, "--at", "0.5,0.5")
    assert code == 2
    assert err.startswith("error: unknown identifier 'x1'\n")
    assert f"  {expr}\n  {' ' * 8}^\n" in err


def test_eval_bad_point(capsys, eval_config):
    code, _, err = run(capsys, "eval", eval_config, "--expr", "f", "--at", "1")
    assert code == 2
    code, _, err = run(capsys, "eval", eval_config, "--expr", "f", "--at", "a,b")
    assert code == 2
    # out-of-domain points are an ExcalError, also exit 2
    code, _, err = run(capsys, "eval", eval_config, "--expr", "f", "--at", "9,9")
    assert code == 2


@pytest.mark.parametrize(
    "src, expr, at, error",
    [
        ("exp(1000*x)", "f", "0.9", "DomainError"),
        ("(1 + x)^1e308", "d(f)", "0.5", "DomainError"),
        ("x*1e308*10", "f", "0.5", "NonFiniteValue"),
    ],
    ids=["exp", "integer-power", "product"],
)
def test_eval_overflow_is_a_domain_error(capsys, tmp_path, src, expr, at, error):
    # exp(900), 1.5^1e308 and 5e307*10 overflow a float: a typed error and
    # exit 2, not a traceback and not a printed inf
    cfg = {
        "version": "excal-config v1",
        "name": "steep",
        "dim": 1,
        "coords": ["x"],
        "metric": [["1"]],
        "domain": [[-1, 1]],
        "forms": {"f": {"degree": 0, "coeffs": {"": src}}},
    }
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "eval", str(path), "--expr", expr, "--at", at)
    assert code == 2
    assert err.startswith(f"error: {error}") and "Traceback" not in err


@pytest.mark.parametrize(
    "metric, coeff, offset",
    [([["1e400", "0"], ["0", "1"]], "x*y", 0), ([["1", "0"], ["0", "1"]], "x + 2*1e400", 6)],
    ids=["metric", "form"],
)
def test_non_finite_literal_is_a_syntax_error(capsys, tmp_path, metric, coeff, offset):
    # an overflowing literal read as inf: a metric entry let delta print a
    # value and check pass 18 of 19 checks, a coefficient made d(w) lose it
    w = {"degree": 1, "coeffs": {"1": coeff, "2": "x"}}
    path = tmp_path / "literal.json"
    path.write_text(json.dumps(dict(EVAL_CONFIG, metric=metric, forms={"w": w})))
    for argv in (("eval", str(path), "--expr", "delta(w)", "--at", "0.3,0.2"),
                 ("eval", str(path), "--expr", "d(w)", "--at", "0.3,0.2"),
                 ("check", str(path), "--points", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert [l for l in err.splitlines() if l.startswith("error:")] == [
            f"error: ExprSyntaxError: literal 1e400 is not a finite number at offset {offset}"
        ]


def test_a_series_past_the_float_range_is_a_domain_error(capsys, tmp_path):
    # log's Taylor terms divide by x^k, which underflows to 0 at x = 1e-200:
    # a typed refusal with exit 2, not a ZeroDivisionError traceback
    f = {"degree": 0, "coeffs": {"": "log(x)"}}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"dim": 1, "coords": ["x"], "metric": [["1"]],
                                "domain": [[1e-200, 1]], "forms": {"f": f}}))
    code, out, err = run(capsys, "eval", str(path), "--expr", "d(f)", "--at", "1e-200")
    assert code == 2 and out == ""
    assert [l for l in err.splitlines() if l.startswith("error:")] == [
        "error: DomainError: log undefined at value 1e-200"
    ]


def test_eval_at_a_negative_first_coordinate(capsys):
    # with a space argparse reads "-0.5,0.2" as an option; the = form works
    code, out, err = run(capsys, "eval", "flat_kahler(1)", "--expr", "sharp(Omega)", "--at=-0.5,0.2")
    assert code == 0 and err == ""
    assert out == "e1 | 2: -1\ne2 | 1: 1\n"


@pytest.mark.parametrize(
    "metric, message",
    [
        # the value passes eigvalsh, but its inverse is infinite: this was a
        # NonFiniteValue naming no metric
        ([["1e-320", "0"], ["0", "1"]], "metric not invertible at (0.5, 0.5)"),
        # this printed a numpy array over two lines
        ([["1", "0.5"], ["0", "1"]],
         "metric not symmetric at (0.5, 0.5): [[1.0, 0.5], [0.0, 1.0]]"),
        # an overflowing product of finite literals: this printed a value
        ([["1e300*1e300", "0"], ["0", "1"]],
         "metric not finite at (0.5, 0.5): [[inf, 0.0], [0.0, 1.0]]"),
    ],
    ids=["underflow", "asymmetric", "overflow"],
)
def test_degenerate_metric_is_one_line_naming_it(capsys, tmp_path, metric, message):
    w = {"degree": 1, "coeffs": {"1": "x*y", "2": "x"}}
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(dict(EVAL_CONFIG, metric=metric, forms={"w": w})))
    code, out, err = run(capsys, "eval", str(path), "--expr", "delta(w)", "--at", "0.5,0.5")
    assert code == 2 and out == ""
    assert err == f"error: SingularMetric: {message}\n"


@pytest.mark.parametrize(
    "entry",
    ["(" * 400 + "1" + ")" * 400, "-" * 3000 + "1", "1" + "+x" * 5000],
    ids=["parens", "minus", "sum"],
)
def test_deeply_nested_metric_exits_two(capsys, tmp_path, entry):
    # these were a RecursionError traceback, or a RecursionError at every
    # point of the report
    cfg = {"dim": 1, "coords": ["x"], "metric": [[entry]], "domain": [[-1, 1]]}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "check", str(path), "--points", "1")
    assert code == 2
    assert err.startswith("error: ExprSyntaxError: expression nests deeper than 100 levels")


def test_eval_deeply_nested_expression_has_caret(capsys):
    expr = "d(" * 600 + "Omega" + ")" * 600
    code, _, err = run(capsys, "eval", "hopf_lck", "--at", "0.5,0.5,0.5,0.5", "--expr", expr)
    assert code == 2
    assert err.startswith("error: expression nests deeper than 100 levels")
    assert f"  {expr}\n  {' ' * 198}^\n" in err


def test_seed_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv("EXCAL_SEED", "123")
    code, out, _ = run(
        capsys, "check", "--builtin", "dsquared", "--points", "2", "--report", "json"
    )
    assert code == 0 and json.loads(out)["seed"] == 123
    # explicit flag wins over the environment
    code, out, _ = run(
        capsys, "check", "--builtin", "dsquared", "--points", "2",
        "--seed", "9", "--report", "json",
    )
    assert json.loads(out)["seed"] == 9
    monkeypatch.setenv("EXCAL_SEED", "not-a-number")
    code, _, err = run(capsys, "check", "--builtin", "dsquared")
    assert code == 2 and "EXCAL_SEED" in err


def test_argparse_usage_exit_normalized(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def _module_env():
    """The environment that makes a child import the package the tests import."""
    src_root = str(Path(excal.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    return env


def run_module(*argv):
    """Run ``python -m excal`` on the package the tests import."""
    return subprocess.run(
        [sys.executable, "-m", "excal", *argv],
        capture_output=True, text=True, timeout=60, env=_module_env(),
    )


def test_python_m_excal_passes_exit_codes_through():
    proc = run_module("catalog", "--list")
    assert proc.returncode == 0, proc.stderr
    assert "sphere2" in proc.stdout
    proc = run_module("check", "--builtin", "no-such-suite")
    assert proc.returncode == 2
    assert "UnknownSuite" in proc.stderr


def test_malformed_config_field_exits_two_without_traceback(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(dict(EVAL_CONFIG, dim="two")))
    proc = run_module("check", str(cfg), "--points", "2")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ConfigError: dim")
    assert "Traceback" not in proc.stderr


def test_malformed_config_name_exits_two_without_traceback(tmp_path):
    # a non-string name was a TypeError traceback with exit 1
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(dict(EVAL_CONFIG, name=["quadratic"])))
    proc = run_module("check", str(cfg), "--points", "2")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ConfigError: name")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "name, expr, at",
    [("euclidean(3", "d(x1)", "0.1,0.2,0.3"), ("flat_kahler(1))", "Omega", "0.5,0.5")],
)
def test_malformed_catalog_name_exits_two(capsys, name, expr, at):
    # each resolved to the entry named without the stray parenthesis
    code, out, err = run(capsys, "eval", name, "--expr", expr, "--at", at)
    assert code == 2 and out == "" and "Traceback" not in err
    assert "nor a catalog entry" in err


@pytest.mark.parametrize(
    "argv",
    [("check", "--builtin", "kahler", "--seed", "42", "--report", "json"), ("catalog", "--list")],
)
def test_a_closed_output_pipe_exits_two_without_traceback(argv):
    # the read end is closed before the CLI writes, as `| head -1` does
    # once it has its line
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "excal", *argv],
            stdout=w, stderr=subprocess.PIPE, text=True, timeout=60, env=_module_env(),
        )
    finally:
        os.close(w)
    assert proc.returncode == 2
    assert proc.stderr == ""


def test_eval_of_a_sparse_six_dimensional_form_stays_small(tmp_path):
    # diamond(u) at order 4 on a conformally flat 6-D chart: the zero rows
    # of the metric and of u are never expanded (232 MB before they were
    # skipped).  A process's peak RSS counts that of the process it was
    # forked from, so a small child runs the CLI and reads its peak.
    xs = [f"x{i}" for i in range(1, 7)]
    conf = "1/(1 + " + " + ".join(f"{x}^2" for x in xs) + ")"
    cfg = tmp_path / "conformal6.json"
    cfg.write_text(json.dumps({
        "version": "excal-config v1", "name": "conformal6", "dim": 6, "coords": xs,
        "metric": [[conf if a == b else "0" for b in range(6)] for a in range(6)],
        "domain": [[-0.5, 0.5]] * 6,
        "forms": {"u": {"degree": 3, "coeffs": {"1,2,3": "x1", "2,4,6": "1 + x2*x5", "3,5,6": "x4^2"}}},
    }))
    script = (
        "import resource, subprocess, sys\n"
        "proc = subprocess.run([sys.executable, '-m', 'excal', *sys.argv[1:]],"
        " capture_output=True, text=True)\n"
        "sys.stdout.write(proc.stdout)\n"
        "print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,"
        " file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "eval", str(cfg), "--expr", "diamond(u)",
         "--at", "0.1,0.2,-0.1,0.3,0.05,-0.2", "--order", "4"],
        capture_output=True, text=True, timeout=120, env=_module_env(),
    )
    code, maxrss_kb = proc.stderr.split()
    assert code == "0" and "e6 | 3,5,6:" in proc.stdout
    assert int(maxrss_kb) / 1024 < 64
