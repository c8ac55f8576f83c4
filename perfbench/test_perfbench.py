"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import judge  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import unit  # noqa: E402

import excal  # noqa: E402
from excal import geometry, sexpr  # noqa: E402

EVAL_SMALL = ["--task", "eval", "--requests", "60"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


def test_sign_flipped_rhs_fails_every_request():
    deadline = run.Deadline(120)
    good = run.run_rep([EVAL_SMALL], 3, deadline)
    bad = run.run_rep([EVAL_SMALL + ["--flip-rhs"]], 3, deadline)
    assert good["failed"] == 0 and good["attempted"] == 60
    assert bad["failed"] / bad["attempted"] == 1.0


def _jet_form(values):
    n = 2
    jets = {}
    for key, v in values.items():
        j = excal.jet_const(0.0, n, 1)
        j.c[:] = v
        jets[key] = j
    return excal.AltValue(n, 1, jets)


def test_judge_pair_refuses_non_finite_taylor_coefficients():
    a = _jet_form({(0,): [1.0, 0.0, 0.0]})
    assert judge.judge_pair(a, _jet_form({(0,): [1.0, 0.0, 0.0]})) == (True, 0.0)
    ok, err = judge.judge_pair(_jet_form({(0,): [1.0, math.nan, 0.0]}), a)
    assert not ok and err == math.inf
    nan_both = _jet_form({(0,): [math.nan, 0.0, 0.0]})
    assert not judge.judge_pair(nan_both, nan_both)[0]
    assert not judge.judge_pair(a, _jet_form({(0,): [1.1, 0.0, 0.0]}))[0]


def _report(reports, top=None):
    doc = {"version": "excal-report v1", "reports": reports,
           "pass": all(r["pass"] for r in reports) if top is None else top}
    return json.dumps(doc)


def _check(cid, abs_errs, passed=True, xfail=False):
    return {
        "check": cid, "pass": passed, "expected_fail": xfail,
        "max_abs_err": max(abs_errs),
        "points": [{"p": [0.0], "abs_err": e, "rel_err": e} for e in abs_errs],
        "tolerance": {"atol": 1e-9, "rtol": 1e-8},
    }


def test_judge_report():
    neg = ("neg/x",)
    clean = [_check("a", [0.0, 1e-12]), _check("neg/x", [0.5, 0.2], xfail=True)]
    seen = [("a", [(True, 0.0), (True, 1e-12)]), ("neg/x", [(False, 0.5), (False, 0.2)])]

    def judged(reports, pairs_of_a=None, control=None):
        log = [("a", seen[0][1] if pairs_of_a is None else pairs_of_a),
               ("neg/x", seen[1][1] if control is None else control)]
        return judge.judge_report(_report(reports), 2, log, neg)

    v = judged(clean)
    assert (v.attempted, v.failed, v.problems) == (4, 0, [])
    # a NaN error reported as passing
    v = judged([_check("a", [0.0, math.nan])] + clean[1:])
    assert v.failed >= 1 and any("non-finite" in p for p in v.problems)
    # a pair the harness refuses, in a check that claims to pass
    assert judged(clean, [(True, 0.0), (False, 1e-3)]).failed == 2
    # a non-finite pair that alt_errors folded to an error of 0
    assert judged(clean, [(True, 0.0), (False, math.inf)]).failed == 2
    # two pairs per point, one failing, in a check that reports its failure
    failing = [_check("a", [0.0, 1e-3], passed=False)] + clean[1:]
    assert judged(failing, [(True, 0.0), (True, 0.0), (False, 1e-3), (True, 0.0)]).failed == 1
    # pairs that do not fit the points
    v = judged(clean, [(True, 0.0)] * 3)
    assert v.failed == 2 and any("3 compared pairs" in p for p in v.problems)
    # a negative control that misses by too little, in the report or the harness
    assert judged([clean[0], _check("neg/x", [1e-4], xfail=True)], control=[(False, 1e-4)]).failed == 1
    assert judged(clean, control=[(False, 0.5), (False, math.inf)]).failed == 2
    # a negative control that is missing altogether
    assert judge.judge_report(_report(clean[:1]), 1, seen[:1], neg).failed >= 1


def test_untraced_cli_run_fails_nan_values():
    small = ["--task", "config", "--config", str(HERE / "fixtures" / "hopf_lck.json"),
             "--points", "2"]
    deadline = run.Deadline(120)
    good = run.run_rep([small], 4, deadline)
    bad = run.run_rep([small + ["--nan-values"]], 4, deadline)
    assert good["failed"] == 0 and good["attempted"] == 60
    # A check whose two sides are zero forms holds no coefficient to poison.
    assert bad["attempted"] == 60 and bad["failed"] >= 54


def test_missing_boundary_names_it_and_leaves_untraced_runs_alone(monkeypatch, capsys):
    monkeypatch.delattr(geometry.ChartContext, "curvature")
    with pytest.raises(spans.TraceBoundaryMissing, match="geometry.ChartContext.curvature"):
        spans.install(spans.Tracer())
    assert not hasattr(sexpr.eval_jet, "__wrapped__")
    capsys.readouterr()
    assert unit.main(EVAL_SMALL[:3] + ["20", "--seed", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["attempted"] == 20 and result["failed"] == 0
    with pytest.raises(spans.TraceBoundaryMissing):
        unit.main(EVAL_SMALL[:3] + ["20", "--seed", "1", "--trace", "1"])


def test_selftest_counts_and_digests_repeat(capsys):
    assert run.selftest(seed=5) == 0
    assert "selftest passed" in capsys.readouterr().out


def test_refuses_to_run_without_excal_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-fresh", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
