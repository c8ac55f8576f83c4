"""The boundaries the benchmark traces exist in excal.

`perfbench` wraps named excal functions and methods and refuses to run
when one it reads a metric from is gone. This checks the same names from
the test suite, so a refactor that renames or deletes one fails here and
not only in the benchmark's own tests. It only looks the names up; it
wraps nothing. It also pins the jet-multiply kernel the benchmark counts:
its arguments, and one call per wedge or interior product; and the
benchmark's judge's verdict on the value pairs a CLI check compares.
"""

import contextlib
import importlib
import inspect
import io
import sys
from itertools import combinations
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import judge  # noqa: E402
import spans  # noqa: E402

from excal import cli, compare, jets, verifier  # noqa: E402
from excal.alt import AltValue, VecAltValue, interior, wedge  # noqa: E402


def test_every_required_boundary_exists():
    found = {
        name
        for layer in spans.LAYERS
        for name, *_ in spans._boundaries(layer, importlib.import_module(f"excal.{layer}"))
    }
    missing = [name for name in spans.REQUIRED if name not in found]
    assert not missing, f"traced boundaries missing from excal: {missing}"


def test_kernel_counter_exists():
    assert spans.KERNEL == "jets.mul_coeffs"
    assert callable(jets.mul_coeffs)


def test_kernel_keeps_the_arguments_the_benchmark_counts():
    # perfbench's kernel counter wraps these six positional arguments
    params = inspect.signature(jets.mul_coeffs).parameters
    assert list(params) == ["a", "b", "idx_a", "idx_b", "idx_out", "size"]


def test_one_kernel_call_per_product(monkeypatch):
    # a wedge or an interior of jet values is one table-driven product, not
    # a loop of scalar jet products
    calls = []
    kernel = jets.mul_coeffs

    def counted(*args):
        calls.append(len(args[2]))
        return kernel(*args)

    monkeypatch.setattr(jets, "mul_coeffs", counted)
    p = (0.3, -0.2, 0.5, 0.7)
    x = [jets.jet_var(p, i, 2) for i in range(4)]
    a = AltValue(4, 1, {(i,): x[i] * x[(i + 1) % 4] for i in range(4)})
    b = AltValue(4, 2, {I: x[I[0]] + 2.0 * x[I[1]] for I in combinations(range(4), 2)})
    phi = VecAltValue(4, 1, [a, a, a, a])
    for product in (lambda: wedge(a, b), lambda: interior(phi, b)):
        calls.clear()
        product()
        assert len(calls) == 1 and calls[0] > 0


@pytest.mark.parametrize("argv, checks", [
    (["check", str(ROOT / "perfbench/fixtures/hopf_lck.json"), "--points", "3"], 30),
    (["check", "--builtin", "fn-decompose-roundtrip"], 10),
])
def test_the_judge_passes_the_pairs_a_check_compares(monkeypatch, argv, checks):
    # as the benchmark does: wrap run_check and alt_errors wherever excal
    # imported it, judge every outermost pair, then the report from them;
    # fn_decompose compares its own values apart from alt_errors, so the
    # judge sees only the report's comparisons, one call per point
    log, current, depth = [], [None], [0]
    inner_check, inner_errors = verifier.run_check, compare.alt_errors

    def run_check(check):
        log.append((check.id, []))
        current[0] = (check, log[-1][1])
        try:
            return inner_check(check)
        finally:
            current[0] = None

    def alt_errors(lhs, rhs):
        if depth[0] == 0 and current[0] is not None:
            check, pairs = current[0]
            pairs.append(judge.judge_pair(lhs, rhs, check.atol, check.rtol))
        depth[0] += 1
        try:
            return inner_errors(lhs, rhs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(verifier, "run_check", run_check)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "excal":
            for attr, value in list(vars(mod).items()):
                if value is inner_errors:
                    monkeypatch.setattr(mod, attr, alt_errors)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--seed", "42", "--report", "json"]) == 0
    verdict = judge.judge_report(out.getvalue(), checks, log)
    assert verdict.failed == 0 and verdict.problems == []
    assert verdict.checks == checks
