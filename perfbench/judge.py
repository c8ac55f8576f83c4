"""The benchmark's own verdicts on excal's outputs.

Nothing here calls excal's comparison code (`compare.alt_errors` folds a
NaN error to 0, so a non-finite side would pass). Every value pair, an
`eval-fresh` request's two sides or a pair the verifier compares in a CLI
workload, is judged by `judge_pair`: coefficient by coefficient, with
every Taylor coefficient required to be finite. A CLI report is then
judged from those pair verdicts, check by check.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

ATOL = 1e-9
RTOL = 1e-8
# An expected-fail check is a negative control: it must miss by this much.
FAIL_FLOOR = 1e-3
NEGATIVE_CONTROLS = ("killing-negative/sphere2", "parallel-negative/euclidean(3)")


def coeff_table(value):
    """{(component, basis key): Taylor coefficients} of a form value.

    Accepts a scalar form value (`.coeffs`), a tangent-valued one
    (`.comps`) or a list of either; jet coefficients carry their Taylor
    coefficients in `.c`, plain numbers stand for themselves.
    """
    if isinstance(value, (list, tuple)):
        out = {}
        for slot, item in enumerate(value):
            for key, c in coeff_table(item).items():
                out[(slot,) + key] = c
        return out
    comps = getattr(value, "comps", None)
    if comps is None:
        comps = [value]
    return {
        (b, key): np.atleast_1d(np.asarray(getattr(c, "c", c), dtype=float))
        for b, comp in enumerate(comps)
        for key, c in comp.coeffs.items()
    }


def judge_pair(lhs, rhs, atol=ATOL, rtol=RTOL):
    """(ok, max_abs_err) of two form values compared at the point.

    ok needs both sides of the same kind and degree, every Taylor
    coefficient finite, and |a - b| <= atol + rtol * max(|a|, |b|, 1) for
    the value of every basis coefficient.
    """
    if type(lhs) is not type(rhs) or getattr(lhs, "k", None) != getattr(rhs, "k", None):
        return False, math.inf
    left, right = coeff_table(lhs), coeff_table(rhs)
    worst = 0.0
    ok = True
    for key in left.keys() | right.keys():
        a, b = left.get(key), right.get(key)
        if any(c is not None and not np.isfinite(c).all() for c in (a, b)):
            return False, math.inf
        va = float(a[0]) if a is not None else 0.0
        vb = float(b[0]) if b is not None else 0.0
        err = abs(va - vb)
        worst = max(worst, err)
        if err > atol + rtol * max(abs(va), abs(vb), 1.0):
            ok = False
    return ok, worst


def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


@dataclass
class ReportVerdict:
    """Harness verdict on an excal-report v1 document."""

    checks: int
    attempted: int
    failed: int
    problems: list


def _point_verdicts(points, pairs):
    """Per point of a check, whether the harness judged it right.

    The verifier compares one or more value pairs per point, the same
    number at every point, in point order. A point that recorded an error
    compared nothing. None when the pairs cannot be laid out that way.
    """
    clean = [p for p in points if "error" not in p]
    if not clean:
        return [False] * len(points) if not pairs else None
    per_point, extra = divmod(len(pairs), len(clean))
    if per_point == 0 or extra:
        return None
    verdicts, i = [], 0
    for p in points:
        if "error" in p:
            verdicts.append(False)
        else:
            verdicts.append(all(ok for ok, _ in pairs[i:i + per_point]))
            i += per_point
    return verdicts


def judge_report(text, expected_checks, comparisons, negative_controls=()):
    """Judge a JSON report: every (check, point) pair is one attempt.

    `comparisons` holds, in run order, (check id, [(ok, abs_err), ...])
    with the harness's verdict on every value pair the verifier compared
    for that check. A normal check's point fails when it records an error
    or a pair of it fails; a check whose reported verdict disagrees with
    the harness's fails at every point, and so does one whose pairs do not
    match its points. Each named negative control must be present, marked
    expected-fail and report XFAIL, and both its reported max_abs_err and
    the harness's must be finite and above FAIL_FLOOR.
    """
    problems = []
    tokens = []

    def nonfinite(token):
        tokens.append(token)
        return float(token)

    doc = json.loads(text, parse_constant=nonfinite)
    if tokens:
        problems.append(f"report holds non-finite numbers: {sorted(set(tokens))}")
    reports = doc.get("reports", [])
    if [cid for cid, _ in comparisons] != [r.get("check") for r in reports]:
        problems.append("the checks the harness saw run differ from the report's")
        comparisons = [(r.get("check"), []) for r in reports]
    attempted = failed = 0
    xfail_seen = []
    for r, (_, pairs) in zip(reports, comparisons):
        points = r.get("points", [])
        attempted += len(points)
        verdicts = _point_verdicts(points, pairs)
        if verdicts is None:
            problems.append(f"{r.get('check')}: {len(pairs)} compared pairs for "
                            f"{len(points)} points")
            verdicts = [False] * len(points)
        if r.get("expected_fail"):
            xfail_seen.append(r["check"])
            err = r.get("max_abs_err")
            worst = max((e for _, e in pairs), default=0.0)
            ok = (
                r["check"] in negative_controls
                and r.get("pass") is True
                and _finite(err)
                and err > FAIL_FLOOR
                and math.isfinite(worst)
                and worst > FAIL_FLOOR
                and not any("error" in p for p in points)
            )
            bad = 0 if ok else len(points)
        else:
            bad = verdicts.count(False)
            if (bad == 0) != (r.get("pass") is True):
                bad = len(points)
        if bad:
            problems.append(f"{r.get('check')}: {bad}/{len(points)} points fail")
        failed += bad
    if sorted(xfail_seen) != sorted(negative_controls):
        problems.append(f"negative controls {xfail_seen}, expected {list(negative_controls)}")
    if len(reports) != expected_checks:
        problems.append(f"{len(reports)} checks, expected {expected_checks}")
    if doc.get("pass") is not all(r.get("pass") is True for r in reports):
        problems.append("top-level pass disagrees with the checks")
    if problems and not failed:
        failed = 1
    return ReportVerdict(len(reports), max(attempted, 1), failed, problems)
