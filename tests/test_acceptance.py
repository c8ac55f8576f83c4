"""End-to-end acceptance gate for the identity engine.

Runs the full built-in suite once through the CLI (timed, alone), plus two
fixed-seed runs side by side for the determinism check, and asserts the
headline identity results directly from the JSON reports.  One of those
fixed-seed runs and a seed-42 run of each perfbench config fixture are
pinned by digest, so a report that moves by one bit fails here.  The CLI runs as
``python -m excal`` under the interpreter that runs the tests, importing
the same ``excal`` package the tests import, so the gate needs no install.
"""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from itertools import combinations, permutations
from pathlib import Path

import pytest

import excal

MAIN_GEOMETRIES = [
    "euclidean(3)",
    "sphere2",
    "flat_kahler(1)",
    "flat_kahler(2)",
    "hopf_lck",
    "sasakian_s3",
    "flat_cokahler(1)",
    "flat_cokahler(2)",
]

STRUCTURAL_PREFIXES = [
    "fn-contraction",
    "omegaiphi",
    "lie-wedge",
    "dsquared",
    "deltasquared",
    "frame-independence",
    "curvature-dnabla2",
    "omegacov",
    "diamond-consistency",
    "delta-trace",
]


CLI_TIMEOUT_S = 300


def _start_cli(*args):
    """Start the CLI; returns (process, deadline) for _wait_cli."""
    # put the source root of the imported package first on the child's path,
    # so the child cannot pick up a different, installed copy of excal
    src_root = str(Path(excal.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "excal", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    return proc, time.monotonic() + CLI_TIMEOUT_S


def _wait_cli(started):
    """Collect a started CLI run, killing it once its own timeout has passed."""
    proc, deadline = started
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def _run_cli(*args):
    return _wait_cli(_start_cli(*args))


@pytest.fixture(scope="module")
def full_run():
    """One full default run of every built-in suite, wall-clock timed."""
    t0 = time.monotonic()
    proc = _run_cli("check", "--builtin", "all", "--report", "json")
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    return doc, elapsed


@pytest.fixture(scope="module")
def reports(full_run):
    doc, _ = full_run
    by_id = {r["check"]: r for r in doc["reports"]}
    assert len(by_id) == len(doc["reports"])  # ids are unique
    return by_id


@pytest.fixture(scope="module")
def seed42_outputs():
    # the two seeded runs are independent processes, so they run side by side
    args = ("check", "--builtin", "all", "--seed", "42", "--report", "json")
    started = [_start_cli(*args) for _ in range(2)]
    try:
        done = [_wait_cli(s) for s in started]
    finally:
        for proc, _ in started:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    outs = []
    for proc in done:
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    return outs


def _passing(reports, prefix):
    hits = {cid: r for cid, r in reports.items() if cid.startswith(prefix)}
    assert hits, f"no reports under {prefix!r}"
    bad = [cid for cid, r in hits.items() if not r["pass"]]
    assert not bad, f"failing checks: {bad}"
    return hits


def test_full_suite_passes_under_time_budget(full_run):
    doc, elapsed = full_run
    assert doc["pass"] is True
    assert doc["tolerance"] == {"atol": 1e-9, "rtol": 1e-8}
    assert elapsed < 60.0, f"full suite took {elapsed:.1f}s"


def test_default_sampling_is_twenty_points(reports):
    # default runs sample 20 deterministic points per geometry
    sizes = {len(r["points"]) for r in reports.values() if not r["expected_fail"]}
    assert 20 in sizes
    assert max(sizes) == 20


# 1. the main commutator identity, Lie and covariant forms


@pytest.mark.parametrize("tag", ["main-lie", "main-covariant"])
def test_main_theorem(reports, tag):
    hits = _passing(reports, tag + "/")
    for g in MAIN_GEOMETRIES:
        assert any(cid.startswith(f"{tag}/{g}/") for cid in hits), g
    # omega degrees 1..3 appear wherever the dimension admits them
    for g in ("euclidean(3)", "hopf_lck"):
        for p in (1, 2, 3):
            assert f"{tag}/{g}/p{p}" in hits


# 2. the anticommutator corollary with random and Killing fields


def test_goldberg_corollary(reports):
    hits = _passing(reports, "goldberg/")
    for g in ("euclidean(3)", "sphere2"):
        assert any(cid.startswith(f"goldberg/{g}/") for cid in hits), g
        assert f"goldberg/{g}/killing-constants" in hits
    # at least one random-field witness and one Killing witness per chart
    labels = {cid.split("/")[-1] for cid in hits}
    assert "killing-constants" in labels and len(labels) >= 2


# 3. negative controls must fail loudly


@pytest.mark.parametrize("prefix", ["killing-negative", "parallel-negative"])
def test_negative_witnesses(reports, prefix):
    hits = _passing(reports, prefix)
    for r in hits.values():
        assert r["expected_fail"] is True
        assert r["max_abs_err"] > 1e-3


# 4. locally conformal Kahler constants and identity


def test_lck_chart(reports):
    _passing(reports, "lck/")
    consts = _passing(reports, "lck-constants/hopf_lck/")
    assert len(consts) >= 4


# 5. Sasakian / quasi-Sasakian / co-Kahler charts


def test_sasakian_and_cokahler_charts(reports):
    _passing(reports, "sasakian/")
    consts = _passing(reports, "sasakian-constants/sasakian_s3/")
    assert len(consts) >= 4
    qs = _passing(reports, "quasi-sasakian/")
    assert any("sasakian_s3" in cid for cid in qs)
    ck = _passing(reports, "cokahler/")
    assert any("flat_cokahler(1)" in cid for cid in ck)
    assert any("flat_cokahler(2)" in cid for cid in ck)


# 6. the Kahler commutation relation


def test_kahler_identity(reports):
    hits = _passing(reports, "kahler/")
    assert "kahler/flat_kahler(1)" in hits
    assert "kahler/flat_kahler(2)" in hits


# 7. structural identities on every catalog geometry


@pytest.mark.parametrize("prefix", STRUCTURAL_PREFIXES)
def test_structural_suites(reports, prefix):
    _passing(reports, prefix + "/")


# 8. derivation decomposition round-trip


def test_fn_decompose_round_trip(reports):
    hits = _passing(reports, "fn-decompose-roundtrip/")
    assert len(hits) == 10
    for r in hits.values():
        assert r["max_abs_err"] < 1e-9


# 9. bitwise determinism of seeded runs


def test_seeded_runs_are_byte_identical(seed42_outputs):
    stripped = [
        re.sub(r'^\s*"wall_time_s":.*$', "", out, flags=re.MULTILINE)
        for out in seed42_outputs
    ]
    assert stripped[0] == stripped[1]
    assert json.loads(seed42_outputs[0])["seed"] == 42


FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"

# sha256 of each seed-42 JSON report with its wall_time_s lines removed
SEEDED_DIGESTS = {
    "--builtin all": "8ad19094776ee9de5809f4934cb1178d907e1cb7c90e0263ed6b5552c4ba2a6b",
    "hopf_lck.json": "929ecd6d27c77b7b2cbbb7c14e61c1dffad53cb466617f0a601deb7c611532ab",
    "sasakian_s3.json": "4683e8492d486a8134f936ddde26f8157f345d36f7d753033dc920856f6d76d4",
}


@pytest.fixture(scope="module")
def seed42_config_outputs():
    names = ("hopf_lck.json", "sasakian_s3.json")
    started = [_start_cli("check", str(FIXTURES / name), "--seed", "42", "--report", "json")
               for name in names]
    done = [_wait_cli(s) for s in started]
    for proc in done:
        assert proc.returncode == 0, proc.stderr
    return {name: proc.stdout for name, proc in zip(names, done)}


def _digest(out):
    kept = [line for line in out.splitlines(keepends=True)
            if not re.match(r'\s*"wall_time_s":', line)]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def test_seeded_reports_keep_their_digests(seed42_outputs, seed42_config_outputs):
    outputs = dict(seed42_config_outputs, **{"--builtin all": seed42_outputs[0]})
    for what, want in SEEDED_DIGESTS.items():
        got = _digest(outputs[what])
        assert got == want, (
            f"the seed-42 report of `check {what}` moved: sha256 {got} (wall_time_s "
            f"lines removed), pinned {want}; a deliberate move is recorded in "
            "CHANGES.md with the old and new digests, and then pinned here"
        )


# 10. shuffle formulas against the brute-force evaluation oracle


def _perm_sign(perm):
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


def test_interior_and_trace_against_oracle():
    from excal.alt import AltValue, VecAltValue, apply, apply_vec, interior, trace
    from excal.prng import SplitMix64, derive_seed

    def rand_alt(n, k, rng):
        return AltValue(
            n, k, {I: rng.uniform(-1, 1) for I in combinations(range(n), k)}
        )

    def oracle_interior(phi, omega, vectors):
        p, k = phi.k, omega.k
        total = 0.0
        for sigma in permutations(range(len(vectors))):
            first = [vectors[s] for s in sigma[:p]]
            rest = [vectors[s] for s in sigma[p:]]
            vec = apply_vec(phi, first)
            total += _perm_sign(sigma) * apply(omega, [vec] + rest)
        return total / (math.factorial(p) * math.factorial(k - 1))

    sampled = 0
    for n in range(2, 6):
        rng = SplitMix64(derive_seed(777, "acceptance-oracle", n))
        for p in range(0, n + 1):
            for k in range(1, n + 1):
                m = k + p - 1
                if m > n:
                    continue
                for _ in range(3):
                    phi = VecAltValue(n, p, [rand_alt(n, p, rng) for _ in range(n)])
                    om = rand_alt(n, k, rng)
                    got = interior(phi, om)
                    for M in combinations(range(n), m):
                        vecs = [
                            [1.0 if i == a else 0.0 for i in range(n)] for a in M
                        ]
                        assert abs(got.get(M) - oracle_interior(phi, om, vecs)) < 1e-12
                    if p >= 1:
                        tr = trace(phi)
                        for M in combinations(range(n), p - 1):
                            vecs = [
                                [1.0 if i == a else 0.0 for i in range(n)] for a in M
                            ]
                            want = sum(
                                apply(
                                    phi.comps[b],
                                    [[1.0 if i == b else 0.0 for i in range(n)]] + vecs,
                                )
                                for b in range(n)
                            )
                            assert abs(tr.get(M) - want) < 1e-12
                    sampled += 1
    assert sampled >= 100
