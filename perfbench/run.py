"""excal benchmark: end-to-end metrics per workload, or a traced per-layer split.

    python3 perfbench/run.py --workload suite-all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn
    python3 perfbench/run.py --selftest                   # determinism self-test

Run from the root of an excal checkout; excal is imported from `src/`, so
no installed package or console script is needed. Every repetition runs
in a fresh single-threaded interpreter (perfbench/unit.py) with BLAS
threads pinned to 1, one at a time. The last line of standard output is
one JSON object: correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.

Workloads (one client, closed loop; excal is single-threaded and has no
queue, so no waiting time exists to report):
  suite-all     `excal check --builtin all --seed S --report json`: 229
                checks at 20 points, each point shared by every check on its
                chart, so chart contexts are mostly cache hits.
  eval-fresh    requests of [delta, eps_omega] beta against
                eps_{delta omega} beta - L_{omega#} beta
                - (-1)^p i_{omega<>} beta at jet order 3, each at a fresh
                point on hopf_lck, sasakian_s3, sphere2 or flat_kahler(2):
                every context is a cache miss and every call is one point.
  config-dense  `excal check <config> --points 50` on the committed
                hopf_lck and sasakian_s3 configs: few checks, many points,
                the most contexts per chart.

`benchmarks/bench_kernels.py` is a secondary kernel microbenchmark and is
not part of this benchmark or its gate.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import spans
from probe import PROBE_NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = HERE / "fixtures"
OUT = ROOT / ".perfbench_out"

# A run must end within 180 s; this leaves room to report.
HARD_LIMIT_S = 170.0
SETUP_SAMPLES = 7
EVAL_REQUESTS = 2400  # 80 passes over the 30 (chart, p, q) combinations
DENSE_POINTS = 50
DENSE_CONFIGS = ("hopf_lck", "sasakian_s3")
BLAS_THREADS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Units of one repetition: unit.py arguments, one fresh process each.
WORKLOADS = {
    "suite-all": [["--task", "suite"]],
    "eval-fresh": [["--task", "eval", "--requests", str(EVAL_REQUESTS)]],
    "config-dense": [
        ["--task", "config", "--config", str(FIXTURES / f"{name}.json"),
         "--points", str(DENSE_POINTS)]
        for name in DENSE_CONFIGS
    ],
}
# Tail latency is reported at the highest percentile that leaves at least ten
# samples beyond it in one repetition: 229 checks, 2400 requests, 59 checks.
TAIL_PERCENTILE = {"suite-all": 95, "eval-fresh": 99, "config-dense": 75}
# Small versions for the determinism self-test.
SMALL = {
    "suite-all": [["--task", "suite", "--points", "2"]],
    "eval-fresh": [["--task", "eval", "--requests", "60"]],
    "config-dense": [
        ["--task", "config", "--config", str(FIXTURES / f"{name}.json"), "--points", "2"]
        for name in DENSE_CONFIGS
    ],
}

# Gated times are normalized by the host-speed probe (probe.Probe): on a
# shared host the wall and CPU time of identical work drifted by up to 1.6x
# between runs. The raw wall-clock figures are printed too, outside the gate.
END_TO_END = {
    "norm_wall_s": "s",
    "norm_points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "norm_latency_p50_ms": "ms",
    "norm_latency_tail_ms": "ms",
}
# Each names the end-to-end metric it should move (README.md has the map).
PER_LAYER = (
    "sexpr.parse.calls", "sexpr.parse.self_s",
    "sexpr.eval_jet.calls", "sexpr.eval_jet.self_s",
    "jets.mul_coeffs.calls", "jets.mul_coeffs.s",
    "jets.mul_coeffs.terms", "jets.mul_coeffs.bytes_computed",
    "alt.calls", "alt.wedge.calls", "alt.wedge.self_s",
    "alt.interior.calls", "alt.interior.self_s",
    "operators.calls", "operators.codiff.calls", "operators.codiff.self_s",
    "operators.ext_d.calls", "operators.ext_d.self_s",
    "operators.lie_vec.calls", "operators.lie_vec.self_s",
    "operators.nabla.calls", "operators.nabla.self_s", "operators.graded_comm.calls",
    "geometry.context.calls", "geometry.context.built", "geometry.context.hit_ratio",
    "geometry.metric.self_s", "geometry.christoffel.self_s", "geometry.frame.self_s",
    "geometry.curvature.self_s", "geometry.structure.self_s",
    "catalog.builtin.s", "geometry.load_config.s",
    "verifier.run_check.calls", "verifier.run_check.self_s",
    "opexpr.evaluate_str.calls", "opexpr.evaluate_str.self_s",
    "compare.alt_errors.calls", "compare.alt_errors.self_s",
    *(f"{layer}.self_s" for layer in spans.LAYERS),
    *(f"{layer}.share" for layer in spans.ALL_LAYERS),
    "trace.overhead_s",
)
DETERMINISTIC_COUNTS = ("jets.mul_coeffs.calls", "geometry.context.built", "sexpr.parse.calls")


class BenchError(RuntimeError):
    pass


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {HARD_LIMIT_S:.0f} s")
        return left


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_THREADS:
        env[var] = "1"
    env.pop("EXCAL_SEED", None)
    return env


def run_unit(unit, seed, deadline, trace=0, setup_only=False, extra=()):
    """Run one unit in a fresh interpreter.

    Returns ((set-up wall s, normalized set-up s), result); set-up runs
    from process start to the READY line.
    """
    cmd = [sys.executable, str(HERE / "unit.py"), *unit, "--seed", str(seed),
           "--trace", str(trace), *extra]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=child_env(), cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup_wall = time.perf_counter() - t0
        out, err = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"unit {' '.join(unit)} did not finish in time")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        tail = (err or "").strip().splitlines()[-3:]
        raise BenchError(f"unit {' '.join(unit)} exited {proc.returncode}: {' | '.join(tail)}")
    result = json.loads(out.strip().splitlines()[-1])
    setup = (setup_wall, setup_wall * PROBE_NOMINAL_S / result["setup_probe_s"])
    return setup, result


def run_rep(units, seed, deadline, trace=0, tag="unit"):
    """One repetition: its units in turn, each in its own process."""
    rep = {"setup": [], "wall_s": 0.0, "norm_wall_s": 0.0, "attempted": 0, "failed": 0,
           "problems": [], "latencies_ms": [], "norm_latencies_ms": [], "probe_ms": [],
           "rss_kb": 0, "digests": [], "layers": {}}
    for i, unit in enumerate(units):
        extra = ()
        if trace:
            OUT.mkdir(exist_ok=True)
            extra = ("--spans", str(OUT / f"spans-{tag}-{i}.npz"))
        setup, res = run_unit(unit, seed, deadline, trace=trace, extra=extra)
        rep["setup"].append(setup)
        for key in ("wall_s", "norm_wall_s", "attempted", "failed"):
            rep[key] += res[key]
        for key in ("problems", "latencies_ms", "norm_latencies_ms"):
            rep[key] += res[key]
        rep["probe_ms"].append(res["probe_ms"])
        rep["rss_kb"] = max(rep["rss_kb"], res["rss_kb"])
        rep["digests"].append(res["digest"])
        rep["backend"] = res["backend"]
        for key, value in res.get("layers", {}).items():
            rep["layers"][key] = rep["layers"].get(key, 0) + value
    return rep


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(-(-q * len(ordered) // 100)) - 1))]


def measure(workload, seed, seconds, deadline):
    """Untraced: set-up samples, then repetitions until `seconds` is used."""
    units = WORKLOADS[workload]
    tail = TAIL_PERCENTILE[workload]
    setup = []
    while len(setup) < SETUP_SAMPLES - len(units):
        unit = units[len(setup) % len(units)]
        setup.append(run_unit(unit, seed, deadline, setup_only=True)[0])
    reps = []
    t0 = time.monotonic()
    while True:
        t_rep = time.monotonic()
        reps.append(run_rep(units, seed, deadline))
        took = time.monotonic() - t_rep
        if time.monotonic() - t0 + took > seconds:
            break
    setup += [s for r in reps for s in r["setup"]]
    attempted = sum(r["attempted"] for r in reps)
    lat = [x for r in reps for x in r["latencies_ms"]]
    norm_lat = [x for r in reps for x in r["norm_latencies_ms"]]
    metrics = {
        "norm_wall_s": statistics.median(r["norm_wall_s"] for r in reps),
        "norm_points_per_s": attempted / sum(r["norm_wall_s"] for r in reps),
        "setup_s": statistics.median(norm for _, norm in setup),
        "peak_rss_mb": max(r["rss_kb"] for r in reps) / 1024.0,
        "norm_latency_p50_ms": percentile(norm_lat, 50),
        "norm_latency_tail_ms": percentile(norm_lat, tail),
    }
    wall_p99 = percentile(lat, 99)
    info = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "points_per_s": (attempted / sum(r["wall_s"] for r in reps), "1/s"),
        "setup_wall_s": (statistics.median(wall for wall, _ in setup), "s"),
        "latency_p50_ms": (percentile(lat, 50), "ms"),
        "latency_p99_ms": (wall_p99, "ms"),
        "probe_ms": (statistics.median(p for r in reps for p in r["probe_ms"]), "ms"),
        "repetitions": (len(reps), "count"),
        "setup_samples": (len(setup), "count"),
        "latency_samples": (len(lat), "count"),
        "latency_samples_beyond_p99": (sum(1 for x in lat if x > wall_p99), "count"),
        "tail_percentile": (tail, "percent"),
        "latency_samples_beyond_tail": (
            sum(1 for x in norm_lat if x > metrics["norm_latency_tail_ms"]), "count"),
    }
    return metrics, reps, info


def traced(workload, seed, deadline):
    """One untraced and one traced repetition of the same inputs."""
    units = WORKLOADS[workload]
    plain = run_rep(units, seed, deadline)
    rep = run_rep(units, seed, deadline, trace=1, tag=workload)
    raw = dict(rep["layers"])
    busy = rep["wall_s"]
    calls = raw["geometry.context.calls"]
    raw["geometry.context.hit_ratio"] = 1.0 - raw["geometry.context.built"] / calls if calls else 0.0
    for layer in spans.ALL_LAYERS:
        raw[f"{layer}.share"] = raw[f"{layer}.self_s"] / busy
    raw["trace.overhead_s"] = rep["norm_wall_s"] - plain["norm_wall_s"]
    metrics = {name: raw[name] for name in PER_LAYER}
    return metrics, [plain, rep], {
        "traced_wall_s": (busy, "s"), "untraced_wall_s": (plain["wall_s"], "s"),
        "traced_norm_wall_s": (rep["norm_wall_s"], "s"),
        "untraced_norm_wall_s": (plain["norm_wall_s"], "s"),
    }


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("share", "ratio")):
        return "ratio"
    if name.endswith("bytes_computed"):
        return "bytes"
    return "count"


def provenance(seed, backend):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "excal").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": backend,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {var: "1" for var in BLAS_THREADS},
        "seed": seed,
    }


def run_workload(workload, seed, seconds, trace, deadline):
    if trace:
        metrics, reps, info = traced(workload, seed, deadline)
    else:
        metrics, reps, info = measure(workload, seed, seconds, deadline)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    result = {
        "workload": workload,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems[:10],
        "metrics": {k: {"value": v, "unit": END_TO_END.get(k) or unit_of(k)}
                    for k, v in metrics.items()},
        "info": {k: {"value": v, "unit": u} for k, (v, u) in info.items()},
        "report_sha256": reps[-1]["digests"],
        "provenance": provenance(seed, reps[-1].get("backend")),
    }
    print(f"== {workload}  seed={seed}  trace={trace}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_ratio':40s} {result['fail_ratio']:>16.6g} ({failed}/{attempted})")
    for key, (value, unit) in info.items():
        print(f"  {key:40s} {value:>16.6g} {unit}  (not gated)")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(f"  provenance: {json.dumps(result['provenance'])}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def selftest(seed=1):
    """Run a small version of each workload twice, traced, with one seed:
    the deterministic counts and the report digest must repeat."""
    deadline = Deadline(HARD_LIMIT_S)
    ok = True
    for workload, units in SMALL.items():
        runs = [run_rep(units, seed, deadline, trace=1, tag=f"selftest-{workload}")
                for _ in range(2)]
        counts = [{k: r["layers"][k] for k in DETERMINISTIC_COUNTS} for r in runs]
        digests = [r["digests"] for r in runs]
        same = counts[0] == counts[1] and digests[0] == digests[1]
        clean = all(r["failed"] == 0 for r in runs)
        ok = ok and same and clean
        print(f"{workload}: counts {counts[0]} repeat={counts[0] == counts[1]}")
        print(f"{workload}: report sha256 {digests[0]} repeat={digests[0] == digests[1]}"
              f" failed={[r['failed'] for r in runs]}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "excal" / "__init__.py").is_file():
        print(f"error: no excal sources under {SRC}; run from an excal checkout",
              file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return selftest(args.seed)
        if args.workload is None:
            ap.error("--workload is required")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, args.trace,
                                        Deadline(HARD_LIMIT_S)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
