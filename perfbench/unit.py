"""One measured unit of a workload, run in a fresh interpreter.

run.py starts this script once per repetition, so excal's per-process
caches (catalog entries, `Geometry._ctx_cache`) never carry over between
repetitions. The script imports excal, does the workload's set-up, prints
READY (run.py times set-up up to that line), runs the unit, judges its
outputs with judge.py and prints one JSON line with the results.

Tasks:
  suite   `excal check --builtin all` through excal.cli.main
  config  `excal check <config> --points N` through excal.cli.main
  eval    closed-loop requests of the headline identity at fresh points
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from itertools import combinations

import judge
from probe import PROBE_NOMINAL_S, Probe

import excal
from excal import cli, opexpr

# Catalog entries `verifier.suite("all")` uses; set-up validates them once.
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
SUITE_CHECKS = 229
CONFIG_CHECKS = {"hopf_lck": 30, "sasakian_s3": 29}
EVAL_ENTRIES = ("hopf_lck", "sasakian_s3", "sphere2", "flat_kahler(2)")
EVAL_ORDER = 3
LHS = "comm(delta, eps(omega), beta)"


def setup(args):
    if args.task == "suite":
        return [excal.builtin(name) for name in SUITE_ENTRIES]
    if args.task == "config":
        with open(args.config) as fh:
            return excal.load_config(json.load(fh))
    return {name: excal.builtin(name).geometry for name in EVAL_ENTRIES}


class Clock:
    """Times a unit's requests and probes the host's speed while they run.

    Each request is probed when it starts and when it ends, and `tick`
    probes inside it at most every TICK_S. A request's normalized time is
    its wall time rescaled by the mean of its probes. Probe time, and any
    other harness work passed to `exclude`, is kept out of every reported
    time, and out of the traced spans when there is a tracer.
    """

    TICK_S = 0.005

    def __init__(self, probe, tracer=None):
        self.probe = probe
        self.tracer = tracer
        self.walls = []
        self.norms = []
        self.probes = []
        self.excluded_s = 0.0
        self.active = None
        self.t_first = time.perf_counter()

    def exclude(self, seconds):
        self.excluded_s += seconds
        if self.tracer:
            self.tracer.exclude(seconds)

    def _sample(self):
        t0 = time.perf_counter()
        p = self.probe()
        self.probes.append(p)
        if self.active is not None:
            self.active.append(p)
        self.last = time.perf_counter()
        self.exclude(self.last - t0)

    def start(self):
        self.active = []
        self._sample()
        self.req_excluded_s = self.excluded_s
        self.t0 = self.last

    def tick(self):
        if self.active is not None and time.perf_counter() - self.last >= self.TICK_S:
            self._sample()

    def stop(self):
        wall = time.perf_counter() - self.t0 - (self.excluded_s - self.req_excluded_s)
        self._sample()
        self.walls.append(wall)
        self.norms.append(wall * PROBE_NOMINAL_S / statistics.mean(self.active))
        self.active = None

    def result(self):
        """Call once, right after the last request."""
        wall = time.perf_counter() - self.t_first - self.excluded_s
        if not self.probes:
            self._sample()
        between = wall - sum(self.walls)  # outside requests: parsing, report
        typical = PROBE_NOMINAL_S / statistics.median(self.probes)
        return {
            "wall_s": wall,
            "norm_wall_s": sum(self.norms) + between * typical,
            "latencies_ms": [1e3 * w for w in self.walls],
            "norm_latencies_ms": [1e3 * w for w in self.norms],
            "probe_ms": 1e3 * statistics.median(self.probes),
        }


def probe_inside_requests(clock):
    """Let the clock probe at each chart-context lookup, which excal makes
    once per point, so long requests are probed while they run."""
    inner = getattr(excal.Geometry, "context", None)
    if inner is None:
        return

    def context(self, *args, **kwargs):
        clock.tick()
        return inner(self, *args, **kwargs)

    excal.Geometry.context = context


def time_checks(clock):
    """Time each verifier.run_check call, one per check: the request of the
    CLI workloads."""
    from excal import verifier

    inner = verifier.run_check

    def timed(check):
        clock.start()
        try:
            return inner(check)
        finally:
            clock.stop()

    verifier.run_check = timed


def judge_comparisons(clock):
    """Judge every value pair the verifier compares, with judge.judge_pair.

    Wraps verifier.run_check and compare.alt_errors (wherever excal
    imported it) and returns the log judge.judge_report reads: per check
    run, (check id, [(ok, abs_err), ...]). Only the outermost alt_errors
    call is judged, and the judging time is excluded from the clock.
    """
    import spans
    from excal import compare, verifier

    log = []
    current = [None]
    depth = [0]
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
            t0 = time.perf_counter()
            check, pairs = current[0]
            pairs.append(judge.judge_pair(lhs, rhs, check.atol, check.rtol))
            clock.exclude(time.perf_counter() - t0)
        depth[0] += 1
        try:
            return inner_errors(lhs, rhs)
        finally:
            depth[0] -= 1

    verifier.run_check = run_check
    spans.rebind(inner_errors, alt_errors)
    return log


def poison_values():
    """Make every value the verifier evaluates NaN (a test of the judge):
    compare.alt_errors folds the NaN error to 0, so the report passes."""
    from excal import verifier

    inner = verifier._side

    def side(spec, ctx, env):
        value = inner(spec, ctx, env)
        if isinstance(value, (list, tuple)):
            return [v.scale(math.nan) for v in value]
        return value.scale(math.nan)

    verifier._side = side


def run_cli(argv, expected_checks, negative_controls, clock):
    out = io.StringIO()
    comparisons = judge_comparisons(clock)
    time_checks(clock)
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    result = clock.result()
    text = out.getvalue()
    verdict = judge.judge_report(text, expected_checks, comparisons, negative_controls)
    problems = list(verdict.problems)
    failed = verdict.failed
    if code != 0:
        problems.append(f"excal check exited {code}")
        failed = max(failed, 1)
    stripped = "".join(l for l in text.splitlines(True) if '"wall_time_s"' not in l)
    result.update(
        attempted=verdict.attempted,
        failed=failed,
        problems=problems[:5],
        digest=hashlib.sha256(stripped.encode()).hexdigest(),
    )
    return result


def _poly_form(G, k, rng):
    """A degree-k form whose coefficients are random quadratics."""
    names = G.coord_names
    coeffs = {}
    for I in combinations(range(G.n), k):
        terms = [repr(rng.uniform(-1.0, 1.0))]
        terms += [f"{rng.uniform(-1.0, 1.0)!r}*{v}" for v in names]
        terms += [
            f"{rng.uniform(-1.0, 1.0)!r}*{names[a]}*{names[b]}"
            for a in range(G.n)
            for b in range(a, G.n)
        ]
        coeffs[I] = G.parse_expr(" + ".join(terms))
    return excal.FormField(k, coeffs)


def _draw_point(G, rng):
    for _ in range(10000):
        p = tuple(rng.uniform(lo, hi) for lo, hi in G.domain)
        if G.in_domain(p):
            return p
    raise RuntimeError(f"cannot draw a point in the domain of {G.name}")


def eval_requests(geoms, seed, count):
    """Requests cycling over every (chart, deg omega, deg beta) whose result
    degree p + q - 1 fits the chart, each at a fresh point."""
    rng = random.Random(seed)
    combos = [
        (name, p, q)
        for name, G in geoms.items()
        for p in (1, 2)
        for q in range(0, G.n - p + 2)
    ]
    forms = {
        (name, role, k): _poly_form(G, k, rng)
        for name, G in geoms.items()
        for role in ("omega", "beta")
        for k in range(G.n + 1)
    }
    out = []
    for i in range(count):
        name, p, q = combos[i % len(combos)]
        G = geoms[name]
        out.append((G, _draw_point(G, rng), forms[name, "omega", p], forms[name, "beta", q], p))
    return out


def run_eval(requests, flip_rhs, clock):
    """Closed loop, one client: each request starts when the last ends."""
    results = []
    for G, point, omega, beta, p in requests:
        clock.start()
        try:
            ctx = G.context(point, EVAL_ORDER)
            lhs = opexpr.evaluate_str(LHS, ctx, {"omega": omega, "beta": beta})
            clock.tick()
            w, b = omega.at(ctx), beta.at(ctx)
            sign = -1.0 if p % 2 else 1.0
            eps_term = excal.wedge(excal.codiff(ctx, w), b)
            lie_term = excal.lie_vec(ctx, excal.sharp_field(ctx, w), b)
            clock.tick()
            rhs = eps_term - lie_term - excal.interior(excal.omega_diamond(ctx, w), b).scale(sign)
            results.append((lhs, -rhs if flip_rhs else rhs))
        except Exception as exc:  # a failed request is counted, not raised
            results.append(exc)
        clock.stop()
    result = clock.result()
    failed = 0
    problems = []
    digest = hashlib.sha256()
    for i, res in enumerate(results):
        if isinstance(res, Exception):
            ok, err = False, f"{type(res).__name__}: {res}"
        else:
            ok, err = judge.judge_pair(*res)
        digest.update(f"{i} {ok} {err!r}\n".encode())
        if not ok:
            failed += 1
            if len(problems) < 5:
                problems.append(f"request {i}: {err}")
    result.update(attempted=len(results), failed=failed, problems=problems,
                  digest=digest.hexdigest())
    return result


def layer_totals(tracer):
    """Additive per-layer quantities of the workload phase (run.py derives
    shares and ratios after summing them over a repetition's units)."""
    import spans

    summary = tracer.summarize(*tracer.phase_slice("workload"))
    setup_summary = tracer.summarize(*tracer.phase_slice("setup", "inputs"))
    mul0, built0 = tracer.marks["workload"][1], tracer.marks["workload"][2]

    def total(pick, field, source=summary):
        return sum(v[field] for name, v in source.items() if pick(name))

    def named(*names):
        return lambda n: n in names

    def layer(lay):
        return lambda n: n.split(".", 1)[0] == lay

    mul = [a - b for a, b in zip(tracer.mul, mul0)]
    out = {
        "jets.mul_coeffs.calls": mul[0],
        "jets.mul_coeffs.s": mul[1],
        "jets.mul_coeffs.terms": mul[2],
        "jets.mul_coeffs.bytes_computed": mul[3],
        "jets.self_s": mul[1],
        "geometry.context.built": tracer.contexts_built - built0,
        "catalog.builtin.s": total(named("catalog.builtin"), 2, setup_summary),
        "geometry.load_config.s": total(named("geometry.load_config"), 2, setup_summary),
    }
    for lay in spans.LAYERS:
        out[f"{lay}.self_s"] = total(layer(lay), 1)
        out[f"{lay}.calls"] = total(layer(lay), 3)
    groups = {
        "sexpr.parse": named("sexpr.parse"),
        "sexpr.eval_jet": named("sexpr.eval_jet"),
        "alt.wedge": named("alt.wedge"),
        "alt.interior": named("alt.interior"),
        "operators.codiff": named("operators.codiff"),
        "operators.ext_d": named("operators.ext_d"),
        "operators.lie_vec": named("operators.lie_vec"),
        "operators.nabla": lambda n: n.startswith("operators.nabla"),
        "operators.graded_comm": named("operators.graded_comm"),
        "geometry.context": named("geometry.Geometry.context"),
        "geometry.metric": named("geometry.ChartContext.g", "geometry.ChartContext.g_inv"),
        "geometry.christoffel": named("geometry.ChartContext.gamma"),
        "geometry.frame": named("geometry.ChartContext.frame"),
        "geometry.curvature": named("geometry.ChartContext.curvature"),
        "geometry.structure": named("geometry.ChartContext.structure"),
        "verifier.run_check": named("verifier.run_check"),
        "opexpr.evaluate_str": named("opexpr.evaluate_str"),
        "compare.alt_errors": named("compare.alt_errors"),
    }
    for group, pick in groups.items():
        out[f"{group}.calls"] = total(pick, 0)
        out[f"{group}.self_s"] = total(pick, 1)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--task", choices=("suite", "config", "eval"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--points", type=int)
    ap.add_argument("--config")
    ap.add_argument("--requests", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file to write the traced spans to")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--flip-rhs", action="store_true", help="negate the eval rhs")
    ap.add_argument("--nan-values", action="store_true",
                    help="make every value the CLI checks compare NaN")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.mark("setup")
    inputs = setup(args)
    print("READY", flush=True)
    probe = Probe()
    setup_probe_s = statistics.median(probe() for _ in range(5))
    if args.setup_only:
        print(json.dumps({"setup_probe_s": setup_probe_s}), flush=True)
        return 0
    if tracer:
        tracer.mark("inputs")
    if args.task == "eval":
        requests = eval_requests(inputs, args.seed, args.requests)
    if tracer:
        tracer.mark("workload")
    clock = Clock(probe, tracer)
    probe_inside_requests(clock)
    if args.nan_values:
        poison_values()
    if args.task == "suite":
        cli_argv = ["check", "--builtin", "all", "--seed", str(args.seed), "--report", "json"]
        if args.points:
            cli_argv += ["--points", str(args.points)]
        result = run_cli(cli_argv, SUITE_CHECKS, judge.NEGATIVE_CONTROLS, clock)
    elif args.task == "config":
        cli_argv = ["check", args.config, "--points", str(args.points),
                    "--seed", str(args.seed), "--report", "json"]
        result = run_cli(cli_argv, CONFIG_CHECKS[inputs.name], (), clock)
    else:
        result = run_eval(requests, args.flip_rhs, clock)
    result["setup_probe_s"] = setup_probe_s
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["backend"] = excal.backend_name()
    if tracer:
        result["layers"] = layer_totals(tracer)
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
