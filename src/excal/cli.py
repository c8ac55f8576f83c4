"""Command-line entry point: run identity suites, evaluate operator
expressions at points, and emit catalog configs.

Exit codes: 0 all checks pass, 1 identity failure, 2 usage/config error.
EXCAL_SEED overrides the default seed; an explicit --seed flag wins.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import catalog, opexpr, verifier
from .alt import AltValue, VecAltValue
from .compare import DEFAULT_ATOL, DEFAULT_RTOL
from .errors import ExcalError, ExprSyntaxError, NonFiniteValue, UnknownIdentifier
from .geometry import _tuple_to_key, dumps_config, load_config
from .jets import MAX_ORDER
from .operators import value_of


def _default_seed():
    env = os.environ.get("EXCAL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"EXCAL_SEED must be an integer, got {env!r}")
    return verifier.DEFAULT_SEED


class UsageError(Exception):
    """Raised for bad flags or unreadable/invalid configs (exit code 2)."""


def _read_config(path):
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read config {path!r}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc.msg} at offset {exc.pos}")
    return load_config(doc)


def _load_geometry(path):
    """A positional geometry argument: config path, '-', or catalog name."""
    if path == "-" or os.path.exists(path):
        return _read_config(path)
    try:
        return catalog.builtin(path).geometry
    except ExcalError:
        raise UsageError(
            f"{path!r} is neither a readable config file nor a catalog entry"
        )


def _print_value(val, out):
    """Print each coefficient value; a non-finite one raises NonFiniteValue
    before anything is printed."""
    if isinstance(val, VecAltValue):
        parts = [(f"e{b + 1} | ", comp) for b, comp in enumerate(val.comps)]
    elif isinstance(val, AltValue):
        parts = [("", val)]
    else:
        raise UsageError("expression did not evaluate to a form value")
    lines = []
    for prefix, alt in parts:
        items = sorted(value_of(alt).coeffs.items())
        if not items:
            lines.append(f"{prefix}0\n")
        for key, c in items:
            label = f"{prefix}{_tuple_to_key(key) or '()'}"
            if not math.isfinite(c):
                raise NonFiniteValue(f"non-finite value at {label}: {c!r}")
            lines.append(f"{label}: {c:.17g}\n")
    out.writelines(lines)


def _report_lines(reports, out):
    for r in reports:
        status = "PASS" if r["pass"] else "FAIL"
        if r["expected_fail"]:
            status = "XPASS" if r["pass"] else "XFAIL"
        out.write(
            f"{status:5s} {r['check']}  max_abs_err={r['max_abs_err']:.3e}  "
            f"max_rel_err={r['max_rel_err']:.3e}\n"
        )
    n_pass = sum(1 for r in reports if r["pass"])
    out.write(f"{n_pass}/{len(reports)} checks passed\n")


def _emit_json(reports, args, out):
    doc = {
        "version": verifier.REPORT_VERSION,
        "seed": args.seed,
        "tolerance": {"atol": args.tol_abs, "rtol": args.tol_rel},
        "pass": all(r["pass"] for r in reports),
        "reports": reports,
    }
    json.dump(doc, out, indent=2)
    out.write("\n")


def cmd_check(args):
    if args.builtin is not None and args.config is not None:
        raise UsageError("give either a config path or --builtin, not both")
    if args.builtin is None and args.config is None:
        raise UsageError("check needs a config path or --builtin <suite>")
    kw = dict(
        seed=args.seed,
        atol=args.tol_abs,
        rtol=args.tol_rel,
        n_points=args.points,
    )
    if args.builtin is not None:
        reports = verifier.suite(args.builtin, **kw)
    else:
        G = _read_config(args.config)
        reports = verifier.inline_checks(G, **kw)
    if args.report == "json":
        _emit_json(reports, args, sys.stdout)
    else:
        _report_lines(reports, sys.stdout)
    return 0 if all(r["pass"] for r in reports) else 1


def cmd_eval(args):
    G = _load_geometry(args.config)
    try:
        point = tuple(float(t) for t in args.at.split(","))
    except ValueError:
        raise UsageError(f"--at must be comma-separated numbers, got {args.at!r}")
    if len(point) != G.n:
        raise UsageError(f"--at needs {G.n} coordinates, got {len(point)}")
    order = args.order if args.order is not None else min(3, MAX_ORDER)
    try:
        # an overflow surfaces below as NonFiniteValue, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            ctx = G.context(point, order)
            val = opexpr.evaluate_str(args.expr, ctx, {})
    except (ExprSyntaxError, UnknownIdentifier) as exc:
        sys.stderr.write(f"error: {exc}\n")
        if exc.offset is not None:
            sys.stderr.write(f"  {args.expr}\n  {' ' * exc.offset}^\n")
        return 2
    _print_value(val, sys.stdout)
    return 0


def cmd_catalog(args):
    if args.list:
        for pattern, desc in catalog.FAMILIES:
            sys.stdout.write(f"{pattern:20s} {desc}\n")
        return 0
    entry = catalog.builtin(args.emit)
    G = entry.geometry
    sys.stdout.write(dumps_config(G))
    sys.stdout.write("\n")
    return 0


def _tolerance(text):
    """A --tol-abs or --tol-rel value: a finite number >= 0."""
    v = float(text)
    if not (math.isfinite(v) and v >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return v


def build_parser():
    parser = argparse.ArgumentParser(
        prog="excal",
        description="numerical exterior-calculus identity checker",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run identity checks")
    p_check.add_argument("config", nargs="?", help="config path or '-' for stdin")
    p_check.add_argument("--builtin", metavar="SUITE", help="built-in suite name or 'all'")
    p_check.add_argument("--report", choices=("text", "json"), default="text")
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--points", type=int, default=None)
    p_check.add_argument("--tol-abs", type=_tolerance, default=DEFAULT_ATOL)
    p_check.add_argument("--tol-rel", type=_tolerance, default=DEFAULT_RTOL)
    p_check.set_defaults(fn=cmd_check)

    p_eval = sub.add_parser("eval", help="evaluate an operator expression at a point")
    p_eval.add_argument("config", help="config path, '-' or catalog entry name")
    p_eval.add_argument("--expr", required=True)
    p_eval.add_argument(
        "--at", required=True, metavar="C1,C2,...",
        help="the point; write --at=-0.5,0.2 when the first coordinate is negative",
    )
    p_eval.add_argument("--order", type=int, default=None)
    p_eval.set_defaults(fn=cmd_eval)

    p_cat = sub.add_parser("catalog", help="list or emit built-in geometries")
    group = p_cat.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true")
    group.add_argument("--emit", metavar="NAME")
    p_cat.set_defaults(fn=cmd_catalog)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "seed", None) is None and args.command == "check":
        try:
            args.seed = _default_seed()
        except UsageError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
    try:
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ExcalError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
