"""Riemannian charts: metric jets, Christoffel symbols, frames, curvature.

A Geometry is a single coordinate chart with expression-valued metric
entries, a sampling box with optional exclusion predicate, and optional
structure tensors (J, phi, xi, eta, theta).  All evaluation goes through
per-point ChartContext objects that cache metric/Christoffel/frame jets,
since identity checks revisit the same sampled points many times.
"""

import itertools
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import sexpr
from .alt import AltValue, VecAltValue
from .errors import ConfigError, PointExcluded, SingularMetric
from .jets import jet_apply, jet_const, jet_diff, scalar_value
from .prng import SplitMix64

CONFIG_VERSION = "excal-config v1"

# Chart contexts kept per chart, least recently used dropped first. A built-in
# run reuses 40 per chart (20 points at jet orders 0 and 2) and a 50-point
# config check 50, revisited in one order, so fewer slots miss every time; 128
# covers both with room and bounds a stream of one-point requests.
CONTEXT_CACHE_SIZE = 128
SAMPLE_ATTEMPTS = 10000  # draws sample_points may make before giving up

# The structure tensors a chart may carry, in config order, with their
# shapes: an endomorphism is an n x n matrix of expressions (row b, column
# c maps e_c to e_b), a vector or a 1-form a list of n expressions.
STRUCTURES = {
    "J": "endomorphism",
    "phi": "endomorphism",
    "xi": "vector",
    "eta": "form",
    "theta": "form",
}


def _map_structure(name, spec, fn):
    """Apply fn to each expression of a structure tensor, keeping its shape."""
    if STRUCTURES[name] == "endomorphism":
        return [[fn(e) for e in row] for row in spec]
    return [fn(e) for e in spec]


_field_serial = itertools.count()


@dataclass
class FormField:
    """A degree-k differential form with expression coefficients."""

    degree: int
    coeffs: dict  # increasing 0-based multi-index tuple -> Expr

    def __post_init__(self):
        # unique id for per-context value caching (object ids can be reused)
        self._serial = next(_field_serial)

    def at(self, ctx):
        """Evaluate to an AltValue with jet coefficients (cached per context)."""
        return ctx._memo(("field", self._serial), lambda: self._eval(ctx))

    def _eval(self, ctx):
        out = {}
        for key, e in self.coeffs.items():
            out[key] = sexpr.eval_jet(e, ctx.p, ctx.order)
        return AltValue(ctx.geometry.n, self.degree, out)


@dataclass
class VecFormField:
    """A tangent-valued degree-k form field."""

    degree: int
    comps: list  # n FormFields of shared degree

    def at(self, ctx):
        return VecAltValue(
            ctx.geometry.n, self.degree, [c.at(ctx) for c in self.comps]
        )


@dataclass
class Geometry:
    n: int
    coord_names: list
    metric: list  # n x n nested list of Expr
    domain: list  # per-coordinate [lo, hi]
    exclude: Optional[object] = None  # Expr; point valid iff expr > 0
    structures: dict = field(default_factory=dict)
    forms: dict = field(default_factory=dict)  # name -> FormField
    name: str = "chart"

    def __post_init__(self):
        self._ctx_cache = OrderedDict()  # (p, order) -> ChartContext, LRU

    def parse_expr(self, src):
        return sexpr.parse(src, self.coord_names)

    def in_domain(self, p):
        if len(p) != self.n:
            return False
        for x, (lo, hi) in zip(p, self.domain):
            if not lo <= x <= hi:
                return False
        if self.exclude is not None and sexpr.eval_value(self.exclude, p) <= 0:
            return False
        return True

    def check_point(self, p):
        if not self.in_domain(p):
            raise PointExcluded(f"point {p} outside domain of chart {self.name!r}")

    def context(self, p, order):
        key = (tuple(p), order)
        ctx = self._ctx_cache.get(key)
        if ctx is None:
            ctx = self._ctx_cache[key] = ChartContext(self, tuple(p), order)
            if len(self._ctx_cache) > CONTEXT_CACHE_SIZE:
                self._ctx_cache.popitem(last=False)
        else:
            self._ctx_cache.move_to_end(key)
        return ctx


class ChartContext:
    """Cached jet data for one (geometry, point, order) triple."""

    def __init__(self, geometry, p, order):
        geometry.check_point(p)
        self.geometry = geometry
        self.p = p
        self.order = order
        self._cache = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    # -- metric ----------------------------------------------------------

    def g(self):
        return self._memo("g", lambda: _metric_jets(self.geometry, self.p, self.order))

    def g_inv(self):
        return self._memo("g_inv", lambda: _invert_jets(self.g()))

    def g_value(self):
        return np.array([[e.value for e in row] for row in self.g()])

    def gamma(self):
        """Christoffel jets of order one less than the metric jets."""
        return self._memo("gamma", lambda: _christoffel_jets(self.g(), self.g_inv()))

    def frame(self, descending=False):
        key = ("frame", descending)
        return self._memo(key, lambda: _gram_schmidt(self.g(), descending))

    def curvature(self):
        """R[i][j][k][l] jets: coefficient of e_l in R(e_i, e_j) e_k."""
        return self._memo("curv", lambda: _curvature_jets(self.gamma()))

    # -- fields ----------------------------------------------------------

    def structure(self, name):
        return self._memo(("struct", name), lambda: self._eval_structure(name))

    def _eval_structure(self, name):
        if name not in STRUCTURES:
            raise ConfigError(f"unknown structure tensor {name!r}")
        ev = lambda e: sexpr.eval_jet(e, self.p, self.order)
        vals = _map_structure(name, self.geometry.structures[name], ev)
        if STRUCTURES[name] == "endomorphism":
            return VecAltValue.from_endomorphism(vals)
        if STRUCTURES[name] == "vector":
            return VecAltValue.from_vector(vals)
        return AltValue(self.geometry.n, 1, {(i,): v for i, v in enumerate(vals)})


# -- metric machinery ------------------------------------------------------


def _metric_jets(G, p, order):
    g = [
        [sexpr.eval_jet(G.metric[i][j], p, order) for j in range(G.n)]
        for i in range(G.n)
    ]
    vals = np.array([[e.value for e in row] for row in g])
    if not np.allclose(vals, vals.T, atol=1e-12, rtol=0.0):
        raise SingularMetric(f"metric not symmetric at {p}: {vals}")
    try:
        eig = np.linalg.eigvalsh(vals)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(str(exc))
    if eig.min() <= 0:
        raise SingularMetric(f"metric not positive-definite at {p} (eigmin={eig.min()})")
    return g


def _invert_jets(g):
    """Gauss-Jordan with partial pivoting on values, over jets."""
    n = len(g)
    a = [row[:] for row in g]
    order = a[0][0].order
    nv = a[0][0].n_vars
    b = [
        [jet_const(1.0 if i == j else 0.0, nv, order) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col].value))
        if abs(a[piv][col].value) < 1e-300:
            raise SingularMetric("metric matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = a[col][col].reciprocal()
        a[col] = [e * inv for e in a[col]]
        b[col] = [e * inv for e in b[col]]
        for r in range(n):
            if r == col:
                continue
            f = a[r][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
            b[r] = [x - f * y for x, y in zip(b[r], b[col])]
    return b


def metric_inner(g, u, v):
    """g(u, v) = sum_i sum_j g[i][j] u[i] v[j], summed with i outermost."""
    n = len(g)
    acc = 0.0
    for i in range(n):
        for j in range(n):
            acc = acc + g[i][j] * u[i] * v[j]
    return acc


def metric_lower(g, v):
    """The components sum_b g[c][b] v[b] of g(v, .), each summed over b in order."""
    n = len(g)
    out = []
    for c in range(n):
        acc = 0.0
        for b in range(n):
            acc = acc + g[c][b] * v[b]
        out.append(acc)
    return out


def _christoffel_jets(g, g_inv):
    n = len(g)
    dg = [[[jet_diff(g[i][j], l) for l in range(n)] for j in range(n)] for i in range(n)]
    order = dg[0][0][0].order
    ginv = [[e.truncate(order) for e in row] for row in g_inv]
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            first_kind = [dg[j][l][i] + dg[i][l][j] - dg[i][j][l] for l in range(n)]
            for k, acc in enumerate(metric_lower(ginv, first_kind)):
                val = acc * 0.5
                gamma[k][i][j] = val
                gamma[k][j][i] = val
    return gamma


def _gram_schmidt(g, descending=False):
    """Orthonormal frame jets from the coordinate frame.

    Returns n tangent vectors as VecAltValue degree 0 with jet components,
    in the order they were orthonormalized.
    """
    n = len(g)
    nv = g[0][0].n_vars
    order = g[0][0].order
    idx = list(range(n - 1, -1, -1)) if descending else list(range(n))
    frame = []
    for a in idx:
        v = [jet_const(1.0 if i == a else 0.0, nv, order) for i in range(n)]
        for u in frame:
            c = metric_inner(g, v, u)
            v = [vi - c * ui for vi, ui in zip(v, u)]
        nrm = metric_inner(g, v, v)
        if nrm.value <= 0:
            raise SingularMetric("Gram-Schmidt hit a nonpositive norm")
        inv = jet_apply("sqrt", nrm).reciprocal()
        frame.append([vi * inv for vi in v])
    return [VecAltValue.from_vector(v) for v in frame]


def _curvature_jets(gamma):
    """R(e_i, e_j) e_k = sum_l R[i][j][k][l] e_l, from Christoffel jets."""
    n = len(gamma)
    dgam = [
        [[[jet_diff(gamma[l][i][j], m) for m in range(n)] for j in range(n)] for i in range(n)]
        for l in range(n)
    ]
    order = dgam[0][0][0][0].order
    gam = [[[e.truncate(order) for e in row] for row in mat] for mat in gamma]
    R = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    acc = dgam[l][j][k][i] - dgam[l][i][k][j]
                    for m in range(n):
                        acc = acc + gam[m][j][k] * gam[l][i][m] - gam[m][i][k] * gam[l][j][m]
                    R[i][j][k][l] = acc
    return R


# -- convenience evaluation surface ----------------------------------------


def metric_at(G, p, order):
    ctx = G.context(p, order)
    return ctx.g(), ctx.g_inv()


def christoffel(G, p, order):
    ctx = G.context(p, order + 1)
    return ctx.gamma()


def orthonormal_frame(G, p, descending=False):
    ctx = G.context(p, 0)
    return [
        [scalar_value(c) for c in v.as_vector()] for v in ctx.frame(descending=descending)
    ]


def curvature(G, p):
    ctx = G.context(p, 2)
    R = ctx.curvature()
    n = G.n
    return [
        [[[R[i][j][k][l].value for l in range(n)] for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


# -- point sampling ---------------------------------------------------------


def sample_points(G, count, seed):
    """Deterministic splitmix64 sampling in the domain box, rejecting
    excluded points."""
    rng = SplitMix64(seed)
    pts = []
    attempts = 0
    while len(pts) < count:
        p = tuple(rng.uniform(lo, hi) for lo, hi in G.domain)
        attempts += 1
        if attempts > SAMPLE_ATTEMPTS:
            raise ConfigError(f"domain of {G.name!r} rejects too many samples")
        if G.in_domain(p):
            pts.append(p)
    return pts


# -- config schema (excal-config v1) ----------------------------------------


def _key_to_tuple(key, n):
    try:
        parts = tuple(int(t) for t in key.split(","))
    except ValueError:
        raise ConfigError(f"bad multi-index key {key!r}")
    if any(not 1 <= t <= n for t in parts) or list(parts) != sorted(set(parts)):
        raise ConfigError(f"multi-index {key!r} must be ascending 1-based indices <= {n}")
    return tuple(t - 1 for t in parts)


def _tuple_to_key(t):
    return ",".join(str(i + 1) for i in t)


def _array(value, what, length=None):
    """A JSON array field, of the given length if one is given."""
    if not isinstance(value, (list, tuple)) or length is not None and len(value) != length:
        size = "" if length is None else f" of {length}"
        raise ConfigError(f"{what} must be a list{size}, got {value!r}")
    return value


def _object(value, what):
    """An optional JSON object field; absent or null reads as empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    return value


def _number(value, what, convert=float):
    """convert(value), or a ConfigError naming the field."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}")


def load_config(doc):
    """Build a Geometry (with named forms) from a parsed JSON document; a
    malformed field raises ConfigError naming it."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    version = doc.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version!r}")
    try:
        n = _number(doc["dim"], "dim", int)
        coords = list(_array(doc["coords"], "coords"))
        metric_src = _array(doc["metric"], "metric")
        domain = [
            [_number(b, "domain bound") for b in _array(iv, "domain interval", 2)]
            for iv in _array(doc["domain"], "domain")
        ]
    except KeyError as exc:
        raise ConfigError(f"config missing field {exc}")
    if len(coords) != n or len(domain) != n:
        raise ConfigError("coords/domain length must equal dim")
    for i, c in enumerate(coords):
        if (not isinstance(c, str) or not c.isidentifier() or c in coords[:i]
                or c in sexpr.FUNCTIONS or c in sexpr.CONSTANTS):
            raise ConfigError(
                f"coordinate name {c!r} must be a distinct identifier that is "
                "not a function or constant name"
            )
    parse = lambda s: sexpr.parse(str(s), coords)
    if len(metric_src) != n or any(len(_array(r, "metric row")) != n for r in metric_src):
        raise ConfigError("metric must be an n x n matrix of expressions")
    metric = [[parse(e) for e in row] for row in metric_src]
    exclude = parse(doc["exclude"]) if doc.get("exclude") else None
    structures = {}
    for name, spec in _object(doc.get("structures"), "structures").items():
        if name not in STRUCTURES:
            raise ConfigError(f"unknown structure tensor {name!r}")
        spec = _array(spec, f"structure tensor {name!r}")
        rows = spec if STRUCTURES[name] == "endomorphism" else [spec]
        if any(len(_array(row, f"row of {name!r}")) != n for row in rows) or len(spec) != n:
            raise ConfigError(f"structure tensor {name!r} must have {n} entries per row")
        structures[name] = _map_structure(name, spec, parse)
    forms = {}
    for fname, fdoc in _object(doc.get("forms"), "forms").items():
        fdoc = _object(fdoc, f"form {fname!r}")
        k = _number(fdoc.get("degree"), f"degree of form {fname!r}", int)
        coeffs = {}
        for key, src in _object(fdoc.get("coeffs"), f"coeffs of form {fname!r}").items():
            t = _key_to_tuple(key, n) if key else ()
            if len(t) != k:
                raise ConfigError(f"form {fname!r}: key {key!r} has wrong length for degree {k}")
            coeffs[t] = parse(src)
        forms[fname] = FormField(k, coeffs)
    return Geometry(
        n=n,
        coord_names=coords,
        metric=metric,
        domain=domain,
        exclude=exclude,
        structures=structures,
        forms=forms,
        name=doc.get("name", "chart"),
    )


def emit_config(G):
    """Serialize a Geometry as an excal-config v1 document (stable order)."""
    doc = {"version": CONFIG_VERSION, "name": G.name, "dim": G.n}
    doc["coords"] = list(G.coord_names)
    doc["metric"] = [[sexpr.pretty(e) for e in row] for row in G.metric]
    doc["domain"] = [list(iv) for iv in G.domain]
    if G.exclude is not None:
        doc["exclude"] = sexpr.pretty(G.exclude)
    if G.structures:
        doc["structures"] = {
            name: _map_structure(name, G.structures[name], sexpr.pretty)
            for name in STRUCTURES
            if name in G.structures
        }
    if G.forms:
        fd = {}
        for fname in sorted(G.forms):
            f = G.forms[fname]
            fd[fname] = {
                "degree": f.degree,
                "coeffs": {
                    _tuple_to_key(t): sexpr.pretty(e)
                    for t, e in sorted(f.coeffs.items())
                },
            }
        doc["forms"] = fd
    return doc


def dumps_config(G):
    return json.dumps(emit_config(G), indent=2)
