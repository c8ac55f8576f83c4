"""Riemannian charts: metric jets, Christoffel symbols, frames, curvature.

A Geometry is a single coordinate chart with expression-valued metric
entries, a sampling box with optional exclusion predicate, and optional
structure tensors (J, phi, xi, eta, theta).  All evaluation goes through
ChartContext objects, one per (points, jet order), cached per chart, since
the checks on a chart share their sampled points.  A context is the one
place points become jets: it builds its coordinate jets once, as
``coords``, each holding the coordinate at every point of the context
(jets' point rule), and every jet there is evaluated from them, so the
orders of everything derived follow from the jets rule.

Every (space, array) pair and form value a context gives ends in a point
axis (the monomial jets alone put it first), so one operator call
evaluates every point, and each point's value is the bits it has in a
context of that point alone.  The metric, the structure tensors and a
walked FormField are one expression walk per context, whatever the number
of points; only the metric's value tests run point by point, so that a
refusal names the first point that fails.

A context evaluates the metric entries once, as jets, into a (space,
array) pair with the Taylor axis before the point axis, and builds from it
pairs of the same form, each memoized: g^{-1} by a truncated Neumann
series about the value's inverse, the Christoffel symbols from the
metric's partials and one product with g^{-1}, and the curvature from
theirs and one product; alt.flat and alt.sharp lower and raise an index
with g and g^{-1}.  The orthonormal frame is built by Gram-Schmidt on
demand, with scalar jet arithmetic at every point at once, and not kept;
no operator reads it.
"""

import functools
import itertools
import json
import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import sexpr
from .alt import (AltValue, VecAltValue, _alt, _entry, _fill, _matmul, _partials, _Product,
                  _raise_first, _rows, _sum, _width)
from .errors import ConfigError, PointExcluded, SingularMetric
from .jets import jet_apply, jet_space, jet_var, monomial_jets, scalar_value
from .prng import SplitMix64

CONFIG_VERSION = "excal-config v1"
# the largest chart dimension a config may declare; the cost of a point
# doubles with each dimension, and the catalog builds nothing above 6
MAX_DIM = 6

# Chart contexts kept per chart, least recently used dropped first. A built-in
# run uses fewer than 30 per chart (its check points at jet orders 0 and 2,
# and the one-point contexts of catalog validation and of the checks that run
# point by point), and a stream of one-point requests makes one per request;
# 128 covers the first with room and bounds the second.
CONTEXT_CACHE_SIZE = 128
SAMPLE_ATTEMPTS = 10000  # draws sample_points may make before giving up
# Point lists sample_points keeps per chart, least recently used dropped
# first; the checks on a chart share one list, and the catalog draws another.
SAMPLE_CACHE_SIZE = 8

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


class FormField:
    """A degree-k differential form with expression coefficients.

    When every coefficient is a sum of c, c*x_a and (c*x_a)*x_b terms over
    one shared monomial list (sexpr.quadratic_terms), as random_form's are,
    the field is evaluated from a monomial table, built from the trees on
    first use or given by from_table: its coefficient jets at a context are
    one product of the table with the context's monomial jets
    (ChartContext.monomial_jets), a stack of per-point matrix products, which
    agrees with the walker to rounding.  Any other field, or a variable the
    chart lacks, evaluates each coefficient with sexpr.eval_jet once over
    the context's points; so does a point where the product overflows,
    which keeps the walker's NaN and inf bits while the other points keep
    the product's.
    """

    def __init__(self, degree, coeffs):
        self.degree = degree
        self._coeffs = coeffs  # increasing 0-based multi-index tuple -> Expr
        self._tables = {}
        # the field's value at each context, dropped when the context is
        self._values = weakref.WeakKeyDictionary()

    @classmethod
    def from_table(cls, degree, coord_names, C, monomials):
        """The field of the monomial table (C, monomials) on the chart with
        these coordinates, C[r, t] the coefficient of monomials[t] in basis
        row r.  Its coeffs are built when read: each key's left-to-right sum
        of (c*x_a)*x_b terms in monomial order, the shape quadratic_terms
        reads back as this table."""
        n = len(coord_names)
        field = cls(degree, lambda: _polynomials(degree, coord_names, C, monomials))
        field._tables[n] = (C, monomials)
        return field

    @property
    def coeffs(self):
        if callable(self._coeffs):
            self._coeffs = self._coeffs()
        return self._coeffs

    def at(self, ctx):
        """Evaluate to an AltValue with jet coefficients, kept by the field
        for as long as the context lives, so that a cached context keeps no
        field alive."""
        value = self._values.get(ctx)
        if value is None:
            value = self._values[ctx] = self._eval(ctx)
        return value

    def _poly_table(self, n):
        """The field's monomial table on n coordinates, (C, monomials) with
        C[r, t] the coefficient of monomials[t] in the key of basis row r;
        or () when it has none."""
        if n not in self._tables:
            self._tables[n] = _monomial_table(self.coeffs, self.degree, n)
        return self._tables[n]

    def _eval(self, ctx):
        n = ctx.geometry.n
        table = self._poly_table(n)
        if table:
            C, monomials = table
            with np.errstate(over="ignore", invalid="ignore"):
                c = (C @ ctx.monomial_jets(monomials)).transpose(1, 2, 0)
            finite = np.isfinite(c)
            if finite.all():
                # a copy, not a view, so the value keeps no second array object
                return _alt(n, self.degree, jet_space(n, ctx.order), c.copy())
        out = {key: sexpr.eval_jet(e, ctx.coords) for key, e in self.coeffs.items()}
        value = AltValue(n, self.degree, out)
        if table:  # the points whose product is finite keep it
            finite = finite.all(axis=(0, 1))
            value.c[..., finite] = c[..., finite]
        return value


def _polynomials(k, coord_names, C, monomials):
    """The coefficient trees of the degree-k monomial table (C, monomials)."""
    xs = [sexpr.Var(name, i) for i, name in enumerate(coord_names)]
    coeffs = {}
    for I, row in zip(itertools.combinations(range(len(xs)), k), C.tolist()):
        poly = None
        for c, mono in zip(row, monomials):
            term = sexpr.Num(c)
            for a in mono:
                term = sexpr.Bin("*", term, xs[a])
            poly = term if poly is None else sexpr.Bin("+", poly, term)
        coeffs[I] = poly
    return coeffs


def _monomial_table(coeffs, k, n):
    """FormField._poly_table of the given degree-k coefficients on n
    coordinates: () when one is not a quadratic, their monomial lists differ,
    or a variable or a key is not one of the chart's."""
    terms = [sexpr.quadratic_terms(e) for e in coeffs.values()]
    if not terms or None in terms:
        return ()
    monomials = tuple(m for _, m in terms[0])
    if any(tuple(m for _, m in ts) != monomials for ts in terms):
        return ()
    rows = _rows(n, k)
    if any(not 0 <= a < n for m in monomials for a in m) or any(I not in rows for I in coeffs):
        return ()
    C = np.zeros((len(rows), len(monomials)))
    C[[rows[I] for I in coeffs]] = [[c for c, _ in ts] for ts in terms]
    return C, monomials


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
        self._ctx_cache = OrderedDict()  # (points, order) -> ChartContext, LRU
        self._samples = OrderedDict()  # (count, seed) -> points, LRU
        # each distinct metric entry tree with the entries it fills, so a
        # context walks it once; its repr keeps -0.0 apart from 0.0 and an
        # int literal apart from a float, which the walker treats apart
        groups = {}
        for a, row in enumerate(self.metric):
            for b, e in enumerate(row):
                groups.setdefault(repr(e), (e, []))[1].append((a, b))
        self._metric_trees = list(groups.values())

    def parse_expr(self, src):
        return sexpr.parse(src, self.coord_names)

    def in_domain(self, p):
        if len(p) != self.n:
            return False
        for x, (lo, hi) in zip(p, self.domain):
            if not lo <= x <= hi:
                return False
        # not > 0, so that a NaN exclusion value excludes the point
        if self.exclude is not None and not sexpr.eval_value(self.exclude, p) > 0:
            return False
        return True

    def check_point(self, p):
        if not self.in_domain(p):
            raise PointExcluded(f"point {p} outside domain of chart {self.name!r}")

    def context(self, p, order):
        """The context of the one point p."""
        return self.batch([p], order)

    def batch(self, points, order):
        """The context of the points, in order, at the jet order."""
        key = (tuple(tuple(p) for p in points), order)
        return _cached(self._ctx_cache, key, lambda: ChartContext(self, *key), CONTEXT_CACHE_SIZE)


def _cached(cache, key, make, size):
    """cache[key], made on a miss; past size entries, the least recently
    used is dropped."""
    if key not in cache:
        cache[key] = make()
        if len(cache) > size:
            cache.popitem(last=False)
    cache.move_to_end(key)
    return cache[key]


class ChartContext:
    """Cached jet data for one (geometry, points, order) triple: every array
    it gives has a point axis, of one entry per point, in order (of one
    where a value is the same at every point).

    ``coords[i]`` is the jet of coordinate i, of the context's order: a
    one-point jet for one point, and for several an (S, P) jet holding it at
    each; every jet at the points is built from these.
    """

    def __init__(self, geometry, points, order):
        for p in points:
            geometry.check_point(p)
        self.geometry = geometry
        self.points = points
        self.order = order
        # the coordinates of one point, or each coordinate's values at every point
        at = points[0] if len(points) == 1 else [np.array(x) for x in zip(*points)]
        # refuses an order outside 0..MAX_ORDER
        self.coords = tuple(jet_var(at, i, order) for i in range(geometry.n))
        self._cache = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    # -- the metric and what it gives, as (space, array) pairs with a Taylor
    # axis and then the point axis last, as alt's tables read them

    def g(self):
        """g_{ab} at [a, b], of the context's order; a constant (space None)
        where every entry is a number."""
        return self._memo("g", lambda: _metric(self))

    def g_inv(self):
        """g^{ab} at [a, b], of the metric's order."""
        return self._memo("g_inv", lambda: _inverse(self.points, *self.g()))

    def gamma(self):
        """Gamma^k_{ij} at [k, i, j], one order below the metric."""
        return self._memo("gamma", lambda: _christoffel(*self.g(), *self.g_inv()))

    def curvature(self):
        """R at [i, j, k, l], the coefficient of e_l in R(e_i, e_j) e_k, one
        order below Gamma."""
        return self._memo("curv", lambda: _curvature(*self.gamma()))

    def monomial_jets(self, monomials):
        """A (P, T, S) array, [p, t] the jet at point p of prod(x_a for a in
        monomials[t]), of the context's order, for monomials of degree at most
        2 (jets.monomial_jets).  Its point axis is first, so that a table
        product with it is one matrix product per point: the same BLAS call,
        and so the same bits, at any number of points."""
        return self._memo(("monomials", monomials), lambda: monomial_jets(self.coords, monomials))

    def frame(self, descending=False):
        """The orthonormal frame as tangent vectors, in the order built."""
        return [VecAltValue.from_vector(v) for v in _gram_schmidt(*self.g(), descending)]

    # -- fields ----------------------------------------------------------

    def structure(self, name):
        return self._memo(("struct", name), lambda: self._eval_structure(name))

    def _eval_structure(self, name):
        if name not in STRUCTURES:
            raise ConfigError(f"unknown structure tensor {name!r}")
        ev = lambda e: sexpr.eval_jet(e, self.coords)
        vals = _map_structure(name, self.geometry.structures[name], ev)
        if STRUCTURES[name] == "endomorphism":
            return VecAltValue.from_endomorphism(vals)
        if STRUCTURES[name] == "vector":
            return VecAltValue.from_vector(vals)
        return AltValue(self.geometry.n, 1, {(i,): v for i, v in enumerate(vals)})


# -- metric machinery ------------------------------------------------------


def _metric(ctx):
    """The metric entries' jets as a (space, array) pair, refused unless its
    value is finite, symmetric and positive-definite at every point; the
    refusal names the first point that fails."""
    items = []
    for e, entries in ctx.geometry._metric_trees:
        c = sexpr.eval_jet(e, ctx.coords)
        items += [(ab, c) for ab in entries]
    sg, g = _fill((ctx.geometry.n,) * 2, items)
    for p, vals in zip(ctx.points, g[..., 0, :].transpose(2, 0, 1)):
        if not np.isfinite(vals).all():
            raise SingularMetric(f"metric not finite at {p}: {vals.tolist()}")
        if np.abs(vals - vals.T).max() > 1e-12:
            raise SingularMetric(f"metric not symmetric at {p}: {vals.tolist()}")
        try:
            eig = np.linalg.eigvalsh(vals)
        except np.linalg.LinAlgError as exc:
            raise SingularMetric(str(exc))
        if not eig.min() > 0:  # fails on NaN too
            raise SingularMetric(f"metric not positive-definite at {p} (eigmin={eig.min()})")
    return sg, g


def _inverse(points, sg, g):
    """g^{-1} of a metric (space, array) as A sum_m (-H A)^m, with A the
    inverse of g's value and H = g - g(p).  H A has no value, so the series
    ends at the jet order r; in Horner form, Y <- A - (A H) Y, it is r
    jet-matrix products.  _metric has found g symmetric positive-definite,
    so nothing pivots; a value too small to invert in floating point, with
    an infinite A, is refused naming the point.  The inverses and A H are
    stacked over the points, one LAPACK and one BLAS call per point."""
    inv = np.linalg.inv(g[..., 0, :].transpose(2, 0, 1))  # (P, n, n)
    for p, m in zip(points, inv):
        if not np.isfinite(m).all():
            raise SingularMetric(f"metric not invertible at {p}")
    A = inv.transpose(1, 2, 0)[:, :, None]
    if sg is None or sg.order == 0:
        return sg, A
    n, S, P = g.shape[1:]
    AH = np.matmul(inv, g.transpose(3, 0, 1, 2).reshape(P, n, n * S))
    AH = AH.reshape(P, n, n, S).transpose(1, 2, 3, 0)
    AH[..., 0, :] = 0.0
    sy, Y = None, A
    for _ in range(sg.order):
        sy, Y = _sum(None, A, *_matmul(n)(sg, AH, sy, Y), -1.0)
    return sy, Y


def _christoffel(sg, g, si, g_inv):
    """Gamma^k_{ij} = sum_l g^{kl} (d_i g_jl + d_j g_il - d_l g_ij) / 2 at
    [k, i, j], from the metric's partials D[l, i, j] = d_l g_ij."""
    n = len(g)
    sd, D = _partials(n, sg, g)
    E = np.moveaxis(D, 2, 0)  # E[l, i, j] = d_i g_jl
    first = (E + E.swapaxes(1, 2) - D) * 0.5
    return _raise_first(n, (n, n))(si, g_inv, sd, first)


def _gram_schmidt(sg, g, descending=False):
    """Orthonormal frame jets from the coordinate frame, with g's entries
    read as scalar jets, at every point of g at once: a reference
    independent of the table products.  An entry constant to its order with
    one value at every point is a float, as at one point; where that holds
    at some points only, it is a jet at all, and those points' frames agree
    with their one-point frames to rounding.

    Returns n tangent vectors as lists of jet or number components, in the
    order they were orthonormalized.
    """
    n = len(g)
    g = [[_entry(sg, row) for row in rows] for rows in (g[..., 0] if g.shape[-1] == 1 else g)]

    def inner(u, v):  # g(u, v), summed with u's index outermost
        acc = 0.0
        for i in range(n):
            for j in range(n):
                acc = acc + g[i][j] * u[i] * v[j]
        return acc

    idx = list(range(n - 1, -1, -1)) if descending else list(range(n))
    frame = []
    for a in idx:
        v = [1.0 if i == a else 0.0 for i in range(n)]
        for u in frame:
            c = inner(v, u)
            v = [vi - c * ui for vi, ui in zip(v, u)]
        nrm = inner(v, v)
        if np.any(scalar_value(nrm) <= 0):
            raise SingularMetric("Gram-Schmidt hit a nonpositive norm")
        inv = 1.0 / jet_apply("sqrt", nrm)
        frame.append([vi * inv for vi in v])
    return frame


@functools.cache
def _christoffel_square(n):
    """sum_m Gamma^m_{jk} Gamma^l_{im}, Gamma^l_{ij} at row (l*n + i)*n + j;
    out row ((i*n + j)*n + k)*n + l."""
    terms = [(1, (m * n + j) * n + k, (l * n + i) * n + m, ((i * n + j) * n + k) * n + l)
             for i, j, k, l in itertools.product(range(n), repeat=4) for m in range(n)]
    return _Product(terms, n ** 3, (n,) * 4)


def _curvature(sg, gam):
    """R at [i, j, k, l] for Gamma = (sg, gam).  The Gamma Gamma products are
    taken at the curvature's order, reading Gamma's prefix, since the
    derivative terms have it anyway."""
    n = len(gam)
    sd, D = _partials(n, sg, gam)
    low = gam[..., : _width(sd), :]
    return _riemann(sd, D, *_christoffel_square(n)(sd, low, sd, low))


def _riemann(sd, D, sq, Q):
    """R at [i, j, k, l], the coefficient of e_l in R(e_i, e_j) e_k, is
    T[i, j, k, l] - T[j, i, k, l] with T = d_i Gamma^l_{jk} + sum_m
    Gamma^m_{jk} Gamma^l_{im}, from the partials D[m, l, i, j] =
    d_m Gamma^l_{ij} and the _christoffel_square product Q."""
    E = D.transpose(0, 2, 3, 1, 4, 5)  # E[i, j, k, l] = d_i Gamma^l_{jk}
    sp, T = _sum(sd, E, sq, Q, 1.0)
    return sp, T - T.swapaxes(0, 1)


# -- point sampling ---------------------------------------------------------


def sample_points(G, count, seed):
    """Deterministic splitmix64 sampling in the domain box, rejecting
    excluded points: a new list, drawn once per (count, seed) and chart."""
    make = lambda: _draw_points(G, count, seed)
    return list(_cached(G._samples, (count, seed), make, SAMPLE_CACHE_SIZE))


def _draw_points(G, count, seed):
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
    return tuple(pts)


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


def _integer(value, what):
    """A JSON integer field, or a ConfigError naming it: a bool, a string
    or a float is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _finite(value, what):
    """A finite JSON number field as a float, or a ConfigError naming it: a
    bool, a string, an infinity or a NaN is refused."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


def _interval(iv):
    """A domain interval [lo, hi] as floats, or a ConfigError naming it:
    lo > hi, or a width hi - lo beyond the float range, is refused."""
    lo, hi = (_finite(b, "domain bound") for b in _array(iv, "domain interval", 2))
    if not lo <= hi or not math.isfinite(hi - lo):
        raise ConfigError(f"domain interval {iv!r} must have lo <= hi and a finite width")
    return [lo, hi]


def _string(value, what):
    """A JSON string field, or a ConfigError naming it."""
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def load_config(doc):
    """Build a Geometry (with named forms) from a parsed JSON document; a
    malformed field raises ConfigError naming it."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    version = doc.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version!r}")
    try:
        n = _integer(doc["dim"], "dim")
        if not 1 <= n <= MAX_DIM:
            raise ConfigError(f"dim must be in 1..{MAX_DIM}, got {n}")
        coords = list(_array(doc["coords"], "coords"))
        metric_src = _array(doc["metric"], "metric")
        domain = [_interval(iv) for iv in _array(doc["domain"], "domain")]
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
        k = _integer(fdoc.get("degree"), f"degree of form {fname!r}")
        if not 0 <= k <= n:
            raise ConfigError(f"degree of form {fname!r} must be in 0..{n}, got {k}")
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
        name=_string(doc.get("name", "chart"), "name"),
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
