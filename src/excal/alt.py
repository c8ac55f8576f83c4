"""Pointwise multilinear algebra of alternating tensors, stored dense.

Values of scalar k-forms (AltValue) and tangent-valued k-forms
(VecAltValue) at a point, with wedge, interior products via shuffle sums,
contraction (trace), and the musical sharp and flat, which raise and
lower an index with the (space, array) pairs ChartContext.g_inv and
ChartContext.g give.

Layout: an AltValue of degree k on n coordinates is one float array ``c``
of shape (C(n, k), S, P).  Row r is the basis key ``_basis(n, k)[r]``, in
``combinations(range(n), k)`` order, column t is Taylor coefficient t of
the value's jet space ``space``, so S = space.size, and the last axis holds
the value at each of the P points of the chart context it was evaluated
at (geometry.ChartContext), in point order.  A value that is the same at every
point, such as one built from numbers, has P = 1 and joins a value of any
P as if repeated.  A VecAltValue is one array of shape (n, C(n, k), S, P),
tangent component b first.  ``point(i)`` is the one-point value at point i,
a view; the read-only views below read one-point values only.  Degrees
above the dimension (or below zero) have no rows: they are canonical zero
values, never errors, since operator compositions reach them routinely.

The rules of jets, at the form level:
- order: combining two values works at the lower order and reads the
  longer value's prefix in place; arrays are never written after the
  value holding them is built;
- constant: a value built only from numbers has space None and S = 1.  It
  joins a jet value through its value row only, and it, like the zero
  value, differentiates to zero at any order, while a point-dependent
  value at order 0 raises JetBudgetExhausted;
- zero: zero is an all-zero array, and nothing is dropped when a value is
  built.  Only the read-only views ``.coeffs`` and ``.get`` leave out the
  rows jets.is_zero finds zero; they read a row whose Taylor coefficients
  past its value are all zero as a float, any other row (so every row of an
  order-0 jet value) as a Jet over a view of the row.

Tables: every operation, linear or bilinear (wedge, interior, i_dir,
trace, sharp, flat, scaling by a jet, and the operators' d and
contractions), is one jets.mul_coeffs call over a _Product table.  Its
key-level terms (sign, a row, b row, out row) are made once per
(operation, n, degrees) from _sort_sign and _shuffles, and expanded once
per pair of operand spaces over the Taylor pairs: JetSpace.mul_table of
the lower order for two jets, (0, t, t) when one side is a constant.  The
expansion reads each operand with the stride of its own array, so a longer
operand's prefix is read in place.  The points are not in the table: the
kernel applies it to every point at once, each point summed as it would
be alone, so a table is the same for any number of points.  Signs are
folded into the gather: a is read from concat((a, -a)), and a negative
term reads the second half.  A linear map out[ro] += sign * x[rx] is the
product of the constant one, _ONE, with x, by the terms (sign, 0, rx,
ro).  Each table owns its output layout: it returns its result in the
leading shape its builder states.

Live rows: many operand rows are zero at every point (the off-diagonal
g^{ab} of a conformally flat chart, the absent coefficients of a form), and
a key term that reads one adds nothing.  So a product whose expanded terms
times points reach PRUNE_AT reads which rows of each operand hold a
nonzero coefficient, and multiplies only the terms between two such rows.
Each product keeps one store of expanded tables per pair of operand spaces,
keyed by live-row pattern; the key None, every row, is the full table,
which a call below PRUNE_AT reads, where reading the rows costs more than
the terms it could skip.  This keeps every bit: a skipped term is a +-0.0
product of finite factors, and adding one to a bincount bin, which starts
at +0.0 and so never holds -0.0, changes nothing.  An operand that is not
all finite reads the full table, so 0 * inf is still NaN.
"""

import math
from functools import cache
from itertools import combinations
from types import MappingProxyType

import numpy as np

from . import jets
from .errors import ArityError, DegreeError, ShapeMismatch
from .jets import Jet, is_zero, jet_space


@cache
def _sort_sign(seq):
    """(sign, sorted key) of an index tuple: the parity of the permutation
    that sorts it, so that omega(e_seq) = sign * coeff(key).  (0, None) on
    a repeated index."""
    if len(set(seq)) != len(seq):
        return 0, None
    inv = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return (-1 if inv % 2 else 1), tuple(sorted(seq))


@cache
def _shuffles(m, p):
    """The (p, m - p) shuffles of m slots, as (sign, chosen, rest) position
    tuples in combinations order; sign is that of sorting chosen + rest."""
    out = []
    for chosen in combinations(range(m), p):
        rest = tuple(i for i in range(m) if i not in chosen)
        out.append((_sort_sign(chosen + rest)[0], chosen, rest))
    return tuple(out)


@cache
def _basis(n, k):
    """The basis keys of degree k in row order; none outside 0..n."""
    return tuple(combinations(range(n), k)) if k >= 0 else ()


@cache
def _rows(n, k):
    """The row of each basis key of degree k."""
    return {key: r for r, key in enumerate(_basis(n, k))}


# -- coefficient arrays ----------------------------------------------------


def _width(space):
    """The Taylor axis length of a value in space; 1 for a constant."""
    return 1 if space is None else space.size


def _lowest(spaces):
    """The jet space of the lowest order among spaces, None if there is none."""
    low = None
    for sp in spaces:
        if low is not None and sp.n != low.n:
            raise ShapeMismatch(f"jet variable counts differ: {sp.n} vs {low.n}")
        if low is None or sp.order < low.order:
            low = sp
    return low


def _fill(shape, items):
    """(space, array) of the given leading shape holding each (index, jet or
    number) item, at the lowest order among the jets and at their points
    (one, if there is no jet); the rest is zero."""
    jets = [c for _, c in items if isinstance(c, Jet)]
    space = _lowest(c.space for c in jets)
    S = _width(space)
    P = max((c.c.shape[1] for c in jets if c.c.ndim > 1), default=1)
    out = np.zeros(shape + (S, P))
    for i, c in items:
        if isinstance(c, Jet):
            out[i] = c.c[:S].reshape(S, -1)
        else:
            out[i][0] = c
    return space, out


def _join(parts):
    """(space, array) stacking (space, array) parts of one leading shape
    along a new first axis, by the order and constant rules; a one-point
    part joins parts of P points as if repeated."""
    space = _lowest(sp for sp, _ in parts if sp is not None)
    S = _width(space)
    P = max(c.shape[-1] for _, c in parts)
    out = np.zeros((len(parts),) + parts[0][1].shape[:-2] + (S, P))
    for o, (sp, c) in zip(out, parts):
        if sp is None:
            o[..., 0, :] = c[..., 0, :]
        else:
            o[...] = c[..., :S, :]
    return space, out


def _repeat(c, P):
    """A new array of c at P points; a one-point c repeated."""
    return c.copy() if c.shape[-1] == P else np.repeat(c, P, axis=-1)


def _sum(sa, a, sb, b, sign):
    """(space, a + sign * b) for coefficient arrays of one leading shape."""
    if sa is sb:
        return sa, (a + b if sign > 0 else a - b)
    if sa is None:
        out = b * sign
        if out.shape[-1] < a.shape[-1]:
            out = _repeat(out, a.shape[-1])
        out[..., 0, :] += a[..., 0, :]
        return sb, out
    if sb is None:
        out = _repeat(a, max(a.shape[-1], b.shape[-1]))
        out[..., 0, :] += sign * b[..., 0, :]
        return sa, out
    sp = _lowest((sa, sb))
    S = sp.size
    a, b = a[..., :S, :], b[..., :S, :]
    return sp, (a + b if sign > 0 else a - b)


def _scale(s, space, c):
    """(space, s * c) for a number, a jet or a degree-0 AltValue s.  A zero s
    gives the zero value.  A degree-0 AltValue is read as get reads one
    point: the zero value where it is zero at every point, its value row
    times c where it is constant past its value at every point, else the
    jet product."""
    lead = c.shape[:-2]
    if isinstance(s, AltValue):
        sc = s.c[0]
        if not sc.any():
            return None, np.zeros(lead + (1, 1))
        if s.space is None or s.space.order and not sc[1:].any():
            return space, c * sc[0]
        return _scaling(lead)(s.space, sc, space, c)
    if is_zero(s):
        return None, np.zeros(lead + (1, 1))
    if not isinstance(s, Jet):
        return space, c * float(s)
    return _scaling(lead)(s.space, s.c[:, None], space, c)


def _partials(n, space, c):
    """(space, array) of the partials of every coefficient along each of the
    n coordinates, coordinate first: shape (n,) + c.shape[:-2] + (S', P).  A
    constant differentiates to the zero constant."""
    if space is None:
        return None, np.zeros((n,) + c.shape[:-2] + (1, c.shape[-1]))
    src, fac = space.diff_tables  # JetBudgetExhausted at order 0
    d = c[..., src, :] * fac[..., None]
    lead = d.ndim - 3  # the axis of the n coordinates
    d = np.ascontiguousarray(d.transpose((lead,) + tuple(range(lead)) + (lead + 1, lead + 2)))
    return jet_space(space.n, space.order - 1), d


# -- tables ------------------------------------------------------------------


@cache
def _taylor(sa, sb):
    """(space, S, ta, tb, to): the result's space and Taylor width, and the
    Taylor product pairs of coefficients in spaces sa and sb (None for a
    constant), in the result's space."""
    if sa is None or sb is None:
        sp = sb if sa is None else sa
        t = np.arange(_width(sp))
        zero = np.zeros_like(t)
        return (sp, len(t), zero, t, t) if sa is None else (sp, len(t), t, zero, t)
    sp = _lowest((sa, sb))
    return (sp, sp.size) + sp.mul_table


def _columns(terms):
    return np.array(terms, dtype=np.int64).reshape(-1, 4).T


# The fewest term-points (expanded terms x points) at which a product reads
# which operand rows are live; below it the row check costs more than the
# terms it could skip.
PRUNE_AT = 2048
# The tables, by live-row pattern or full, a product keeps per pair of operand
# spaces.
PATTERNS = 8


def _live(x):
    """Which rows of a coefficient array hold a nonzero coefficient at some
    point, as bytes of one bool per row; None if x is not all finite."""
    x = x.reshape(-1, x.shape[-2] * x.shape[-1])
    if not math.isfinite(x.sum()):  # a sum that overflows reads as not finite
        return None
    return x.any(axis=1).tobytes()


class _Product:
    """A bilinear map out[ro] += sign * a[ra] * b[rb] between the rows of
    row-major coefficient arrays, a having rows_a rows and out returned
    with the leading shape given: one mul_coeffs call per application, over
    the terms expanded for the operands' spaces.  With a = _ONE and rows_a
    1 it is the linear map out[ro] += sign * b[rb].

    Live rows (see the module docstring): _tables[sa, sb] holds the tables
    expanded for operand spaces sa and sb, keyed by (live rows of a, live
    rows of b), rows nonzero at some Taylor coefficient of some point, or
    by None for the full table.  A call whose expanded terms times points
    reach PRUNE_AT, with operands that are all finite, reads the table of
    its pattern; any other call reads the full one.  Each store keeps the
    last PATTERNS tables made, the oldest going first."""

    __slots__ = ("sign", "ra", "rb", "ro", "rows_a", "shape", "rows_out", "_tables")

    def __init__(self, terms, rows_a, shape):
        self.sign, self.ra, self.rb, self.ro = _columns(terms)
        self.rows_a = rows_a
        self.shape = shape
        self.rows_out = math.prod(shape)
        self._tables = {}

    def _expand(self, sa, sb, key):
        """The table (ia, ib, io) of pattern key, None for every row: the key
        terms between live rows expanded over the Taylor pairs of sa and sb,
        kept in the store of (sa, sb)."""
        _, S, ta, tb, to = _taylor(sa, sb)
        keep = slice(None)
        if key is not None:
            keep = np.frombuffer(key[0], bool)[self.ra] & np.frombuffer(key[1], bool)[self.rb]
        sign, ra, rb, ro = self.sign[keep], self.ra[keep], self.rb[keep], self.ro[keep]
        ra = (ra + np.where(sign < 0, self.rows_a, 0)) * _width(sa)
        ia = (ra[:, None] + ta).ravel()
        ib = (rb[:, None] * _width(sb) + tb).ravel()
        io = (ro[:, None] * S + to).ravel()
        tables = self._tables.setdefault((sa, sb), {})
        if len(tables) >= PATTERNS:  # the oldest table goes
            del tables[next(iter(tables))]
        tables[key] = ia, ib, io
        return ia, ib, io

    def __call__(self, sa, a, sb, b):
        """(space, out array of shape shape + (S, P)), for operands of P
        points or of one."""
        sp, S, ta, _, _ = _taylor(sa, sb)
        P = max(a.shape[-1], b.shape[-1])
        key = None
        if len(self.sign) * len(ta) * P >= PRUNE_AT:
            la, lb = b"\1" if a is _ONE else _live(a), _live(b)
            if la is not None and lb is not None:
                key = la, lb
        try:
            ia, ib, io = self._tables[sa, sb][key]
        except KeyError:
            ia, ib, io = self._expand(sa, sb, key)
        # one point runs the kernel on flat operands; several, on (rows, P)
        if P == 1:
            a, b = a.reshape(-1), b.reshape(-1)
        else:
            a, b = a.reshape(-1, a.shape[-1]), b.reshape(-1, b.shape[-1])
        out = jets.mul_coeffs(np.concatenate((a, -a)), b, ia, ib, io, self.rows_out * S)
        return sp, out.reshape(self.shape + (S, P))


_ONE = np.ones((1, 1, 1))  # the constant one, the first operand of a linear map


@cache
def _scaling(shape):
    """s * c for a one-row s and a c of leading shape shape."""
    return _Product([(1, 0, r, r) for r in range(math.prod(shape))], 1, shape)


@cache
def _matmul(n):
    """(T S)^b_c = sum_m T^b_m S^m_c for n x n matrices at rows b*n + m."""
    terms = [(1, b * n + m, m * n + c, b * n + c)
             for b in range(n) for c in range(n) for m in range(n)]
    return _Product(terms, n * n, (n, n))


@cache
def _raise_first(n, trailing):
    """out^b_r = sum_a g^{ab} t_{a r}, g^{ab} at row a*n + b, for t of
    leading shape (n,) + trailing."""
    rows = math.prod(trailing)
    terms = [(1, a * n + b, a * rows + r, b * rows + r)
             for b in range(n) for r in range(rows) for a in range(n)]
    return _Product(terms, n * n, (n,) + trailing)


@cache
def _wedge(n, ka, kb, vec):
    """a ^ b for a of degree ka and b of degree kb, or each of the n
    components of a tangent-valued b with vec."""
    comps = n if vec else 1
    out, rb, rm = _rows(n, ka + kb), len(_basis(n, kb)), len(_basis(n, ka + kb))
    terms = []
    for b in range(comps):
        for i, I in enumerate(_basis(n, ka)):
            for j, J in enumerate(_basis(n, kb)):
                sign, key = _sort_sign(I + J)
                if sign:
                    terms.append((sign, i, b * rb + j, b * rm + out[key]))
    return _Product(terms, len(_basis(n, ka)), ((n,) if vec else ()) + (rm,))


@cache
def _interior(n, p, k):
    """i_phi omega by shuffle sums, phi of degree p, omega of degree k."""
    m = k + p - 1
    rp, rk = _rows(n, p), _rows(n, k)
    terms = []
    for j, M in enumerate(_basis(n, m)):
        for sign, chosen, rest in _shuffles(m, p):
            A = tuple(M[i] for i in chosen)
            R = tuple(M[i] for i in rest)
            for b in range(n):
                s2, key = _sort_sign((b,) + R)
                if s2:
                    terms.append((sign * s2, b * len(rp) + rp[A], rk[key], j))
    return _Product(terms, n * len(rp), (len(_basis(n, m)),))


@cache
def _sharp_table(n, k):
    """sharp(omega)^b = sum_a g^{ab} i_{e_a} omega, g^{ab} at row a*n + b."""
    rk, rm = _rows(n, k), len(_basis(n, k - 1))
    terms = []
    for b in range(n):
        for j, J in enumerate(_basis(n, k - 1)):
            for a in range(n):
                s, key = _sort_sign((a,) + J)
                if s:
                    terms.append((s, a * n + b, rk[key], b * rm + j))
    return _Product(terms, n * n, (n, rm))


@cache
def _i_dir(n, a, k):
    """i_{e_a} omega, a linear map: _ONE times omega."""
    rk = _rows(n, k)
    terms = []
    for j, J in enumerate(_basis(n, k - 1)):
        s, key = _sort_sign((a,) + J)
        if s:
            terms.append((s, 0, rk[key], j))
    return _Product(terms, 1, (len(_basis(n, k - 1)),))


@cache
def _trace(n, k):
    """tr phi = sum_b i_{e_b} phi^b, phi^b at rows b*C(n,k) + r, a linear
    map: _ONE times phi."""
    rk = _rows(n, k)
    terms = []
    for j, J in enumerate(_basis(n, k - 1)):
        for b in range(n):
            s, key = _sort_sign((b,) + J)
            if s:
                terms.append((s, 0, b * len(rk) + rk[key], j))
    return _Product(terms, 1, (len(_basis(n, k - 1)),))


# -- values ----------------------------------------------------------------


def _entry(space, row):
    """One coefficient from its Taylor row, (S,) at one point or (S, P) at
    P: a float where the row is constant, with Taylor coefficients past its
    value all zero and one value at every point, and a jet row view
    otherwise (so every row of an order-0 jet value)."""
    if space is None or space.order and not row[1:].any():
        if row.ndim == 1 or (row[0] == row[0, 0]).all():
            return float(row[0].flat[0])
    return Jet(space, row)


def _read(space, row):
    """One coefficient as _entry gives it, or 0.0 where it is zero."""
    c = _entry(space, row)
    return 0.0 if is_zero(c) else c


def _one(c):
    """The Taylor rows of a one-point coefficient array, its point axis
    dropped; the read-only views read one point, so P > 1 is refused."""
    if c.shape[-1] != 1:
        raise ShapeMismatch(f"a value of {c.shape[-1]} points is read one point at a time")
    return c[..., 0]


def _point(c, i):
    """The one-point view of c at point i; a one-point c is every point."""
    j = i if c.shape[-1] > 1 else 0
    return c[..., j:j + 1]


class _Value:
    """What both kinds of value share: the dimension n, the degree k, the
    jet space and the coefficient array c (see the module docstring), and
    the linear structure over values of one kind, n and k."""

    __slots__ = ("n", "k", "space", "c")

    @classmethod
    def _make(cls, n, k, space, c):
        """The value of this kind holding a built coefficient array."""
        v = object.__new__(cls)
        v.n, v.k, v.space, v.c = n, k, space, c
        return v

    def point(self, i):
        """The one-point value at point i, a view."""
        return self._make(self.n, self.k, self.space, _point(self.c, i))

    def __add__(self, other):
        self._check(other)
        return self._make(self.n, self.k, *_sum(self.space, self.c, other.space, other.c, 1.0))

    def __sub__(self, other):
        self._check(other)
        return self._make(self.n, self.k, *_sum(self.space, self.c, other.space, other.c, -1.0))

    def __neg__(self):
        return self._make(self.n, self.k, self.space, -self.c)

    def scale(self, s):
        return self._make(self.n, self.k, *_scale(s, self.space, self.c))

    def _check(self, other):
        if type(other) is not type(self) or other.n != self.n or other.k != self.k:
            raise DegreeError(f"mismatched values: {self!r} vs {other!r}")

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, k={self.k}, points={self.c.shape[-1]})"


class AltValue(_Value):
    """The value of an alternating k-tensor at a point.

    AltValue(n, k, {key: jet or number}) builds one at the lowest order
    among its jets; a key left out is zero.
    """

    __slots__ = ()

    def __init__(self, n, k, coeffs=None):
        where = _rows(n, k)
        items = []
        for key, c in (coeffs or {}).items():
            r = where.get(tuple(key))
            if r is None:
                raise DegreeError(f"{key!r} is not a basis key of degree {k} in {n} dimensions")
            items.append((r, c))
        self.n, self.k = n, k
        self.space, self.c = _fill((len(where),), items)

    @classmethod
    def zero(cls, n, k):
        return _alt(n, k, None, np.zeros((len(_basis(n, k)), 1, 1)))

    @property
    def coeffs(self):
        """A read-only {key: jet row view or float} of the rows that are not
        zero, in basis order, of a one-point value; a constant row reads as a
        float."""
        out = {}
        for key, row in zip(_basis(self.n, self.k), _one(self.c)):
            c = _entry(self.space, row)
            if not is_zero(c):
                out[key] = c
        return MappingProxyType(out)

    def get(self, key):
        r = _rows(self.n, self.k).get(tuple(key))
        return 0.0 if r is None else _read(self.space, _one(self.c)[r])


class VecAltValue(_Value):
    """The value of a tangent-valued alternating k-tensor at a point.

    Component b is the scalar k-tensor multiplying the coordinate tangent
    vector e_b; a degree-0 VecAltValue is a tangent vector.
    VecAltValue(n, k, comps) joins n AltValues by the order rule.
    """

    __slots__ = ()

    def __init__(self, n, k, comps=None):
        self.n, self.k = n, k
        if comps is None:
            self.space, self.c = None, np.zeros((n, len(_basis(n, k)), 1, 1))
        else:
            self.space, self.c = _join([(v.space, v.c) for v in comps])

    @classmethod
    def zero(cls, n, k):
        return cls(n, k)

    @property
    def comps(self):
        """The components as AltValues over views of this value's array."""
        return [_alt(self.n, self.k, self.space, c) for c in self.c]

    @classmethod
    def from_vector(cls, components):
        """Tangent vector (degree 0) from a component sequence."""
        n = len(components)
        items = [((b, 0), c) for b, c in enumerate(components)]
        return _vec(n, 0, *_fill((n, 1), items))

    @classmethod
    def from_endomorphism(cls, matrix):
        """Degree-1 value from a matrix: column c maps e_c to sum_b m[b][c] e_b."""
        n = len(matrix)
        items = [((b, c), matrix[b][c]) for b in range(n) for c in range(n)]
        return _vec(n, 1, *_fill((n, n), items))

    @classmethod
    def identity(cls, n):
        return _vec(n, 1, None, np.eye(n)[:, :, None, None])

    def as_vector(self):
        if self.k != 0:
            raise DegreeError("not a tangent vector")
        return [_read(self.space, row) for row in _one(self.c)[:, 0]]

    def column(self, c):
        """The components of the image of e_c under a degree-1 value."""
        return [_read(self.space, row) for row in _one(self.c)[:, c]]


_alt = AltValue._make  # the AltValue holding a built coefficient array
_vec = VecAltValue._make  # the VecAltValue holding a built coefficient array


# -- products -------------------------------------------------------------


def _operands(op, a, kind_a, b=None, kind_b=None):
    """Refuse, with DegreeError, an operand a of op that is not of kind_a,
    or, given b, one not of kind_b or of another dimension n than a."""
    if type(a) is not kind_a or b is not None and (type(b) is not kind_b or b.n != a.n):
        if b is None:
            raise DegreeError(f"{op} takes a {kind_a.__name__}, not {a!r}")
        raise DegreeError(
            f"{op} takes ({kind_a.__name__}, {kind_b.__name__}) of equal n, not ({a!r}, {b!r})"
        )


def wedge(a, b):
    """Wedge product of scalar alternating values."""
    _operands("wedge", a, AltValue, b, AltValue)
    n, k = a.n, a.k + b.k
    if k > n:
        return AltValue.zero(n, k)
    return _alt(n, k, *_wedge(n, a.k, b.k, False)(a.space, a.c, b.space, b.c))


def wedge_sv(omega, phi):
    """Wedge of a scalar form value with a tangent-valued form value."""
    _operands("wedge_sv", omega, AltValue, phi, VecAltValue)
    n, k = phi.n, omega.k + phi.k
    if k > n:
        return VecAltValue.zero(n, k)
    return _vec(n, k, *_wedge(n, omega.k, phi.k, True)(omega.space, omega.c, phi.space, phi.c))


def i_dir(a, omega):
    """Classical interior product with the coordinate vector e_a."""
    _operands("i_dir", omega, AltValue)
    n, k = omega.n, omega.k
    return _alt(n, k - 1, *_i_dir(n, a, k)(None, _ONE, omega.space, omega.c))


def interior(phi, omega):
    """Frolicher-Nijenhuis interior product i_phi omega by shuffle sums.

    phi is tangent-valued of degree p, omega scalar of degree k; the result
    has degree k + p - 1.  Annihilates degree 0.  For p = 0, phi is a
    vector X and this is the classical i_X.
    """
    _operands("interior", phi, VecAltValue, omega, AltValue)
    n, p, k = phi.n, phi.k, omega.k
    m = k + p - 1
    if k == 0 or m > n:
        # canonical zero of degree p - 1 (degree -1 for a plain vector) so
        # downstream degree bookkeeping stays consistent
        return AltValue.zero(n, m)
    return _alt(n, m, *_interior(n, p, k)(phi.space, phi.c, omega.space, omega.c))


def trace(phi):
    """Contraction tr: sum_b i_{e_b} phi^b, of degree k - 1."""
    _operands("trace", phi, VecAltValue)
    if phi.k == 0:
        raise DegreeError("trace of a tangent vector is undefined")
    n, k = phi.n, phi.k
    return _alt(n, k - 1, *_trace(n, k)(None, _ONE, phi.space, phi.c))


def sharp(omega, g_inv):
    """Musical sharp: sum_{a,b} g^{ab} (i_{e_a} omega) wedge e_b, for g_inv
    the (space, array) pair ChartContext.g_inv gives, g^{ab} at [a, b]."""
    _operands("sharp", omega, AltValue)
    if omega.k == 0:
        raise DegreeError("sharp needs a form of degree >= 1")
    n, k = omega.n, omega.k
    return _vec(n, k - 1, *_sharp_table(n, k)(*g_inv, omega.space, omega.c))


def flat(X, g):
    """Musical flat: the 1-form sum_{a,b} g_{ab} X^a dx^b of a tangent
    vector X, for g the (space, array) pair ChartContext.g gives."""
    _operands("flat", X, VecAltValue)
    if X.k != 0:
        raise DegreeError("flat needs a tangent vector")
    return _alt(X.n, 1, *_raise_first(X.n, ())(*g, X.space, X.c))


# -- full alternating evaluation (independent brute-force oracle) ---------


def apply(omega, vectors):
    """Evaluate on tangent vectors by determinant expansion."""
    if len(vectors) != omega.k:
        raise ArityError(f"degree-{omega.k} value applied to {len(vectors)} vectors")
    if omega.k == 0:
        return omega.get(())
    total = 0.0
    for I, c in omega.coeffs.items():
        total = total + c * _det([[v[i] for i in I] for v in vectors])
    return total


def _det(m_rows):
    """Determinant by Laplace expansion; entries may be jets."""
    m = len(m_rows)
    if m == 1:
        return m_rows[0][0]
    total = 0.0
    for j in range(m):
        minor = [r[:j] + r[j + 1 :] for r in m_rows[1:]]
        term = m_rows[0][j] * _det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def apply_vec(phi, vectors):
    """Evaluate a tangent-valued value on vectors; returns components."""
    return [apply(c, vectors) for c in phi.comps]
