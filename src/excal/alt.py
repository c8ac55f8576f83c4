"""Pointwise multilinear algebra of alternating tensors, stored dense.

Values of scalar k-forms (AltValue) and tangent-valued k-forms
(VecAltValue) at a point, with wedge, interior products via shuffle sums,
contraction (trace), and the musical sharp and flat, which raise and
lower an index with the (space, array) pairs ChartContext.g_inv and
ChartContext.g give.

Layout: an AltValue of degree k on n coordinates is one float array ``c``
of shape (C(n, k), S).  Row r is the basis key ``_basis(n, k)[r]``, in
``combinations(range(n), k)`` order, and column t is Taylor coefficient t
of the value's jet space ``space``, so S = space.size.  A VecAltValue is
one array of shape (n, C(n, k), S), tangent component b first.  Degrees
above the dimension (or below zero) have no rows: they are canonical zero
values, never errors, since operator compositions reach them routinely.

The rules of jets, at the form level:
- order: combining two values works at the lower order and reads the
  longer value's prefix in place; arrays are never written after the
  value holding them is built;
- constant: a value built only from numbers has space None and S = 1.  It
  joins a jet value through its value column only, and it, like the zero
  value, differentiates to zero at any order, while a point-dependent
  value at order 0 raises JetBudgetExhausted;
- zero: zero is an all-zero array, and nothing is dropped when a value is
  built.  Only the read-only views ``.coeffs`` and ``.get`` leave out the
  rows jets.is_zero finds zero; they read a row whose Taylor coefficients
  past its value are all zero as a float, any other row (so every row of an
  order-0 jet value) as a Jet over a view of the row.

Tables: every bilinear operation (wedge, interior, sharp, flat, scaling by a
jet, and the operators' contractions) is one jets.mul_coeffs call over a
_Product table.  Its key-level terms (sign, a row, b row, out row) are
made once per (operation, n, degrees) from _sort_sign and _shuffles, and
expanded once per pair of operand spaces over the Taylor pairs:
JetSpace.mul_table of the lower order for two jets, (0, t, t) when one
side is a constant.  The expansion reads each operand with the stride of
its own array, so a longer operand's prefix is read in place.  Signs are
folded into the gather: a is read from concat((a, -a)), and a negative
term reads the second half.  A linear map (i_dir, trace, the operators'
d) is one signed gather of the same kind, a _Gather, summed by bincount.
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
    number) item, at the lowest order among the jets; the rest is zero."""
    space = _lowest(c.space for _, c in items if isinstance(c, Jet))
    S = _width(space)
    out = np.zeros(shape + (S,))
    for i, c in items:
        if isinstance(c, Jet):
            out[i] = c.c[:S]
        else:
            out[i][0] = c
    return space, out


def _join(parts):
    """(space, array) stacking (space, array) parts of one shape along a new
    first axis, by the order and constant rules."""
    space = _lowest(sp for sp, _ in parts if sp is not None)
    S = _width(space)
    out = np.zeros((len(parts),) + parts[0][1].shape[:-1] + (S,))
    for o, (sp, c) in zip(out, parts):
        if sp is None:
            o[..., 0] = c[..., 0]
        else:
            o[...] = c[..., :S]
    return space, out


def _sum(sa, a, sb, b, sign):
    """(space, a + sign * b) for coefficient arrays of one leading shape."""
    if sa is sb:
        return sa, (a + b if sign > 0 else a - b)
    if sa is None:
        out = b * sign
        out[..., 0] += a[..., 0]
        return sb, out
    if sb is None:
        out = a.copy()
        out[..., 0] += sign * b[..., 0]
        return sa, out
    sp = _lowest((sa, sb))
    S = sp.size
    return sp, (a[..., :S] + b[..., :S] if sign > 0 else a[..., :S] - b[..., :S])


def _scale(s, space, c):
    """(space, s * c) for a jet or number s; a zero s gives the zero value."""
    if is_zero(s):
        return None, np.zeros(c.shape[:-1] + (1,))
    if not isinstance(s, Jet):
        return space, c * float(s)
    lead = c.shape[:-1]
    sp, out = _scaling(math.prod(lead))(s.space, s.c, space, c)
    return sp, out.reshape(lead + (out.shape[-1],))


@cache
def _diff_tables(space):
    """(target space, source indices (n, S'), factors (n, S')) of the
    partials of a jet in space along each variable."""
    src, fac = zip(*space.diff_tables)  # JetBudgetExhausted at order 0
    return jet_space(space.n, space.order - 1), np.array(src), np.array(fac)


def _partials(n, space, c):
    """(space, array) of the partials of every coefficient along each of the
    n coordinates, coordinate first: shape (n,) + c.shape[:-1] + (S',).  A
    constant differentiates to the zero constant."""
    if space is None:
        return None, np.zeros((n,) + c.shape[:-1] + (1,))
    sp, src, fac = _diff_tables(space)
    d = c[..., src] * fac
    return sp, np.ascontiguousarray(d.transpose((d.ndim - 2,) + tuple(range(d.ndim - 2)) + (d.ndim - 1,)))


def _split(c, n):
    """A (n * rows, S) product or gather result as (n, rows, S)."""
    return c.reshape(n, c.shape[0] // n, c.shape[-1])


# -- tables ------------------------------------------------------------------


@cache
def _taylor(sa, sb):
    """(space, ta, tb, to): the Taylor product pairs of coefficients in
    spaces sa and sb (None for a constant), in the result's space."""
    if sa is None or sb is None:
        sp = sb if sa is None else sa
        t = np.arange(_width(sp))
        zero = np.zeros_like(t)
        return (sp, zero, t, t) if sa is None else (sp, t, zero, t)
    sp = _lowest((sa, sb))
    return (sp,) + sp.mul_table


def _columns(terms, width):
    return np.array(terms, dtype=np.int64).reshape(-1, width).T


class _Product:
    """A bilinear map out[ro] += sign * a[ra] * b[rb] between the rows of
    row-major coefficient arrays, a having rows_a rows: one mul_coeffs call
    per application, over the terms expanded for the operands' spaces."""

    __slots__ = ("sign", "ra", "rb", "ro", "rows_a", "rows_out", "_tables")

    def __init__(self, terms, rows_a, rows_out):
        self.sign, self.ra, self.rb, self.ro = _columns(terms, 4)
        self.rows_a = rows_a
        self.rows_out = rows_out
        self._tables = {}

    def _expand(self, sa, sb):
        sp, ta, tb, to = _taylor(sa, sb)
        S = _width(sp)
        ra = (self.ra + np.where(self.sign < 0, self.rows_a, 0)) * _width(sa)
        ia = (ra[:, None] + ta).ravel()
        ib = (self.rb[:, None] * _width(sb) + tb).ravel()
        io = (self.ro[:, None] * S + to).ravel()
        return sp, ia, ib, io, S

    def __call__(self, sa, a, sb, b):
        """(space, out array of shape (rows_out, S))."""
        table = self._tables.get((sa, sb))
        if table is None:
            table = self._tables[sa, sb] = self._expand(sa, sb)
        sp, ia, ib, io, S = table
        a = a.reshape(-1)
        out = jets.mul_coeffs(
            np.concatenate((a, -a)), b.reshape(-1), ia, ib, io, self.rows_out * S
        )
        return sp, out.reshape(self.rows_out, S)


class _Gather:
    """A linear map out[ro] += sign * x[rx] between the rows of row-major
    coefficient arrays, x having rows_in rows: one signed gather, summed by
    bincount, per application."""

    __slots__ = ("sign", "rx", "ro", "rows_in", "rows_out", "_tables")

    def __init__(self, terms, rows_in, rows_out):
        self.sign, self.rx, self.ro = _columns(terms, 3)
        self.rows_in = rows_in
        self.rows_out = rows_out
        self._tables = {}

    def _expand(self, S):
        t = np.arange(S)
        rx = (self.rx + np.where(self.sign < 0, self.rows_in, 0)) * S
        return (rx[:, None] + t).ravel(), (self.ro[:, None] * S + t).ravel()

    def __call__(self, x):
        """The out array of shape (rows_out, S) for x of Taylor width S."""
        S = x.shape[-1]
        table = self._tables.get(S)
        if table is None:
            table = self._tables[S] = self._expand(S)
        ix, io = table
        x = x.reshape(-1)
        out = np.bincount(
            io, weights=np.concatenate((x, -x))[ix], minlength=self.rows_out * S
        )
        return out.reshape(self.rows_out, S)


@cache
def _scaling(count):
    """s * c for a one-row s and a c of count rows."""
    return _Product([(1, 0, r, r) for r in range(count)], 1, count)


@cache
def _matmul(n):
    """(T S)^b_c = sum_m T^b_m S^m_c for n x n matrices at rows b*n + m."""
    terms = [(1, b * n + m, m * n + c, b * n + c)
             for b in range(n) for c in range(n) for m in range(n)]
    return _Product(terms, n * n, n * n)


@cache
def _raise_first(n, rows):
    """out^b_r = sum_a g^{ab} t_{a r}, g^{ab} at row a*n + b."""
    terms = [(1, a * n + b, a * rows + r, b * rows + r)
             for b in range(n) for r in range(rows) for a in range(n)]
    return _Product(terms, n * n, n * rows)


@cache
def _wedge(n, ka, kb, comps):
    """a ^ b for a of degree ka and each of comps components of b."""
    out, rb, rm = _rows(n, ka + kb), len(_basis(n, kb)), len(_basis(n, ka + kb))
    terms = []
    for b in range(comps):
        for i, I in enumerate(_basis(n, ka)):
            for j, J in enumerate(_basis(n, kb)):
                sign, key = _sort_sign(I + J)
                if sign:
                    terms.append((sign, i, b * rb + j, b * rm + out[key]))
    return _Product(terms, len(_basis(n, ka)), comps * rm)


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
    return _Product(terms, n * len(rp), len(_basis(n, m)))


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
    return _Product(terms, n * n, n * rm)


@cache
def _i_dir(n, a, k):
    rk = _rows(n, k)
    terms = []
    for j, J in enumerate(_basis(n, k - 1)):
        s, key = _sort_sign((a,) + J)
        if s:
            terms.append((s, rk[key], j))
    return _Gather(terms, len(rk), len(_basis(n, k - 1)))


@cache
def _trace(n, k):
    """tr phi = sum_b i_{e_b} phi^b, phi^b at rows b*C(n,k) + r."""
    rk = _rows(n, k)
    terms = []
    for j, J in enumerate(_basis(n, k - 1)):
        for b in range(n):
            s, key = _sort_sign((b,) + J)
            if s:
                terms.append((s, b * len(rk) + rk[key], j))
    return _Gather(terms, n * len(rk), len(_basis(n, k - 1)))


# -- values ----------------------------------------------------------------


def _entry(space, row):
    """One coefficient: a float where the row is constant, with Taylor
    coefficients past its value and all of them zero, and a jet row view
    otherwise (so every row of an order-0 jet value)."""
    if space is None or space.order and not row[1:].any():
        return float(row[0])
    return Jet(space, row)


def _read(space, row):
    """One coefficient as _entry gives it, or 0.0 where it is zero."""
    c = _entry(space, row)
    return 0.0 if is_zero(c) else c


def _alt(n, k, space, c):
    """The AltValue holding a built coefficient array."""
    v = object.__new__(AltValue)
    v.n, v.k, v.space, v.c = n, k, space, c
    return v


def _vec(n, k, space, c):
    """The VecAltValue holding a built coefficient array."""
    v = object.__new__(VecAltValue)
    v.n, v.k, v.space, v.c = n, k, space, c
    return v


class AltValue:
    """The value of an alternating k-tensor at a point.

    AltValue(n, k, {key: jet or number}) builds one at the lowest order
    among its jets; a key left out is zero.
    """

    __slots__ = ("n", "k", "space", "c")

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
        return _alt(n, k, None, np.zeros((len(_basis(n, k)), 1)))

    @property
    def coeffs(self):
        """A read-only {key: jet row view or float} of the rows that are not
        zero, in basis order; a constant row reads as a float."""
        out = {}
        for key, row in zip(_basis(self.n, self.k), self.c):
            c = _entry(self.space, row)
            if not is_zero(c):
                out[key] = c
        return MappingProxyType(out)

    def get(self, key):
        r = _rows(self.n, self.k).get(tuple(key))
        return 0.0 if r is None else _read(self.space, self.c[r])

    # -- linear structure --

    def __add__(self, other):
        self._check(other)
        return _alt(self.n, self.k, *_sum(self.space, self.c, other.space, other.c, 1.0))

    def __sub__(self, other):
        self._check(other)
        return _alt(self.n, self.k, *_sum(self.space, self.c, other.space, other.c, -1.0))

    def __neg__(self):
        return _alt(self.n, self.k, self.space, -self.c)

    def scale(self, s):
        return _alt(self.n, self.k, *_scale(s, self.space, self.c))

    def _check(self, other):
        if self.n != other.n or self.k != other.k:
            raise DegreeError(
                f"mismatched alternating values: ({self.n},{self.k}) vs ({other.n},{other.k})"
            )

    def __repr__(self):
        return f"AltValue(n={self.n}, k={self.k}, {dict(self.coeffs)!r})"


class VecAltValue:
    """The value of a tangent-valued alternating k-tensor at a point.

    Component b is the scalar k-tensor multiplying the coordinate tangent
    vector e_b; a degree-0 VecAltValue is a tangent vector.
    VecAltValue(n, k, comps) joins n AltValues by the order rule.
    """

    __slots__ = ("n", "k", "space", "c")

    def __init__(self, n, k, comps=None):
        self.n, self.k = n, k
        if comps is None:
            self.space, self.c = None, np.zeros((n, len(_basis(n, k)), 1))
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
        return _vec(n, 1, None, np.eye(n)[:, :, None])

    def as_vector(self):
        if self.k != 0:
            raise DegreeError("not a tangent vector")
        return [_read(self.space, row) for row in self.c[:, 0]]

    def column(self, c):
        """The components of the image of e_c under a degree-1 value."""
        return [_read(self.space, row) for row in self.c[:, c]]

    def __add__(self, other):
        self._check(other)
        return _vec(self.n, self.k, *_sum(self.space, self.c, other.space, other.c, 1.0))

    def __sub__(self, other):
        self._check(other)
        return _vec(self.n, self.k, *_sum(self.space, self.c, other.space, other.c, -1.0))

    def __neg__(self):
        return _vec(self.n, self.k, self.space, -self.c)

    def scale(self, s):
        return _vec(self.n, self.k, *_scale(s, self.space, self.c))

    def _check(self, other):
        if self.n != other.n or self.k != other.k:
            raise DegreeError("mismatched tangent-valued values")

    def __repr__(self):
        return f"VecAltValue(n={self.n}, k={self.k})"


# -- products -------------------------------------------------------------


def wedge(a, b):
    """Wedge product of scalar alternating values."""
    if a.n != b.n:
        raise DegreeError("wedge operands live in different dimensions")
    n, k = a.n, a.k + b.k
    if k > n:
        return AltValue.zero(n, k)
    return _alt(n, k, *_wedge(n, a.k, b.k, 1)(a.space, a.c, b.space, b.c))


def wedge_sv(omega, phi):
    """Wedge of a scalar form value with a tangent-valued form value."""
    n, k = phi.n, omega.k + phi.k
    if k > n:
        return VecAltValue.zero(n, k)
    sp, c = _wedge(n, omega.k, phi.k, n)(omega.space, omega.c, phi.space, phi.c)
    return _vec(n, k, sp, _split(c, n))


def i_dir(a, omega):
    """Classical interior product with the coordinate vector e_a."""
    n, k = omega.n, omega.k
    return _alt(n, k - 1, omega.space, _i_dir(n, a, k)(omega.c))


def interior(phi, omega):
    """Frolicher-Nijenhuis interior product i_phi omega by shuffle sums.

    phi is tangent-valued of degree p, omega scalar of degree k; the result
    has degree k + p - 1.  Annihilates degree 0.  For p = 0, phi is a
    vector X and this is the classical i_X.
    """
    n, p, k = phi.n, phi.k, omega.k
    m = k + p - 1
    if k == 0 or m > n:
        # canonical zero of degree p - 1 (degree -1 for a plain vector) so
        # downstream degree bookkeeping stays consistent
        return AltValue.zero(n, m)
    return _alt(n, m, *_interior(n, p, k)(phi.space, phi.c, omega.space, omega.c))


def trace(phi):
    """Contraction tr: sum_b i_{e_b} phi^b, of degree k - 1."""
    if phi.k == 0:
        raise DegreeError("trace of a tangent vector is undefined")
    n, k = phi.n, phi.k
    return _alt(n, k - 1, phi.space, _trace(n, k)(phi.c))


def sharp(omega, g_inv):
    """Musical sharp: sum_{a,b} g^{ab} (i_{e_a} omega) wedge e_b, for g_inv
    the (space, array) pair ChartContext.g_inv gives, g^{ab} at [a, b]."""
    if omega.k == 0:
        raise DegreeError("sharp needs a form of degree >= 1")
    n, k = omega.n, omega.k
    sp, c = _sharp_table(n, k)(*g_inv, omega.space, omega.c)
    return _vec(n, k - 1, sp, _split(c, n))


def flat(X, g):
    """Musical flat: the 1-form sum_{a,b} g_{ab} X^a dx^b of a tangent
    vector X, for g the (space, array) pair ChartContext.g gives."""
    if X.k != 0:
        raise DegreeError("flat needs a tangent vector")
    return _alt(X.n, 1, *_raise_first(X.n, 1)(*g, X.space, X.c))


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
