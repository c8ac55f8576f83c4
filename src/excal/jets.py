"""Truncated multivariate Taylor (jet) arithmetic.

A jet carries the exact partial derivatives of a scalar quantity at a
point up to a configured order, so every differential-operator identity
downstream holds to floating-point roundoff rather than finite-difference
error.  Storage is dense over all multi-indices of total degree <= order,
in graded lexicographic order, so a jet's coefficients up to a lower order
are a prefix of its array.  Internally coefficients are Taylor-normalized
(d^a f / a!), the raw partials are recovered by :func:`jet_partial`.

The order rule: arithmetic on two jets of different orders gives a jet of
the lower order, reading the longer operand's prefix in place, so no
caller tracks orders; :func:`jet_diff` is the only thing that lowers an
order.  Reading in place is safe because a jet's array is never written
after the jet is built.

The constant rule: a value that does not depend on the point is a plain
number, and a value that does is a jet, even at order 0.  Only jets carry
derivatives, so JetBudgetExhausted fires exactly when a point-dependent
value is differentiated past its order, while a constant differentiates
to 0.0 at any order.  The functions that read or transform one
coefficient take a number as a constant: is_zero, scalar_value,
jet_partial, jet_diff and jet_apply.

The point rule: a jet holds its coefficients at one point as an (S,)
array, or at each of P points as an (S, P) array, column p the jet at
point p (vector-mode Taylor propagation).  Every operation acts on each
column as it acts on a one-point jet, so each point's column is bit for
bit its one-point jet: the arithmetic is elementwise or one mul_coeffs
pass, and a function's Taylor series is computed from each point's value
with math, as at one point.  An operation refused at one point (a
DomainError or a DivisionByZeroAtPoint) is refused for the whole jet.
"""

import functools
import math

import numpy as np

from .errors import (
    DivisionByZeroAtPoint,
    DomainError,
    JetBudgetExhausted,
    OrderExceeded,
    ShapeMismatch,
)

MAX_ORDER = 4

_spaces = {}


def backend_name():
    return "numpy"


# The most terms x points one mul_coeffs pass multiplies: it splits the point
# axis so that each of its temporaries (the two gathered operands, their
# product and the bincount index) holds at most this many elements, 512 KiB.
KERNEL_CHUNK = 1 << 16


def mul_coeffs(a, b, idx_a, idx_b, idx_out, size):
    """The truncated Taylor-coefficient convolution behind jet multiplication:
    out[idx_out] += a[idx_a] * b[idx_b].

    One-point operands are 1-D, and so is the result.  Operands of several
    points are (rows, P) arrays, one of them (rows, 1) when it is the same at
    every point, and the result is (size, P): each gather reads rows of P
    contiguous values, and one bincount over the bin idx_out * P + p sums
    every point.  A bin sums its terms in term order, as one point alone
    does, so each point's result is bit for bit its one-point result."""
    if a.ndim == 1:
        out = np.bincount(idx_out, weights=a[idx_a] * b[idx_b], minlength=size)
        # bincount of no terms gives int64 zeros, weights or not
        return out if len(idx_out) else out.astype(float)
    P = max(a.shape[1], b.shape[1])
    out = np.empty((size, P))
    step = max(1, KERNEL_CHUNK // max(len(idx_a), 1))
    for lo in range(0, P, step):
        w = _points(a, lo, step)[idx_a] * _points(b, lo, step)[idx_b]
        m = w.shape[1]
        idx = (idx_out[:, None] * m + np.arange(m)).ravel()
        out[:, lo:lo + m] = np.bincount(idx, weights=w.ravel(), minlength=size * m).reshape(size, m)
    return out


def _points(x, lo, step):
    """Columns lo..lo + step of a (rows, P) operand; all of a one-point one."""
    return x if x.shape[1] == 1 else x[:, lo:lo + step]


def _graded_multi_indices(n, order):
    out = []
    for deg in range(order + 1):
        level = []

        def rec(prefix, remaining, slots):
            if slots == 1:
                level.append(prefix + (remaining,))
                return
            for v in range(remaining + 1):
                rec(prefix + (v,), remaining - v, slots - 1)

        if n == 0:
            if deg == 0:
                level.append(())
        else:
            rec((), deg, n)
        # lex order within a degree level
        level.sort()
        out.extend(level)
    return out


class JetSpace:
    """Index tables for jets with a fixed variable count and order."""

    def __init__(self, n, order):
        self.n = n
        self.order = order
        self.midx = _graded_multi_indices(n, order)
        self.size = len(self.midx)
        self.index = {a: i for i, a in enumerate(self.midx)}
        self.fact = np.array(
            [math.prod(math.factorial(v) for v in a) for a in self.midx]
        )

    @functools.cached_property
    def mul_table(self):
        ia, ib, io = [], [], []
        for i, a in enumerate(self.midx):
            da = sum(a)
            for j, b in enumerate(self.midx):
                if da + sum(b) > self.order:
                    continue
                ia.append(i)
                ib.append(j)
                io.append(self.index[tuple(x + y for x, y in zip(a, b))])
        return (
            np.array(ia, dtype=np.int64),
            np.array(ib, dtype=np.int64),
            np.array(io, dtype=np.int64),
        )

    @functools.cached_property
    def diff_tables(self):
        """(source indices, factors), each of shape (n, S') for S' the size of
        the space one order lower: the partial along variable i of a jet
        here has coefficient j equal to fac[i, j] * c[src[i, j]]."""
        if self.order == 0:
            raise JetBudgetExhausted(
                "cannot differentiate an order-0 jet; raise the jet order"
            )
        target = jet_space(self.n, self.order - 1)
        src = np.empty((self.n, target.size), dtype=np.int64)
        fac = np.empty((self.n, target.size))
        for i in range(self.n):
            for j, b in enumerate(target.midx):
                bp = list(b)
                bp[i] += 1
                src[i, j] = self.index[tuple(bp)]
                fac[i, j] = b[i] + 1
        return src, fac


def jet_space(n, order):
    sp = _spaces.get((n, order))
    if sp is None:
        if order < 0:
            raise JetBudgetExhausted("negative jet order requested")
        if order > MAX_ORDER:
            raise JetBudgetExhausted(
                f"jet order {order} exceeds the hard cap {MAX_ORDER}"
            )
        sp = _spaces[n, order] = JetSpace(n, order)
    return sp


_NUMBER = (int, float, np.floating, np.integer)


class Jet:
    """Immutable truncated Taylor expansion of a scalar at a point, or at
    each point of a context (c of shape (S, P))."""

    __slots__ = ("space", "c")

    def __init__(self, space, coeffs):
        self.space = space
        self.c = coeffs

    @property
    def order(self):
        return self.space.order

    @property
    def value(self):
        """The value at the point as a float; at several points, an array."""
        return float(self.c[0]) if self.c.ndim == 1 else self.c[0]

    def truncate(self, order):
        if order == self.order:
            return self
        if order > self.order:
            raise OrderExceeded(
                f"cannot extend an order-{self.order} jet to order {order}"
            )
        sp = jet_space(self.space.n, order)
        return Jet(sp, self.c[: sp.size].copy())

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        """The common space of self and a jet other, the lower order's, and
        each one's coefficients read at it: prefix views, not copies."""
        if other.space is self.space:
            return self.space, self.c, other.c
        if other.space.n != self.space.n:
            raise ShapeMismatch(
                f"jet variable counts differ: {self.space.n} vs {other.space.n}"
            )
        sp = self.space if self.order < other.order else other.space
        return sp, self.c[: sp.size], other.c[: sp.size]

    def _shift(self, v):
        """self + v for a number v: only the value coefficient moves."""
        c = self.c.copy()
        c[0] += v
        return Jet(self.space, c)

    def __add__(self, other):
        if isinstance(other, _NUMBER):
            return self._shift(float(other))
        if not isinstance(other, Jet):
            return NotImplemented
        sp, a, b = self._coerce(other)
        return Jet(sp, a + b)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _NUMBER):
            return self._shift(-float(other))
        if not isinstance(other, Jet):
            return NotImplemented
        sp, a, b = self._coerce(other)
        return Jet(sp, a - b)

    def __rsub__(self, other):
        if isinstance(other, _NUMBER):
            return (-self)._shift(float(other))
        return NotImplemented

    def __neg__(self):
        return Jet(self.space, -self.c)

    def __mul__(self, other):
        if isinstance(other, _NUMBER):
            return Jet(self.space, self.c * float(other))
        if not isinstance(other, Jet):
            return NotImplemented
        sp, a, b = self._coerce(other)
        ia, ib, io = sp.mul_table
        return Jet(sp, mul_coeffs(a, b, ia, ib, io, sp.size))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _NUMBER):
            return Jet(self.space, self.c / float(other))
        if not isinstance(other, Jet):
            return NotImplemented
        sp, _, b = self._coerce(other)
        return self * Jet(sp, b).reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self):
        if (self.c[0] == 0.0).any():
            raise DivisionByZeroAtPoint("division by a jet with value 0")
        m = range(self.order + 1)
        series = _series_at("reciprocal", self, lambda v: [(-1.0) ** k / v ** (k + 1) for k in m])
        return _compose(series, self)

    def __pow__(self, r):
        """self ** r.  An integral r, int or integral float, multiplies at any
        base (a negative r through the reciprocal); any other r composes the
        power series, which needs a positive base."""
        if isinstance(r, (int, np.integer)) or float(r).is_integer():
            k = int(r)
            if k < 0:
                return self.reciprocal() ** (-k)
            # binary exponentiation: one multiply per bit of k, not per unit;
            # an overflow is refused below as a DomainError, not warned about
            out, base = None, self
            with np.errstate(over="ignore", invalid="ignore"):
                while k:
                    if k & 1:
                        out = base if out is None else out * base
                    k >>= 1
                    if k:
                        base = base * base
            if out is None:
                return Jet(self.space, np.zeros_like(self.c)) + 1.0
            finite = np.isfinite(out.c)
            if not finite.all():
                raise DomainError("pow", float(np.extract(~finite.all(axis=0), self.c[0])[0]))
            return out
        return jet_apply("pow", self, float(r))

    def __repr__(self):
        return f"Jet(n={self.space.n}, order={self.order}, value={self.value})"


# -- constructors -------------------------------------------------------


def jet_const(c, n_vars, order):
    sp = jet_space(n_vars, order)
    coeffs = np.zeros(sp.size)
    coeffs[0] = c
    return Jet(sp, coeffs)


def jet_var(p, i, order):
    """The jet of coordinate i at the point p; where p[i] is an array of the
    coordinate's values at P points, its (S, P) jet at each."""
    n = len(p)
    if not 0 <= i < n:
        raise ShapeMismatch(f"coordinate index {i} out of range for {n} variables")
    sp = jet_space(n, order)
    x = np.asarray(p[i], dtype=float)
    coeffs = np.zeros((sp.size,) + x.shape)
    coeffs[0] = x
    if order >= 1:
        e = tuple(1 if j == i else 0 for j in range(n))
        coeffs[sp.index[e]] = 1.0
    return Jet(sp, coeffs)


@functools.lru_cache(maxsize=64)
def _monomial_plan(monomials, space):
    """What monomial_jets needs for one monomial list and jet space: the rows
    of the numbers, of the linear monomials and their variables, and of the
    quadratics and their two variables; and each quadratic's Taylor position
    of e_a + e_b, none below order 2."""
    by_degree = ([], [], [])
    for t, m in enumerate(monomials):
        by_degree[len(m)].append((t,) + m)
    top = [space.index[tuple((a == i) + (b == i) for i in range(space.n))]
           for _, a, b in by_degree[2]] if space.order >= 2 else []
    one, lin, quad = (np.array(g, dtype=np.int64).reshape(len(g), j + 1)
                      for j, g in enumerate(by_degree))
    return (one[:, 0], lin[:, 0], lin[:, 1], quad[:, 0], quad[:, 1], quad[:, 2],
            np.array(top, dtype=np.int64))


def monomial_jets(coords, monomials):
    """The (P, T, S) array whose [p, t] is the jet at point p of
    prod(x_a for a in monomials[t]) at the coordinate jets coords, the
    point axis first (P = 1 for one-point jets), for monomials of degree at
    most 2, in closed form: 1; x_a; and for x_a*x_b the value p_a*p_b, p_b
    on e_a and p_a on e_b (2*p_a on e_a when a = b), and 1 on e_a + e_b."""
    sp = coords[0].space
    one, lin, la, quad, qa, qb, top = _monomial_plan(monomials, sp)
    X = np.array([x.c for x in coords])  # (n, S) or (n, S, P)
    if X.ndim == 2:
        X = X[..., None]
    p = X[:, 0]
    out = np.zeros((len(monomials), sp.size, X.shape[-1]))
    out[one, 0] = 1.0
    out[lin] = X[la]
    # p_b*x_a + p_a*x_b holds the first-order entries; its value, twice
    # p_a*p_b, is then replaced
    out[quad] = p[qb, None] * X[qa] + p[qa, None] * X[qb]
    out[quad, 0] = p[qa] * p[qb]
    if sp.order >= 2:
        out[quad, top] = 1.0
    return np.ascontiguousarray(out.transpose(2, 0, 1))


# -- named operation surface --------------------------------------------


def is_zero(c):
    """Whether a coefficient is zero: a number equal to 0 (so -0.0 too), or a
    jet with no nonzero Taylor coefficient at any point.  A NaN is not zero."""
    if isinstance(c, Jet):
        return not np.count_nonzero(c.c)
    return c == 0


def scalar_value(c):
    """The value of a jet coefficient (Jet.value), or a plain number as a float."""
    return c.value if isinstance(c, Jet) else float(c)


def jet_partial(a, alpha):
    """The raw partial d^alpha a at the point; a plain number is constant,
    so it is its own value and every other partial of it is 0.0."""
    alpha = tuple(alpha)
    if not isinstance(a, Jet):
        return 0.0 if any(alpha) else float(a)
    if len(alpha) != a.space.n:
        raise ShapeMismatch("multi-index length does not match variable count")
    if sum(alpha) > a.order:
        raise OrderExceeded(
            f"partial {alpha} exceeds jet order {a.order}"
        )
    i = a.space.index[alpha]
    return float(a.c[i] * a.space.fact[i])


def jet_diff(a, i):
    """Partial derivative along variable i, as a jet of one order less; a
    plain-number coefficient is constant and differentiates to 0.0."""
    if not isinstance(a, Jet):
        return 0.0
    src, fac = a.space.diff_tables
    target = jet_space(a.space.n, a.order - 1)
    return Jet(target, (a.c[src[i]].T * fac[i]).T)


# -- elementary functions ------------------------------------------------


def _compose(series, a):
    """Horner evaluation of a univariate Taylor series in (a - a.value),
    series[m] the coefficient m at each of a's points."""
    u = Jet(a.space, a.c.copy())
    u.c[0] = 0.0
    out = Jet(a.space, np.zeros_like(a.c))
    out.c[0] = series[-1]
    for m in range(len(series) - 2, -1, -1):
        out = out * u
        out.c[0] += series[m]
    return out


def _series_at(fn, a, series):
    """The coefficients series(v) at the value v of each point of a, (m,)
    for a one-point jet and (m, P) for P points; an overflow at a value is
    refused as a DomainError there."""
    values = a.c[0].tolist()
    out = []
    for v in values if a.c.ndim > 1 else [values]:
        try:
            out.append(series(v))
        except (OverflowError, ZeroDivisionError):
            raise DomainError(fn, v)
    return np.asarray(out[0]) if a.c.ndim == 1 else np.array(out).T


def _binom(r, m):
    out = 1.0
    for j in range(m):
        out *= (r - j) / (j + 1)
    return out


def _series(fn, x0, order, r=None):
    if not math.isfinite(x0):
        raise DomainError(fn, x0)
    m = order + 1
    if fn == "sin":
        cyc = [math.sin(x0), math.cos(x0), -math.sin(x0), -math.cos(x0)]
        return np.array([cyc[k % 4] / math.factorial(k) for k in range(m)])
    if fn == "cos":
        cyc = [math.cos(x0), -math.sin(x0), -math.cos(x0), math.sin(x0)]
        return np.array([cyc[k % 4] / math.factorial(k) for k in range(m)])
    if fn == "tan":
        if math.cos(x0) == 0.0:
            raise DomainError("tan", x0)
        c = [math.tan(x0)]
        for k in range(order):
            s = sum(c[i] * c[k - i] for i in range(k + 1))
            c.append(((1.0 if k == 0 else 0.0) + s) / (k + 1))
        return np.array(c)
    if fn == "exp":
        e = math.exp(x0)
        return np.array([e / math.factorial(k) for k in range(m)])
    if fn == "log":
        if x0 <= 0.0:
            raise DomainError("log", x0)
        c = [math.log(x0)]
        c += [(-1.0) ** (k - 1) / (k * x0**k) for k in range(1, m)]
        return np.array(c)
    if fn == "sqrt":
        if x0 <= 0.0:
            raise DomainError("sqrt", x0)
        return np.array([_binom(0.5, k) * x0 ** (0.5 - k) for k in range(m)])
    if fn == "pow":
        if x0 <= 0.0:
            raise DomainError("pow", x0)
        return np.array([_binom(r, k) * x0 ** (r - k) for k in range(m)])
    raise ValueError(f"unknown jet function {fn!r}")


def jet_apply(fn, a, r=None):
    """Apply an elementary function to a jet by Taylor composition, or to a
    plain number through math."""
    if not isinstance(a, Jet):
        if fn in ("log", "sqrt") and a <= 0.0:
            raise DomainError(fn, a)
        try:
            return getattr(math, fn)(a)
        except (OverflowError, ValueError):  # math range and domain errors
            raise DomainError(fn, a)
    return _compose(_series_at(fn, a, lambda v: _series(fn, v, a.order, r)), a)
