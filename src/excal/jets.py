"""Truncated multivariate Taylor (jet) arithmetic.

A jet carries the exact partial derivatives of a scalar quantity at a
point up to a configured order, so every differential-operator identity
downstream holds to floating-point roundoff rather than finite-difference
error.  Storage is dense over all multi-indices of total degree <= order,
in graded lexicographic order; truncating to a lower order is a prefix
slice.  Internally coefficients are Taylor-normalized (d^a f / a!), the
raw partials are recovered by :func:`jet_partial`.
"""

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


def mul_coeffs(a, b, idx_a, idx_b, idx_out, size):
    """The truncated Taylor-coefficient convolution behind jet multiplication:
    out[idx_out] += a[idx_a] * b[idx_b]."""
    return np.bincount(idx_out, weights=a[idx_a] * b[idx_b], minlength=size)


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
        self._mul_table = None
        self._diff_tables = None

    @property
    def mul_table(self):
        if self._mul_table is None:
            ia, ib, io = [], [], []
            for i, a in enumerate(self.midx):
                da = sum(a)
                for j, b in enumerate(self.midx):
                    if da + sum(b) > self.order:
                        continue
                    ia.append(i)
                    ib.append(j)
                    io.append(self.index[tuple(x + y for x, y in zip(a, b))])
            self._mul_table = (
                np.array(ia, dtype=np.int64),
                np.array(ib, dtype=np.int64),
                np.array(io, dtype=np.int64),
            )
        return self._mul_table

    @property
    def diff_tables(self):
        """Per-variable (source index, factor) arrays mapping into order-1."""
        if self._diff_tables is None:
            if self.order == 0:
                raise JetBudgetExhausted(
                    "cannot differentiate an order-0 jet; raise the jet order"
                )
            target = jet_space(self.n, self.order - 1)
            tables = []
            for i in range(self.n):
                src = np.empty(target.size, dtype=np.int64)
                fac = np.empty(target.size)
                for j, b in enumerate(target.midx):
                    bp = list(b)
                    bp[i] += 1
                    src[j] = self.index[tuple(bp)]
                    fac[j] = b[i] + 1
                tables.append((src, fac))
            self._diff_tables = tables
        return self._diff_tables


def jet_space(n, order):
    if order < 0:
        raise JetBudgetExhausted("negative jet order requested")
    if order > MAX_ORDER:
        raise JetBudgetExhausted(
            f"jet order {order} exceeds the hard cap {MAX_ORDER}"
        )
    key = (n, order)
    sp = _spaces.get(key)
    if sp is None:
        sp = _spaces[key] = JetSpace(n, order)
    return sp


class Jet:
    """Immutable truncated Taylor expansion of a scalar at a point."""

    __slots__ = ("space", "c")

    def __init__(self, space, coeffs):
        self.space = space
        self.c = coeffs

    @property
    def n_vars(self):
        return self.space.n

    @property
    def order(self):
        return self.space.order

    @property
    def value(self):
        return float(self.c[0])

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
        if isinstance(other, Jet):
            if other.space is self.space:
                return self, other
            if other.space.n != self.space.n:
                raise ShapeMismatch(
                    f"jet variable counts differ: {self.space.n} vs {other.space.n}"
                )
            k = min(self.order, other.order)
            return self.truncate(k), other.truncate(k)
        if isinstance(other, (int, float, np.floating, np.integer)):
            return self, jet_const(float(other), self.space.n, self.order)
        return self, NotImplemented

    def __add__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return Jet(a.space, a.c + b.c)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return Jet(a.space, a.c - b.c)

    def __rsub__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return Jet(a.space, b.c - a.c)

    def __neg__(self):
        return Jet(self.space, -self.c)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet(self.space, self.c * float(other))
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        ia, ib, io = a.space.mul_table
        return Jet(a.space, mul_coeffs(a.c, b.c, ia, ib, io, a.space.size))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet(self.space, self.c / float(other))
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return a * b.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self):
        v = self.value
        if v == 0.0:
            raise DivisionByZeroAtPoint("division by a jet with value 0")
        try:
            series = np.array(
                [(-1.0) ** m / v ** (m + 1) for m in range(self.order + 1)]
            )
        except (OverflowError, ZeroDivisionError):
            raise DomainError("reciprocal", v)
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
                return jet_const(1.0, self.space.n, self.order)
            if not np.isfinite(out.c).all():
                raise DomainError("pow", self.value)
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
    n = len(p)
    if not 0 <= i < n:
        raise ShapeMismatch(f"coordinate index {i} out of range for {n} variables")
    sp = jet_space(n, order)
    coeffs = np.zeros(sp.size)
    coeffs[0] = p[i]
    if order >= 1:
        e = tuple(1 if j == i else 0 for j in range(n))
        coeffs[sp.index[e]] = 1.0
    return Jet(sp, coeffs)


# -- named operation surface --------------------------------------------


def scalar_value(c):
    """The value at the point of a jet coefficient, or a plain number as a float."""
    return c.value if isinstance(c, Jet) else float(c)


def jet_partial(a, alpha):
    alpha = tuple(alpha)
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
    src, fac = a.space.diff_tables[i]
    target = jet_space(a.space.n, a.order - 1)
    return Jet(target, a.c[src] * fac)


# -- elementary functions ------------------------------------------------


def _compose(series, a):
    """Horner evaluation of a univariate Taylor series in (a - a.value)."""
    u = Jet(a.space, a.c.copy())
    u.c[0] = 0.0
    out = jet_const(series[-1], a.space.n, a.order)
    for m in range(len(series) - 2, -1, -1):
        out = out * u + series[m]
    return out


def _binom(r, m):
    out = 1.0
    for j in range(m):
        out *= (r - j) / (j + 1)
    return out


def _series(fn, x0, order, r=None):
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
    """Apply an elementary function to a jet by Taylor composition."""
    if not math.isfinite(a.value):
        raise DomainError(fn, a.value)
    try:
        series = _series(fn, a.value, a.order, r)
    except OverflowError:
        raise DomainError(fn, a.value)
    return _compose(series, a)
