"""Pointwise multilinear algebra of alternating tensors.

Values of scalar k-forms (AltValue) and tangent-valued k-forms
(VecAltValue) at a point, with wedge, interior products via shuffle sums,
contraction (trace), and the musical sharp.  Coefficients are any ring
elements supporting + - * (plain floats or jets), which is how the same
algebra serves both pointwise checks and jet-valued operator evaluation.
By the constant rule of jets, a constant coefficient is a plain float and
only a point-dependent one is a jet.

Degrees above the dimension are canonical zero values, never errors:
operator compositions reach them routinely.

The zero rule: jets.is_zero alone decides zero, AltValue's constructor
drops exactly the coefficients it finds, and so an absent key means zero.
Operators skip absent keys; only raw scalars that never pass through an
AltValue (a scale factor, a Christoffel symbol) call is_zero themselves.
"""

from functools import cache
from itertools import combinations

from .errors import ArityError, DegreeError
from .jets import is_zero


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


def _lookup(w, seq):
    """The coefficient of w at an unsorted index tuple, signed; None if absent."""
    sign, key = _sort_sign(seq)
    c = w.coeffs.get(key) if sign else None
    if c is None:
        return None
    return c if sign > 0 else -c


@cache
def _shuffles(m, p):
    """The (p, m - p) shuffles of m slots, as (sign, chosen, rest) position
    tuples in combinations order; sign is that of sorting chosen + rest."""
    out = []
    for chosen in combinations(range(m), p):
        rest = tuple(i for i in range(m) if i not in chosen)
        out.append((_sort_sign(chosen + rest)[0], chosen, rest))
    return tuple(out)


class AltValue:
    """The value of an alternating k-tensor at a point."""

    __slots__ = ("n", "k", "coeffs")

    def __init__(self, n, k, coeffs=None):
        self.n = n
        self.k = k
        self.coeffs = {}
        if coeffs:
            for key, c in coeffs.items():
                if not is_zero(c):
                    self.coeffs[tuple(key)] = c

    @classmethod
    def zero(cls, n, k):
        return cls(n, k)

    def get(self, key):
        return self.coeffs.get(tuple(key), 0.0)

    # -- linear structure --

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out[key] + c if key in out else c
        return AltValue(self.n, self.k, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AltValue(self.n, self.k, {key: -c for key, c in self.coeffs.items()})

    def scale(self, s):
        if is_zero(s):
            return AltValue.zero(self.n, self.k)
        return AltValue(self.n, self.k, {key: s * c for key, c in self.coeffs.items()})

    def _check(self, other):
        if self.n != other.n or self.k != other.k:
            raise DegreeError(
                f"mismatched alternating values: ({self.n},{self.k}) vs ({other.n},{other.k})"
            )

    def __repr__(self):
        return f"AltValue(n={self.n}, k={self.k}, {self.coeffs!r})"


class VecAltValue:
    """The value of a tangent-valued alternating k-tensor at a point.

    Component b is the scalar k-tensor multiplying the coordinate tangent
    vector e_b; a degree-0 VecAltValue is a tangent vector.
    """

    __slots__ = ("n", "k", "comps")

    def __init__(self, n, k, comps=None):
        self.n = n
        self.k = k
        self.comps = comps if comps is not None else [AltValue.zero(n, k) for _ in range(n)]

    @classmethod
    def zero(cls, n, k):
        return cls(n, k)

    @classmethod
    def from_vector(cls, components):
        """Tangent vector (degree 0) from a component sequence."""
        n = len(components)
        return cls(n, 0, [AltValue(n, 0, {(): c}) for c in components])

    @classmethod
    def from_endomorphism(cls, matrix):
        """Degree-1 value from a matrix: column c maps e_c to sum_b m[b][c] e_b."""
        n = len(matrix)
        comps = []
        for b in range(n):
            comps.append(AltValue(n, 1, {(c,): matrix[b][c] for c in range(n)}))
        return cls(n, 1, comps)

    @classmethod
    def identity(cls, n):
        return cls.from_endomorphism([[1.0 if b == c else 0.0 for c in range(n)] for b in range(n)])

    def as_vector(self):
        if self.k != 0:
            raise DegreeError("not a tangent vector")
        return [c.get(()) for c in self.comps]

    def column(self, c):
        """The components of the image of e_c under a degree-1 value."""
        return [comp.get((c,)) for comp in self.comps]

    def __add__(self, other):
        if self.n != other.n or self.k != other.k:
            raise DegreeError("mismatched tangent-valued values")
        return VecAltValue(self.n, self.k, [a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return VecAltValue(self.n, self.k, [-c for c in self.comps])

    def scale(self, s):
        return VecAltValue(self.n, self.k, [c.scale(s) for c in self.comps])

    def __repr__(self):
        return f"VecAltValue(n={self.n}, k={self.k})"


# -- products -------------------------------------------------------------


def wedge(a, b):
    """Wedge product of scalar alternating values."""
    if a.n != b.n:
        raise DegreeError("wedge operands live in different dimensions")
    k = a.k + b.k
    if k > a.n:
        return AltValue.zero(a.n, k)
    out = {}
    for I, ca in a.coeffs.items():
        for J, cb in b.coeffs.items():
            sign, key = _sort_sign(I + J)
            if not sign:
                continue
            term = ca * cb if sign > 0 else -(ca * cb)
            out[key] = out[key] + term if key in out else term
    return AltValue(a.n, k, out)


def wedge_sv(omega, phi):
    """Wedge of a scalar form value with a tangent-valued form value."""
    return VecAltValue(phi.n, omega.k + phi.k, [wedge(omega, c) for c in phi.comps])


def i_dir(a, omega):
    """Classical interior product with the coordinate vector e_a."""
    out = {}
    for I, c in omega.coeffs.items():
        if a not in I:
            continue
        pos = I.index(a)
        key = I[:pos] + I[pos + 1 :]
        term = c if pos % 2 == 0 else -c
        out[key] = out[key] + term if key in out else term
    return AltValue(omega.n, omega.k - 1, out)


def interior(phi, omega):
    """Frolicher-Nijenhuis interior product i_phi omega by shuffle sums.

    phi is tangent-valued of degree p, omega scalar of degree k; the result
    has degree k + p - 1.  Annihilates degree 0.  For p = 0, phi is a
    vector X and this is the classical i_X.
    """
    n, p, k = phi.n, phi.k, omega.k
    if k == 0:
        # canonical zero of degree p - 1 (degree -1 for a plain vector) so
        # downstream degree bookkeeping stays consistent
        return AltValue.zero(n, k + p - 1)
    m = k + p - 1
    if m > n:
        return AltValue.zero(n, m)
    out = {}
    for M in combinations(range(n), m):
        for sign, chosen, rest in _shuffles(m, p):
            A = tuple(M[i] for i in chosen)
            R = tuple(M[i] for i in rest)
            for b in range(n):
                ca = phi.comps[b].coeffs.get(A)
                if ca is None:
                    continue
                s2, key = _sort_sign((b,) + R)
                if s2 == 0:
                    continue
                cw = omega.coeffs.get(key)
                if cw is None:
                    continue
                term = ca * cw
                term = term if sign * s2 > 0 else -term
                out[M] = out[M] + term if M in out else term
    return AltValue(n, m, out)


def trace(phi):
    """Contraction tr: sum_b i_{e_b} phi^b, of degree k - 1."""
    if phi.k == 0:
        raise DegreeError("trace of a tangent vector is undefined")
    out = AltValue.zero(phi.n, phi.k - 1)
    for b in range(phi.n):
        out = out + i_dir(b, phi.comps[b])
    return out


def sharp(omega, g_inv):
    """Musical sharp: sum_{a,b} g^{ab} (i_{e_a} omega) wedge e_b."""
    if omega.k == 0:
        raise DegreeError("sharp needs a form of degree >= 1")
    n = omega.n
    comps = [
        interior(VecAltValue.from_vector([g_inv[a][b] for a in range(n)]), omega)
        for b in range(n)
    ]
    return VecAltValue(n, omega.k - 1, comps)


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


def _det(rows):
    """Determinant by Laplace expansion; entries may be jets."""
    m = len(rows)
    if m == 1:
        return rows[0][0]
    total = 0.0
    for j in range(m):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def apply_vec(phi, vectors):
    """Evaluate a tangent-valued value on vectors; returns components."""
    return [apply(c, vectors) for c in phi.comps]
