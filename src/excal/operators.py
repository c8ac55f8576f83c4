"""Operator calculus on jet-valued forms at the points of a chart context.

All operators act on AltValue / VecAltValue objects, dense coefficient
arrays whose entries are Taylor coefficients of jets or, for a constant
value, plain numbers, at each point of the context, obtained from fields
via FormField.at(ctx).  A ChartContext of one point and one of several
take the same code: the points are an array axis, never a loop.
Differentiation consumes one jet order per application; differentiating
a point-dependent value past its order fails loudly (JetBudgetExhausted),
while a constant one differentiates to zero at any order.

Each operator is a few whole-array steps over the one kind of table alt
has, a _Product, which returns its result in the layout its builder
states: d is the partials of every coefficient (alt._partials) and one
linear product, _ONE times the partials, whose terms (sign, 0, (a, I)
row, out row) come from _sort_sign of (a,) + I; nabla adds to the
partials one product of the Christoffel array with the form, whose terms
pair Gamma^m_{a I_s} with the coefficient at I with I_s replaced by m,
the sort sign folded into the gather, and skips it on a chart whose
Christoffel symbols are the zero constant; delta (contracted with g^{-1},
no frame), omega-nabla, the curvature shuffle sum, endomorphism
composition and the Nijenhuis tensor are each one product over the
context's dense arrays (ChartContext.g_inv, gamma, curvature).

Sign conventions, fixed globally:
  [A, B]  = A o B - (-1)^{|A||B|} B o A
  {A, B}  = A o B + B o A
  L_phi   = i_phi o d - (-1)^{p-1} d o i_phi     (phi of degree p)
  nabla_phi = L_phi - (-1)^p i_{d^nabla phi}
"""

from functools import cache

import numpy as np

from .alt import (
    AltValue,
    VecAltValue,
    _alt,
    _basis,
    _matmul,
    _ONE,
    _partials,
    _Product,
    _raise_first,
    _rows,
    _shuffles,
    _sort_sign,
    _sum,
    _vec,
    interior,
    sharp,
    wedge,
)
from .compare import _first_failure
from .errors import DegreeError, NotADerivation, ReconstructionMismatch
from .prng import SplitMix64, derive_seed


# -- tables ------------------------------------------------------------------


@cache
def _ext_d(n, k, vec):
    """d from the partials (a, I) of a form of degree k, or (a, component, I)
    of the n components of a tangent-valued one with vec: _ONE times them."""
    comps = n if vec else 1
    rk, out = len(_basis(n, k)), _rows(n, k + 1)
    terms = []
    for a in range(n):
        for b in range(comps):
            for i, I in enumerate(_basis(n, k)):
                s, key = _sort_sign((a,) + I)
                if s:
                    terms.append((s, 0, (a * comps + b) * rk + i, b * len(out) + out[key]))
    return _Product(terms, 1, ((n,) if vec else ()) + (len(out),))


@cache
def _connection(n, k, vec):
    """The Christoffel part of nabla_a for every direction a: Gamma^m_{a i}
    at row (m*n + a)*n + i, a form (or each of n components of a
    tangent-valued one, with vec) of degree k; out row (a, component, I)."""
    where, rk = _rows(n, k), len(_basis(n, k))
    comps = n if vec else 1
    terms = []
    for a in range(n):
        for b in range(comps):
            for r, I in enumerate(_basis(n, k)):
                o = (a * comps + b) * rk + r
                for s in range(k):
                    for m in range(n):
                        sign, key = _sort_sign(I[:s] + (m,) + I[s + 1 :])
                        if sign:
                            terms.append((-sign, (m * n + a) * n + I[s], b * rk + where[key], o))
                if vec:
                    for m in range(n):
                        terms.append((1, (b * n + a) * n + m, m * rk + r, o))
    return _Product(terms, n * n * n, (n,) + ((n,) if vec else ()) + (rk,))


@cache
def _codiff(n, k):
    """delta w = -sum_{a,b} g^{ab} i_{e_b} nabla_a w, g^{ab} at row a*n + b."""
    where, rk = _rows(n, k), len(_basis(n, k))
    terms = []
    for j, J in enumerate(_basis(n, k - 1)):
        for b in range(n):
            s, key = _sort_sign((b,) + J)
            if s:
                for a in range(n):
                    terms.append((-s, a * n + b, a * rk + where[key], j))
    return _Product(terms, n * n, (len(_basis(n, k - 1)),))


@cache
def _nijenhuis(n):
    """N^b_{ij} from T^b_c at row b*n + c and d_a T^b_c at row (a*n + b)*n + c:
    sum_a T^a_i d_a T^b_j - T^a_j d_a T^b_i, plus sum_c T^b_c d_j T^c_i
    - T^b_c d_i T^c_j; out row (b, (i, j))."""
    out = _rows(n, 2)
    terms = []
    for b in range(n):
        for (i, j), r in out.items():
            o = b * len(out) + r
            for a in range(n):
                terms.append((1, a * n + i, (a * n + b) * n + j, o))
                terms.append((-1, a * n + j, (a * n + b) * n + i, o))
            for c in range(n):
                terms.append((1, b * n + c, (j * n + c) * n + i, o))
                terms.append((-1, b * n + c, (i * n + c) * n + j, o))
    return _Product(terms, n * n, (n, len(out)))


@cache
def _curvature(n, p):
    """(d^nabla)^2 phi by the curvature shuffle sum, R[i][j][b][l] at row
    ((i*n + j)*n + b)*n + l and phi of degree p."""
    m = p + 2
    rp, rm = _rows(n, p), len(_basis(n, m))
    terms = []
    for o, M in enumerate(_basis(n, m)):
        for sign, chosen, others in _shuffles(m, 2):
            i, j = M[chosen[0]], M[chosen[1]]
            rest = rp[tuple(M[t] for t in others)]
            for b in range(n):
                for l in range(n):
                    terms.append((sign, ((i * n + j) * n + b) * n + l, b * len(rp) + rest, l * rm + o))
    return _Product(terms, n ** 4, (n, rm))


# -- first-order operators -------------------------------------------------


def ext_d(ctx, w):
    """Exterior derivative from coefficient jets."""
    n, k = w.n, w.k
    if k + 1 > n:
        return AltValue.zero(n, k + 1)
    sp, D = _partials(n, w.space, w.c)
    return _alt(n, k + 1, *_ext_d(n, k, False)(None, _ONE, sp, D))


def nabla_coord(ctx, w):
    """Covariant derivatives along every coordinate vector e_a, of a form or
    a tangent-valued form w, as (space, array) with the direction first:
    shape (n,) + w.c.shape[:-2] + (S, P)."""
    n, k = w.n, w.k
    vec = isinstance(w, VecAltValue)
    sd, D = _partials(n, w.space, w.c)
    if k == 0 and not vec:
        return sd, D
    sg, G = ctx.gamma()
    if sg is None and not G.any():  # a chart whose Christoffel symbols are zero
        return sd, D
    return _sum(sd, D, *_connection(n, k, vec)(sg, G, w.space, w.c), 1.0)


def codiff(ctx, w):
    """Hodge codifferential contracted with the inverse metric,
    delta w = -sum_{a,b} g^{ab} i_{e_b} nabla_a w."""
    n, k = w.n, w.k
    if k == 0 or k > n:
        # degree k - 1 even when structurally zero, so compositions that
        # wedge or add the result keep consistent degree bookkeeping
        return AltValue.zero(n, k - 1)
    sn, N = nabla_coord(ctx, w)
    return _alt(n, k - 1, *_codiff(n, k)(*ctx.g_inv(), sn, N))


def nabla_vec_coord(ctx, phi):
    """Covariant derivatives of a tangent-valued form along each e_a, as a
    list of n tangent-valued forms."""
    sp, N = nabla_coord(ctx, phi)
    return [_vec(phi.n, phi.k, sp, Na) for Na in N]


def d_nabla(ctx, phi):
    """Covariant exterior derivative of a tangent-valued form."""
    n, k = phi.n, phi.k
    sp, N = nabla_coord(ctx, phi)
    return _vec(n, k + 1, *_ext_d(n, k, True)(None, _ONE, sp, N))


def lie_vec(ctx, phi, w):
    """Frolicher-Nijenhuis Lie derivative L_phi = [i_phi, d]."""
    p = phi.k
    out = interior(phi, ext_d(ctx, w))
    second = ext_d(ctx, interior(phi, w))
    if (p - 1) % 2 == 0:
        return out - second
    return out + second


def nabla_vec(ctx, phi, w):
    """Generalized covariant derivative nabla_phi = L_phi - (-1)^p i_{d^nabla phi}."""
    p = phi.k
    out = lie_vec(ctx, phi, w)
    corr = interior(d_nabla(ctx, phi), w)
    if p % 2 == 0:
        return out - corr
    return out + corr


# -- metric-dependent vector-valued companions of a form --------------------


def sharp_field(ctx, w):
    """Musical sharp with jet coefficients (evaluable in a neighborhood)."""
    return sharp(w, ctx.g_inv())


def omega_nabla(ctx, w):
    """sum_{a,b} g^{ab} (nabla_a w) wedge e_b."""
    if w.k == 0:
        raise DegreeError("omega_nabla needs a form of degree >= 1")
    n = w.n
    sn, N = nabla_coord(ctx, w)
    return _vec(n, w.k, *_raise_first(n, (len(_basis(n, w.k)),))(*ctx.g_inv(), sn, N))


def omega_diamond(ctx, w, variant=0):
    """The tangent-valued form controlling [delta, eps_w]; three equal forms."""
    if w.k == 0:
        raise DegreeError("diamond needs a form of degree >= 1")
    if variant == 0:
        return d_nabla(ctx, sharp_field(ctx, w)) + omega_nabla(ctx, w)
    if variant == 1:
        two_d = d_nabla(ctx, sharp_field(ctx, w)).scale(2.0)
        return two_d + sharp_field(ctx, ext_d(ctx, w))
    if variant == 2:
        return omega_nabla(ctx, w).scale(2.0) - sharp_field(ctx, ext_d(ctx, w))
    raise ValueError(f"diamond variant must be 0, 1 or 2, got {variant!r}")


# -- graded commutators ------------------------------------------------------


class Operator:
    """A degree-graded operator on jet-valued forms, applied via ctx."""

    def __init__(self, name, degree, fn):
        self.name = name
        self.degree = degree
        self.fn = fn

    def __call__(self, ctx, w):
        return self.fn(ctx, w)

    def __repr__(self):
        return f"Operator({self.name!r}, degree={self.degree})"


def op_d():
    return Operator("d", 1, ext_d)


def op_delta():
    return Operator("delta", -1, codiff)


def op_eps(omega):
    """Left wedge multiplication by a form field or an evaluated form."""
    if hasattr(omega, "at"):
        return Operator("eps", omega.degree, lambda ctx, w: wedge(omega.at(ctx), w))
    return Operator("eps", omega.k, lambda ctx, w: wedge(omega, w))


def op_interior(phi):
    """i_phi for an evaluated tangent-valued form phi."""
    return Operator("i", phi.k - 1, lambda ctx, w: interior(phi, w))


def op_lie(phi):
    """L_phi for an evaluated tangent-valued form phi."""
    return Operator("lie", phi.k, lambda ctx, w: lie_vec(ctx, phi, w))


def graded_comm(ctx, A, B, w, anti=False):
    """[A,B]w = A(B w) - (-1)^{|A||B|} B(A w); with anti, A(B w) + B(A w)."""
    ab = A(ctx, B(ctx, w))
    ba = B(ctx, A(ctx, w))
    if anti:
        return ab + ba
    if (A.degree * B.degree) % 2 == 0:
        return ab - ba
    return ab + ba


# -- Frolicher-Nijenhuis decomposition ---------------------------------------


def _coord_fn(ctx, c):
    x = ctx.coords[c]
    return _alt(ctx.geometry.n, 0, x.space, x.c.reshape(1, x.space.size, -1))


def _test_form(ctx, degree, seed):
    """Deterministic low-degree polynomial jet form for validation passes."""
    n = ctx.geometry.n
    rng = SplitMix64(derive_seed(seed, n, degree, "fn-test"))
    sp = ctx.coords[0].space
    c = np.zeros((len(_basis(n, degree)), sp.size, len(ctx.points)))
    for row in c:
        row[0] = rng.uniform(-1.0, 1.0)
        for x in ctx.coords:
            row += rng.uniform(-1.0, 1.0) * x.c.reshape(sp.size, -1)
    return _alt(n, degree, sp, c)


FN_REL_TOL = 1e-8  # relative tolerance of both validation passes
FN_TEST_SEED = 12345  # seed of the validation test forms


def fn_decompose(ctx, D):
    """Split a degree-p derivation into D = L_phi + i_psi at every point of ctx.

    phi is read off from D on coordinate functions, psi from the residue of
    D on coordinate 1-forms.  Validates the Leibniz property on sampled
    products (NotADerivation) and the reconstruction on a randomized form
    (ReconstructionMismatch), both by value at each point alone to relative
    tolerance FN_REL_TOL, naming the first point that fails; a non-finite
    value raises NonFiniteValue.
    """
    n = ctx.geometry.n
    p = D.degree

    # Leibniz check on products of sampled forms
    alpha = _test_form(ctx, 0, FN_TEST_SEED)
    beta = _test_form(ctx, 1, derive_seed(FN_TEST_SEED, 1))
    lhs = D(ctx, wedge(alpha, beta))
    rhs = wedge(D(ctx, alpha), beta) + wedge(alpha, D(ctx, beta))
    failed = _first_failure([(lhs, rhs)], ctx.points, 0.0, FN_REL_TOL)
    if failed:
        at, err = failed
        raise NotADerivation(f"operator {D.name!r} fails the Leibniz property at {at} (err {err})")

    phi = VecAltValue(n, p, [D(ctx, _coord_fn(ctx, c)) for c in range(n)])
    dx = [AltValue(n, 1, {(c,): 1.0}) for c in range(n)]
    psi = VecAltValue(n, p + 1, [D(ctx, w) - lie_vec(ctx, phi, w) for w in dx])

    # reconstruction check on a randomized degree-2 form
    if n >= 2:
        test = _test_form(ctx, 2, derive_seed(FN_TEST_SEED, 2))
        got = D(ctx, test)
        want = lie_vec(ctx, phi, test) + interior(psi, test)
        failed = _first_failure([(got, want)], ctx.points, 0.0, FN_REL_TOL)
        if failed:
            at, err = failed
            raise ReconstructionMismatch(
                f"decomposition of {D.name!r} fails to reconstruct it at {at} (err {err})"
            )
    return phi, psi


# -- auxiliary tensors --------------------------------------------------------


def endo_compose(T, S):
    """Composition T o S of endomorphisms given as degree-1 VecAltValues."""
    n = T.n
    return _vec(n, 1, *_matmul(n)(T.space, T.c, S.space, S.c))


def nijenhuis(ctx, T):
    """Nijenhuis tensor of an endomorphism field, on coordinate vectors:
    N(e_i, e_j) = [T e_i, T e_j] - T[T e_i, e_j] - T[e_i, T e_j]."""
    n = T.n
    sd, D = _partials(n, T.space, T.c)
    return _vec(n, 2, *_nijenhuis(n)(T.space, T.c, sd, D))


def lie_metric(ctx, xi):
    """(L_xi g)_{ij} at [i, j] as a symmetric (space, array) pair, by the
    Killing identity (L_xi g)(Y,Z) = g(nabla_Y xi, Z) + g(Y, nabla_Z xi).
    """
    n = ctx.geometry.n
    sn, N = nabla_coord(ctx, xi)  # N[a, c, 0] = (nabla_a xi)^c
    # low[b, a] = sum_c g_{cb} (nabla_a xi)^c = g(nabla_a xi, e_b)
    sp, low = _raise_first(n, (n,))(*ctx.g(), sn, N[:, :, 0].swapaxes(0, 1))
    return sp, low + low.swapaxes(0, 1)


def two_tensor_sharp(ctx, t):
    """Metric contraction of a symmetric (0,2)-tensor, a (space, array)
    pair with t_{ij} at [i, j], to an endomorphism."""
    n = ctx.geometry.n
    return _vec(n, 1, *_raise_first(n, (n,))(*ctx.g_inv(), *t))


def curvature_shuffle(ctx, phi):
    """(d^nabla)^2 phi via the Riemann curvature shuffle sum."""
    n, p = phi.n, phi.k
    return _vec(n, p + 2, *_curvature(n, p)(*ctx.curvature(), phi.space, phi.c))


# -- pointwise extraction -----------------------------------------------------


def value_of(w):
    """Strip jets down to order-0 coefficient values: a constant value."""
    make = _vec if isinstance(w, VecAltValue) else _alt
    return make(w.n, w.k, None, w.c[..., :1, :].copy())
