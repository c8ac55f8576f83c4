"""Operator calculus on jet-valued forms at a chart point.

All operators act on AltValue / VecAltValue objects whose coefficients are
jets or, where constant, plain numbers, obtained from fields via
FormField.at(ctx).  Differentiation consumes one jet order per
application; differentiating a point-dependent coefficient past its order
fails loudly (JetBudgetExhausted), while a constant one differentiates to
zero at any order.

Sign conventions, fixed globally:
  [A, B]  = A o B - (-1)^{|A||B|} B o A
  {A, B}  = A o B + B o A
  L_phi   = i_phi o d - (-1)^{p-1} d o i_phi     (phi of degree p)
  nabla_phi = L_phi - (-1)^p i_{d^nabla phi}
"""

from itertools import combinations

from .alt import AltValue, VecAltValue, _lookup, _shuffles, interior, sharp, wedge, wedge_sv
from .compare import alt_errors, exceeds
from .errors import DegreeError, NotADerivation, ReconstructionMismatch
from .geometry import metric_lower
from .jets import is_zero, jet_diff, scalar_value
from .prng import SplitMix64, derive_seed


def _dx(n, a):
    return AltValue(n, 1, {(a,): 1.0})


def _diff_alt(w, a):
    """Coefficientwise partial derivative along coordinate a."""
    return AltValue(w.n, w.k, {I: jet_diff(c, a) for I, c in w.coeffs.items()})


# -- first-order operators -------------------------------------------------


def ext_d(ctx, w):
    """Exterior derivative from coefficient jets."""
    n = w.n
    if w.k + 1 > n:
        return AltValue.zero(n, w.k + 1)
    out = AltValue.zero(n, w.k + 1)
    for a in range(n):
        out = out + wedge(_dx(n, a), _diff_alt(w, a))
    return out


def _gamma_zero_mask(ctx):
    """gamma_zero[m][a][i] is True when Gamma^m_{a i} vanishes identically."""

    def build():
        gamma = ctx.gamma()
        n = len(gamma)
        return [
            [[is_zero(gamma[m][a][i]) for i in range(n)] for a in range(n)]
            for m in range(n)
        ]

    return ctx._memo("gamma_zero", build)


def nabla_coord(ctx, a, w):
    """Covariant derivative along the coordinate vector e_a."""
    if w.k == 0:
        return _diff_alt(w, a)
    gamma = ctx.gamma()
    gz = _gamma_zero_mask(ctx)
    n, k = w.n, w.k
    out = {}
    for I in combinations(range(n), k):
        c = w.coeffs.get(I)
        acc = None if c is None else jet_diff(c, a)
        for s in range(k):
            for m in range(n):
                if gz[m][a][I[s]]:
                    continue
                cm = _lookup(w, I[:s] + (m,) + I[s + 1 :])
                if cm is None:
                    continue
                term = gamma[m][a][I[s]] * cm
                acc = -term if acc is None else acc - term
        if acc is not None:
            out[I] = acc
    return AltValue(n, k, out)


def codiff(ctx, w, descending=False):
    """Hodge codifferential by the orthonormal-frame formula."""
    if w.k == 0 or w.k > w.n:
        # degree k - 1 even when structurally zero, so compositions that
        # wedge or add the result keep consistent degree bookkeeping
        return AltValue.zero(w.n, w.k - 1)
    nabla_all = [nabla_coord(ctx, a, w) for a in range(w.n)]
    out = AltValue.zero(w.n, w.k - 1)
    for X in ctx.frame(descending=descending):
        nx = AltValue.zero(w.n, w.k)
        for a in range(w.n):
            xa = X.comps[a].coeffs.get(())
            if xa is None:
                continue
            nx = nx + nabla_all[a].scale(xa)
        out = out - interior(X, nx)
    return out


def nabla_vec_coord(ctx, a, phi):
    """Covariant derivative of a tangent-valued form along e_a."""
    gamma = ctx.gamma()
    gz = _gamma_zero_mask(ctx)
    n = phi.n
    comps = [nabla_coord(ctx, a, c) for c in phi.comps]
    for b in range(n):
        for m in range(n):
            if gz[b][a][m] or not phi.comps[m].coeffs:
                continue
            comps[b] = comps[b] + phi.comps[m].scale(gamma[b][a][m])
    return VecAltValue(n, phi.k, comps)


def d_nabla(ctx, phi):
    """Covariant exterior derivative of a tangent-valued form."""
    n = phi.n
    out = VecAltValue.zero(n, phi.k + 1)
    for a in range(n):
        out = out + wedge_sv(_dx(n, a), nabla_vec_coord(ctx, a, phi))
    return out


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
    g_inv = ctx.g_inv()
    nabla_all = [nabla_coord(ctx, a, w) for a in range(n)]
    comps = []
    for b in range(n):
        acc = AltValue.zero(n, w.k)
        for a in range(n):
            gab = g_inv[a][b]
            acc = acc + nabla_all[a].scale(gab)
        comps.append(acc)
    return VecAltValue(n, w.k, comps)


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
    n = ctx.geometry.n
    return AltValue(n, 0, {(): ctx.coords[c]})


def _coord_one_form(ctx, c):
    n = ctx.geometry.n
    return AltValue(n, 1, {(c,): 1.0})


def _test_form(ctx, degree, seed):
    """Deterministic low-degree polynomial jet form for validation passes."""
    n = ctx.geometry.n
    rng = SplitMix64(derive_seed(seed, n, degree, "fn-test"))
    coeffs = {}
    for I in combinations(range(n), degree):
        c = rng.uniform(-1.0, 1.0)
        for v in range(n):
            c = c + rng.uniform(-1.0, 1.0) * ctx.coords[v]
        coeffs[I] = c
    return AltValue(n, degree, coeffs)


FN_REL_TOL = 1e-8  # relative tolerance of both validation passes
FN_TEST_SEED = 12345  # seed of the validation test forms


def fn_decompose(ctx, D):
    """Split a degree-p derivation into D = L_phi + i_psi.

    phi is read off from D on coordinate functions, psi from the residue of
    D on coordinate 1-forms.  Validates the Leibniz property on sampled
    products (NotADerivation) and the reconstruction on a randomized form
    (ReconstructionMismatch), both by value to relative tolerance
    FN_REL_TOL; a non-finite value raises NonFiniteValue.
    """
    n = ctx.geometry.n
    p = D.degree

    # Leibniz check on products of sampled forms
    alpha = _test_form(ctx, 0, FN_TEST_SEED)
    beta = _test_form(ctx, 1, derive_seed(FN_TEST_SEED, 1))
    lhs = D(ctx, wedge(alpha, beta))
    rhs = wedge(D(ctx, alpha), beta) + wedge(alpha, D(ctx, beta))
    err, scale = alt_errors(lhs, rhs)
    if exceeds(err, scale, 0.0, FN_REL_TOL):
        raise NotADerivation(f"operator {D.name!r} fails the Leibniz property (err {err})")

    phi = VecAltValue(n, p, [D(ctx, _coord_fn(ctx, c)) for c in range(n)])
    psi_comps = []
    for c in range(n):
        resid = D(ctx, _coord_one_form(ctx, c)) - lie_vec(ctx, phi, _coord_one_form(ctx, c))
        psi_comps.append(resid)
    psi = VecAltValue(n, p + 1, psi_comps)

    # reconstruction check on a randomized degree-2 form
    if n >= 2:
        test = _test_form(ctx, 2, derive_seed(FN_TEST_SEED, 2))
        got = D(ctx, test)
        want = lie_vec(ctx, phi, test) + interior(psi, test)
        err, scale = alt_errors(got, want)
        if exceeds(err, scale, 0.0, FN_REL_TOL):
            raise ReconstructionMismatch(
                f"decomposition of {D.name!r} fails to reconstruct it (err {err})"
            )
    return phi, psi


# -- auxiliary tensors --------------------------------------------------------


def endo_apply(T, v_comps):
    """Apply an endomorphism (VecAltValue deg 1) to vector components."""
    return [
        sum(T.comps[b].coeffs.get((c,), 0.0) * v_comps[c] for c in range(T.n))
        for b in range(T.n)
    ]


def endo_compose(T, S):
    """Composition T o S of endomorphisms given as degree-1 VecAltValues:
    column c is T applied to column c of S."""
    cols = [endo_apply(T, S.column(c)) for c in range(T.n)]
    return VecAltValue.from_endomorphism(list(zip(*cols)))


def nijenhuis(ctx, T):
    """Nijenhuis tensor of an endomorphism field, on coordinate vectors."""
    n = T.n

    def bracket(x, y):
        # [X, Y]^b = sum_a X^a d_a Y^b - Y^a d_a X^b
        out = [0.0] * n
        for a in range(n):
            for b in range(n):
                out[b] = out[b] + x[a] * jet_diff(y[b], a) - y[a] * jet_diff(x[b], a)
        return out

    comps_out = [dict() for _ in range(n)]
    for i in range(n):
        ti = T.column(i)
        for j in range(i + 1, n):
            tj = T.column(j)
            term = bracket(ti, tj)
            # [T e_i, e_j] = -d_j(T e_i); [e_i, T e_j] = d_i(T e_j)
            tb1 = endo_apply(T, [-jet_diff(x, j) for x in ti])
            tb2 = endo_apply(T, [jet_diff(x, i) for x in tj])
            for b in range(n):
                comps_out[b][(i, j)] = term[b] - tb1[b] - tb2[b]
    return VecAltValue(n, 2, [AltValue(n, 2, d) for d in comps_out])


def lie_metric(ctx, xi):
    """(L_xi g)_{ij} as a jet matrix, by the Killing identity
    (L_xi g)(Y,Z) = g(nabla_Y xi, Z) + g(Y, nabla_Z xi).
    """
    n = ctx.geometry.n
    g = ctx.g()
    # low[a][b] = g(nabla_a xi, e_b)
    low = [metric_lower(g, nabla_vec_coord(ctx, a, xi).as_vector()) for a in range(n)]
    return [[low[a][b] + low[b][a] for b in range(n)] for a in range(n)]


def two_tensor_sharp(ctx, t):
    """Metric contraction of a symmetric (0,2)-tensor to an endomorphism."""
    n = ctx.geometry.n
    g_inv = ctx.g_inv()
    comps = []
    for b in range(n):
        row = {}
        for j in range(n):
            acc = 0.0
            for a in range(n):
                acc = acc + g_inv[a][b] * t[a][j]
            row[(j,)] = acc
        comps.append(AltValue(n, 1, row))
    return VecAltValue(n, 1, comps)


def curvature_shuffle(ctx, phi):
    """(d^nabla)^2 phi via the Riemann curvature shuffle sum."""
    n, p = phi.n, phi.k
    R = ctx.curvature()
    m = p + 2
    comps_out = [dict() for _ in range(n)]
    for M in combinations(range(n), m):
        for sign, chosen, others in _shuffles(m, 2):
            i, j = M[chosen[0]], M[chosen[1]]
            rest = tuple(M[t] for t in others)
            for b in range(n):
                cb = phi.comps[b].coeffs.get(rest)
                if cb is None:
                    continue
                for l in range(n):
                    term = R[i][j][b][l] * cb
                    term = term if sign > 0 else -term
                    d = comps_out[l]
                    d[M] = d[M] + term if M in d else term
    return VecAltValue(n, m, [AltValue(n, m, d) for d in comps_out])


# -- pointwise extraction -----------------------------------------------------


def value_of(w):
    """Strip jets down to order-0 coefficient values."""
    if isinstance(w, VecAltValue):
        return VecAltValue(w.n, w.k, [value_of(c) for c in w.comps])
    return AltValue(w.n, w.k, {I: scalar_value(c) for I, c in w.coeffs.items()})
