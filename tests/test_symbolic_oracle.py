"""A symbolic oracle for the codifferential and the headline identity.

It shares no code with excal's operators, tables or jets.  It reads only a
chart's expression trees (its metric and form coefficients) and its seeded
sample points.  Each tree becomes a sympy expression here.  delta is the
divergence formula

    (delta beta)^{J} = -(1/sqrt g) sum_a d_a (sqrt g beta^{a J}),

with every index raised and lowered through sympy's g.inv() and g (on a
k-form, by k x k minors), and the wedge is written out from its sign rule.
The oracle checks delta beta and the left side of the paper's formula,
delta(omega ^ beta) - (-1)^p omega ^ delta beta, against excal's values to
1e-12, relative to the larger of 1 and the value's size.
"""

from itertools import combinations

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from excal import sexpr  # noqa: E402
from excal.alt import wedge  # noqa: E402
from excal.catalog import builtin  # noqa: E402
from excal.geometry import FormField, sample_points  # noqa: E402
from excal.operators import codiff, value_of  # noqa: E402

POINTS = 2
SEED = 0x0DE1
CHARTS = ["hopf_lck", "sasakian_s3", "sphere2"]
FUNCTIONS = {"sin": sp.sin, "cos": sp.cos, "tan": sp.tan, "exp": sp.exp, "log": sp.log,
             "sqrt": sp.sqrt, "pow": sp.Pow}
CONSTANTS = {"pi": sp.pi, "e": sp.E}
BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
          "/": lambda a, b: a / b, "^": lambda a, b: a ** b}


def to_sympy(e, xs):
    """A parsed expression tree as a sympy expression in the symbols xs."""
    if isinstance(e, sexpr.Num):
        # an integral number stays an integer, so that x^2 is a polynomial
        return sp.Integer(int(e.value)) if e.value.is_integer() else sp.Float(e.value)
    if isinstance(e, sexpr.Const):
        return CONSTANTS[e.name]
    if isinstance(e, sexpr.Var):
        return xs[e.index]
    if isinstance(e, sexpr.Neg):
        return -to_sympy(e.arg, xs)
    if isinstance(e, sexpr.Bin):
        return BINARY[e.op](to_sympy(e.left, xs), to_sympy(e.right, xs))
    return FUNCTIONS[e.fn](*(to_sympy(a, xs) for a in e.args))


def basis(n, k):
    return list(combinations(range(n), k))


def sort_sign(seq):
    """(sign, sorted seq) of an index sequence; (0, None) on a repeat."""
    if len(set(seq)) < len(seq):
        return 0, None
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
    return (-1) ** inversions, tuple(sorted(seq))


class Chart:
    """A chart's metric in sympy, with its inverse and sqrt(det g)."""

    def __init__(self, G):
        self.G = G
        self.n = G.n
        self.xs = sp.symbols(G.coord_names)
        self.g = sp.Matrix([[to_sympy(e, self.xs) for e in row] for row in G.metric])
        self.g_inv = self.g.inv()
        self.sqrt_g = sp.sqrt(self.g.det())

    def form(self, field):
        """{increasing key: sympy coefficient} of a FormField, every key."""
        k = field.degree
        return {I: to_sympy(field.coeffs[I], self.xs) if I in field.coeffs else sp.S.Zero
                for I in basis(self.n, k)}

    def _transform(self, M, w, k):
        """w_B carried through M on every index: sum_B det(M[A, B]) w_B."""
        return {A: sum((M.extract(list(A), list(B)).det() if k else 1) * w[B]
                       for B in basis(self.n, k))
                for A in basis(self.n, k)}

    def delta(self, w, k):
        """The codifferential of a k-form by the divergence formula."""
        if k == 0:
            return {}
        up = self._transform(self.g_inv, w, k)
        out = {}
        for J in basis(self.n, k - 1):
            acc = sp.S.Zero
            for a in range(self.n):
                s, key = sort_sign((a,) + J)
                if s:
                    acc += s * sp.diff(self.sqrt_g * up[key], self.xs[a])
            out[J] = -acc / self.sqrt_g
        return self._transform(self.g, out, k - 1)

    def values(self, w, k, points):
        """The coefficients of w at each point, in basis order."""
        keys = basis(self.n, k)
        f = sp.lambdify(self.xs, [w.get(I, sp.S.Zero) for I in keys], modules="math")
        return [np.array(f(*p), dtype=float) for p in points]


def wedge_sym(a, ka, b, kb, n):
    """a ^ b for forms given as {increasing key: sympy coefficient}."""
    out = {K: sp.S.Zero for K in basis(n, ka + kb)}
    for I, x in a.items():
        for J, y in b.items():
            s, K = sort_sign(I + J)
            if s:
                out[K] += s * x * y
    return out


def _close(got, want):
    scale = max(1.0, np.abs(want).max(initial=0.0))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def _excal(G, p, fn):
    """Coefficient values of excal's fn(ctx) at a point, at jet order 1."""
    ctx = G.context(p, 1)
    return value_of(fn(ctx)).c[:, 0, 0]


_charts = {}


def chart(name):
    if name not in _charts:
        _charts[name] = Chart(builtin(name).geometry)
    return _charts[name]


def affine_form(G, k, seed):
    """A seeded form of degree k whose coefficients are c + sum_a c_a x_a:
    both sides checked here are first-order in it, so at a point they see
    all of it that any form has there, its 1-jet."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for I in basis(G.n, k):
        c = rng.uniform(-1.0, 1.0, G.n + 1).tolist()
        src = " + ".join([repr(c[0])] + [f"({c[a + 1]!r})*{x}" for a, x in enumerate(G.coord_names)])
        coeffs[I] = G.parse_expr(src)
    return FormField(k, coeffs)


def omega_field(G, p):
    """A named form of degree p on the chart where there is one, else a
    seeded affine one."""
    named = {"hopf_lck": ("theta", "Omega"), "sasakian_s3": ("eta", "Phi")}.get(G.name)
    if named:
        return G.forms[named[p - 1]]
    return affine_form(G, p, SEED + p)


@pytest.mark.parametrize("name", CHARTS)
def test_codiff_matches_the_divergence_formula(name):
    C = chart(name)
    G = C.G
    pts = sample_points(G, POINTS, SEED)
    for k in range(1, G.n + 1):
        beta = affine_form(G, k, SEED + 10 + k)
        want = C.values(C.delta(C.form(beta), k), k - 1, pts)
        for p, w in zip(pts, want):
            _close(_excal(G, p, lambda ctx: codiff(ctx, beta.at(ctx))), w)


@pytest.mark.parametrize("name, p", [(name, p) for name in CHARTS for p in (1, 2)])
def test_headline_left_side_matches_the_divergence_formula(name, p):
    # delta(omega ^ beta) - (-1)^p omega ^ delta beta, for every k that
    # leaves omega ^ beta a form of the chart
    C = chart(name)
    G = C.G
    n = G.n
    pts = sample_points(G, POINTS, SEED + p)
    omega = omega_field(G, p)
    om = C.form(omega)
    sign = (-1) ** p
    for k in range(0, n - p + 1):
        beta = affine_form(G, k, SEED + 20 + k)
        b = C.form(beta)
        left = C.delta(wedge_sym(om, p, b, k, n), p + k)
        right = wedge_sym(om, p, C.delta(b, k), k - 1, n) if k else {}
        lhs = {K: left[K] - sign * right.get(K, sp.S.Zero) for K in left}
        want = C.values(lhs, p + k - 1, pts)

        def excal_lhs(ctx):
            w, bv = omega.at(ctx), beta.at(ctx)
            out = codiff(ctx, wedge(w, bv))
            return out - wedge(w, codiff(ctx, bv)).scale(sign) if k else out

        for pt, w in zip(pts, want):
            _close(_excal(G, pt, excal_lhs), w)
