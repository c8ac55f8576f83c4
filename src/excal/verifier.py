"""Declarative identity checks: sample points and random forms, evaluate
both sides of each identity, compare to mixed tolerance, and report.

Every built-in check evaluates its left side by raw operator composition
and its right side from closed-form ingredients.  The two paths are not
independent: both use the same codiff, lie_vec, interior and jet
arithmetic, so an error in a convention those share cancels out of the
comparison.
Reports follow the excal-report v1 JSON schema and are deterministic for
a fixed (geometry, seed) pair up to the wall-time field.
"""

import time
from dataclasses import dataclass, field as dc_field
from functools import partial
from itertools import combinations, combinations_with_replacement

import numpy as np

from . import catalog, opexpr
from .alt import (AltValue, VecAltValue, _alt, _raise_first, _vec, flat, interior, trace,
                  wedge, wedge_sv)
from .compare import DEFAULT_ATOL, DEFAULT_RTOL, alt_errors, exceeds
from .errors import ConfigError, DegreeError, UnknownSuite
from .geometry import FormField, Geometry, VecFormField, sample_points
from .operators import (
    Operator,
    codiff,
    curvature_shuffle,
    d_nabla,
    endo_compose,
    ext_d,
    fn_decompose,
    graded_comm,
    lie_metric,
    lie_vec,
    nabla_coord,
    nabla_vec,
    nabla_vec_coord,
    omega_diamond,
    omega_nabla,
    op_delta,
    op_eps,
    sharp_field,
    two_tensor_sharp,
)
from .prng import SplitMix64, derive_seed
from .sexpr import Bin, Num, Var

REPORT_VERSION = "excal-report v1"
DEFAULT_SEED = 20240
DEFAULT_POINTS = 20
FAIL_FLOOR = 1e-3


# -- random fields -----------------------------------------------------------


def random_form(G, k, seed):
    """Deterministic random FormField of degree k on G.

    Each coefficient is the polynomial c0 + sum_a c_a x_a + sum_{a<=b}
    c_ab x_a x_b, summed left to right in that order, with every c uniform
    in [-1, 1] from a splitmix64 stream derived from (seed, geometry name,
    k).  The salt keeps its "poly" tag, so the draws stay those of earlier
    seeded reports.
    """
    if not 0 <= k <= G.n:
        raise DegreeError(f"random form degree {k} out of range for n={G.n}")
    rng = SplitMix64(derive_seed(seed, "form", G.name, k, "poly"))
    xs = [Var(name, i) for i, name in enumerate(G.coord_names)]
    monomials = [()] + [(a,) for a in range(G.n)]
    monomials += combinations_with_replacement(range(G.n), 2)
    coeffs = {}
    for I in combinations(range(G.n), k):
        poly = None
        for mono in monomials:
            term = Num(rng.uniform(-1.0, 1.0))
            for a in mono:
                term = Bin("*", term, xs[a])
            poly = term if poly is None else Bin("+", poly, term)
        coeffs[I] = poly
    return FormField(k, coeffs)


def random_vec_form(G, k, seed):
    """Deterministic random tangent-valued form of degree k."""
    return VecFormField(
        k, [random_form(G, k, derive_seed(seed, "comp", b)) for b in range(G.n)]
    )


# -- checks ------------------------------------------------------------------


@dataclass
class IdentityCheck:
    id: str
    geometry: object  # catalog entry name or a Geometry
    lhs: object  # opexpr source string or callable(ctx)
    rhs: object
    inputs: dict = dc_field(default_factory=dict)
    points: list = None
    n_points: int = DEFAULT_POINTS
    seed: int = DEFAULT_SEED
    atol: float = DEFAULT_ATOL
    rtol: float = DEFAULT_RTOL
    jet_order: int = 2
    expected_fail: bool = False


def _side(side, ctx, env):
    """One side of a check at ctx: a callable(ctx), or an opexpr string that
    may name the check's inputs (env)."""
    if callable(side):
        return side(ctx)
    return opexpr.evaluate_str(side, ctx, env)


def _resolve_pair(spec):
    """A geometry spec is a catalog entry name or an inline Geometry."""
    if isinstance(spec, Geometry):
        return spec, spec.name
    return catalog.builtin(spec).geometry, spec


def run_check(check):
    """Evaluate one identity check at its sampled points; never aborts on a
    single-point evaluation error (it is recorded as a failing point)."""
    t0 = time.perf_counter()
    G, _ = _resolve_pair(check.geometry)
    point_seed = derive_seed(check.seed, "points", G.name)
    points = check.points
    if points is None:
        points = sample_points(G, check.n_points, point_seed)
    if not points:
        raise ConfigError(f"check {check.id!r} has an empty point list")

    env = dict(check.inputs)
    records = []
    max_abs_err = 0.0
    max_rel_err = 0.0
    ok = True
    for p in points:
        try:
            # an overflow surfaces below as NonFiniteValue, not as a warning
            with np.errstate(over="ignore", invalid="ignore"):
                ctx = G.context(tuple(p), check.jet_order)
                lhs = _side(check.lhs, ctx, env)
                rhs = _side(check.rhs, ctx, env)
            abs_err, scale = alt_errors(lhs, rhs)
            rel_err = abs_err / max(scale, 1.0)
            rec = {"p": list(p), "abs_err": abs_err, "rel_err": rel_err}
            if exceeds(abs_err, scale, check.atol, check.rtol):
                ok = False
        except Exception as exc:  # recorded, not raised
            abs_err = rel_err = float("1e308")
            rec = {
                "p": list(p),
                "abs_err": abs_err,
                "rel_err": rel_err,
                "error": f"{type(exc).__name__}: {exc}",
            }
            ok = False
        max_abs_err = max(max_abs_err, abs_err)
        max_rel_err = max(max_rel_err, rel_err)
        records.append(rec)

    if check.expected_fail:
        ok = max_abs_err > FAIL_FLOOR and not any("error" in r for r in records)
    report = {
        "version": REPORT_VERSION,
        "check": check.id,
        "pass": bool(ok),
        "expected_fail": check.expected_fail,
        "max_abs_err": max_abs_err,
        "max_rel_err": max_rel_err,
        "points": records,
        "seeds": {"run": check.seed, "points": point_seed},
        "jet_order": check.jet_order,
        "tolerance": {"atol": check.atol, "rtol": check.rtol},
        "wall_time_s": time.perf_counter() - t0,
    }
    return report


# -- identity helpers --------------------------------------------------------


def _amatrix(ctx):
    """A = -phi o (nabla xi) from the chart's almost-contact structure."""
    phi = ctx.structure("phi")
    nxi = d_nabla(ctx, ctx.structure("xi"))
    return -endo_compose(phi, nxi)


def _betas(G, seed, degrees):
    return {q: random_form(G, q, derive_seed(seed, "beta", q)) for q in degrees}


def _comm_eps(ctx, omega_val, beta_val):
    """[delta, eps_omega] beta by raw operator composition."""
    return graded_comm(ctx, op_delta(), op_eps(omega_val), beta_val)


def _beta_values(betas, ctx):
    """The betas at ctx in degree order, each evaluated when it is reached."""
    return (beta.at(ctx) for beta in betas.values())


def _commutators(F, betas):
    """Side [delta, eps_F] beta per degree, for the form field F."""

    def side(ctx):
        f = F.at(ctx)
        return [_comm_eps(ctx, f, b) for b in _beta_values(betas, ctx)]

    return side


def _residual(pair, betas):
    """Side [delta, eps_eta] beta + L_X beta per degree, (eta, X) = pair(ctx)."""

    def side(ctx):
        eta, X = pair(ctx)
        return [
            _comm_eps(ctx, eta, b) + lie_vec(ctx, X, b) for b in _beta_values(betas, ctx)
        ]

    return side


def _flat_pair(xi_field):
    """(eta, X) = (xi-flat, xi): the Goldberg residual of a vector field xi."""

    def pair(ctx):
        xi = xi_field.at(ctx)
        return flat(xi, ctx.g()), xi

    return pair


def _sharp_pair(om_field):
    """(eta, X) = (omega, omega-sharp): the residual of a parallel form omega."""

    def pair(ctx):
        w = om_field.at(ctx)
        return w, sharp_field(ctx, w)

    return pair


def _zero_rhs(n, out_degrees):
    def rhs(ctx):
        return [AltValue.zero(n, d) for d in out_degrees]

    return rhs


def _const_vec(G, comps_src):
    return VecFormField(
        0, [FormField(0, {(): G.parse_expr(s)}) for s in comps_src]
    )


def _const_form(G, k, coeffs):
    return FormField(k, {I: G.parse_expr(src) for I, src in coeffs.items()})


# -- suite builders ----------------------------------------------------------
#
# A suite builder takes the check factory `mk` (IdentityCheck with the run's
# seed and tolerances bound) and the run seed, and returns the suite's checks.
# Every check that departs from the factory's defaults says so where it is
# built.

GEOMS_ALL = [
    "euclidean(3)",
    "flat_torus(2)",
    "sphere2",
    "flat_kahler(2)",
    "hopf_lck",
    "sasakian_s3",
    "flat_cokahler(1)",
]

MAIN_GEOMS = [
    "euclidean(3)",
    "sphere2",
    "flat_kahler(1)",
    "flat_kahler(2)",
    "hopf_lck",
    "sasakian_s3",
    "flat_cokahler(1)",
    "flat_cokahler(2)",
]


def _per_geometry(default_geoms):
    """Make a suite builder from body(check, seed, G, gname), a generator of
    the checks on one chart, run over default_geoms or the geoms passed in.
    check(id, lhs, rhs, **overrides) builds a check on that chart."""

    def decorate(body):
        def build(mk, seed, geoms=None):
            checks = []
            for spec in default_geoms if geoms is None else geoms:
                G, gname = _resolve_pair(spec)

                def check(cid, lhs, rhs, **overrides):
                    return mk(cid, spec, lhs, rhs, **overrides)

                checks.extend(body(check, seed, G, gname))
            return checks

        return build

    return decorate


@_per_geometry(GEOMS_ALL)
def _s_fn_contraction(check, seed, G, gname):
    for k in (1, 2):
        for p in (1, 2):
            if k + p > G.n:
                continue
            om = random_form(G, k, derive_seed(seed, gname, "omega", k, p))
            ph = random_vec_form(G, p, derive_seed(seed, gname, "phi", k, p))

            def lhs(ctx, om=om, ph=ph):
                return trace(wedge_sv(om.at(ctx), ph.at(ctx)))

            def rhs(ctx, om=om, ph=ph, k=k, p=p):
                w, f = om.at(ctx), ph.at(ctx)
                s1 = -1.0 if k % 2 else 1.0
                s2 = -1.0 if ((k + 1) * p) % 2 else 1.0
                return wedge(w, trace(f)).scale(s1) + interior(f, w).scale(s2)

            yield check(f"fn-contraction/{gname}/k{k}p{p}", lhs, rhs, jet_order=0)


@_per_geometry(GEOMS_ALL)
def _s_omegaiphi(check, seed, G, gname):
    for k, p, l in ((1, 1, 1), (1, 1, 2), (1, 2, 1)):
        if k + p + l - 1 > G.n:
            continue
        om = random_form(G, k, derive_seed(seed, gname, "om", k, p, l))
        ph = random_vec_form(G, p, derive_seed(seed, gname, "ph", k, p, l))
        be = random_form(G, l, derive_seed(seed, gname, "be", k, p, l))

        def lhs(ctx, om=om, ph=ph, be=be):
            return wedge(om.at(ctx), interior(ph.at(ctx), be.at(ctx)))

        def rhs(ctx, om=om, ph=ph, be=be):
            return interior(wedge_sv(om.at(ctx), ph.at(ctx)), be.at(ctx))

        yield check(f"omegaiphi/{gname}/k{k}p{p}l{l}", lhs, rhs, jet_order=0)


@_per_geometry(GEOMS_ALL)
def _s_lie_wedge(check, seed, G, gname):
    combos = [(1, 1, 1)]
    if G.n >= 3:
        combos.append((1, 1, 2))
    for k, p, l in combos:
        om = random_form(G, k, derive_seed(seed, gname, "om", k, p, l))
        ph = random_vec_form(G, p, derive_seed(seed, gname, "ph", k, p, l))
        be = random_form(G, l, derive_seed(seed, gname, "be", k, p, l))

        def lhs(ctx, om=om, ph=ph, be=be):
            return wedge(om.at(ctx), lie_vec(ctx, ph.at(ctx), be.at(ctx)))

        def rhs(ctx, om=om, ph=ph, be=be, k=k, p=p):
            w, f, b = om.at(ctx), ph.at(ctx), be.at(ctx)
            sign = -1.0 if (p + k) % 2 else 1.0
            return lie_vec(ctx, wedge_sv(w, f), b) - interior(
                wedge_sv(ext_d(ctx, w), f), b
            ).scale(sign)

        yield check(f"lie-wedge/{gname}/k{k}p{p}l{l}", lhs, rhs)


@_per_geometry(GEOMS_ALL)
def _s_dsquared(check, seed, G, gname):
    betas = _betas(G, derive_seed(seed, gname, "d2"), range(max(G.n - 1, 1)))

    def lhs(ctx):
        return [ext_d(ctx, ext_d(ctx, b)) for b in _beta_values(betas, ctx)]

    yield check(f"dsquared/{gname}", lhs, _zero_rhs(G.n, [q + 2 for q in betas]))


@_per_geometry(GEOMS_ALL)
def _s_deltasquared(check, seed, G, gname):
    betas = _betas(G, derive_seed(seed, gname, "delta2"), range(2, G.n + 1))

    def lhs(ctx):
        return [codiff(ctx, codiff(ctx, b)) for b in _beta_values(betas, ctx)]

    yield check(f"deltasquared/{gname}", lhs, _zero_rhs(G.n, [q - 2 for q in betas]))


def _frame_codiff(ctx, w, frame):
    """delta w = -sum_X i_X nabla_X w over an orthonormal frame, with
    nabla_X w = sum_a X^a nabla_a w: the frame formula, independent of the
    inverse metric that codiff contracts with."""
    n, k = w.n, w.k
    out = AltValue.zero(n, k - 1)
    if k == 0 or k > n:
        return out
    sn, N = nabla_coord(ctx, w)
    for X in frame:
        nabla_x = AltValue.zero(n, k)
        for Na, x in zip(N, X.as_vector()):
            nabla_x = nabla_x + _alt(n, k, sn, Na).scale(x)
        out = out - interior(X, nabla_x)
    return out


@_per_geometry(GEOMS_ALL)
def _s_frame_independence(check, seed, G, gname):
    betas = _betas(G, derive_seed(seed, gname, "frame"), range(1, G.n + 1))

    def lhs(ctx):
        return [codiff(ctx, b) for b in _beta_values(betas, ctx)]

    def rhs(ctx):
        frame = ctx.frame(descending=True)
        return [_frame_codiff(ctx, b, frame) for b in _beta_values(betas, ctx)]

    yield check(f"frame-independence/{gname}", lhs, rhs)


@_per_geometry(GEOMS_ALL)
def _s_curvature_dnabla2(check, seed, G, gname):
    for p in (0, 1):
        if p + 2 > G.n:
            continue
        ph = random_vec_form(G, p, derive_seed(seed, gname, "curv", p))

        def lhs(ctx, ph=ph):
            return d_nabla(ctx, d_nabla(ctx, ph.at(ctx)))

        def rhs(ctx, ph=ph):
            return curvature_shuffle(ctx, ph.at(ctx))

        yield check(f"curvature-dnabla2/{gname}/p{p}", lhs, rhs)


@_per_geometry(GEOMS_ALL)
def _s_omegacov(check, seed, G, gname):
    for k in range(1, min(2, G.n) + 1):
        om = random_form(G, k, derive_seed(seed, gname, "cov", k))

        def lhs(ctx, om=om):
            w = om.at(ctx)
            return d_nabla(ctx, sharp_field(ctx, w)) + sharp_field(ctx, ext_d(ctx, w))

        def rhs(ctx, om=om):
            return omega_nabla(ctx, om.at(ctx))

        yield check(f"omegacov/{gname}/k{k}", lhs, rhs)
    # omega wedge nabla_phi = nabla_{omega wedge phi}
    if G.n >= 2:
        om = random_form(G, 1, derive_seed(seed, gname, "covphi-om"))
        ph = random_vec_form(G, 1, derive_seed(seed, gname, "covphi-ph"))
        be = random_form(G, 1, derive_seed(seed, gname, "covphi-be"))

        def lhs2(ctx):
            return wedge(om.at(ctx), nabla_vec(ctx, ph.at(ctx), be.at(ctx)))

        def rhs2(ctx):
            return nabla_vec(ctx, wedge_sv(om.at(ctx), ph.at(ctx)), be.at(ctx))

        yield check(f"omegacov/{gname}/wedge-compat", lhs2, rhs2)


@_per_geometry(GEOMS_ALL)
def _s_diamond_consistency(check, seed, G, gname):
    for k in range(1, min(3, G.n) + 1):
        om = random_form(G, k, derive_seed(seed, gname, "dia", k))
        for va, vb in ((0, 1), (1, 2)):

            def lhs(ctx, om=om, va=va):
                return omega_diamond(ctx, om.at(ctx), variant=va)

            def rhs(ctx, om=om, vb=vb):
                return omega_diamond(ctx, om.at(ctx), variant=vb)

            yield check(f"diamond-consistency/{gname}/k{k}/v{va}{vb}", lhs, rhs)


@_per_geometry(GEOMS_ALL)
def _s_delta_trace(check, seed, G, gname):
    n = G.n
    oms = {
        k: random_form(G, k, derive_seed(seed, gname, "dt", k))
        for k in range(1, min(3, n) + 1)
    }

    def lhs(ctx):
        out = []
        for k, om in oms.items():
            w = om.at(ctx)
            out.append(codiff(ctx, w))
            out.append(trace(omega_nabla(ctx, w)))
            if k >= 2:  # the sharp of a 1-form is a vector, no trace
                out.append(trace(sharp_field(ctx, w)))
        return out

    def rhs(ctx):
        out = []
        for k, om in oms.items():
            w = om.at(ctx)
            out.append(trace(omega_diamond(ctx, w)).scale(-0.5))
            out.append(-codiff(ctx, w))
            if k >= 2:
                out.append(AltValue.zero(n, k - 2))
        return out

    yield check(f"delta-trace/{gname}", lhs, rhs)


def _main_rhs(om, betas, p, covariant):
    """eps_{delta omega} beta - L_{omega-sharp} beta - (-1)^p i_{omega-diamond}
    beta per degree; the covariant form writes the Lie derivative through
    nabla_{omega-sharp} and the curvature-free omega-nabla."""
    sgn = -1.0 if p % 2 else 1.0
    # nabla_{omega-sharp} = L_{omega-sharp} - (-1)^{p-1} i_{d-nabla omega-sharp}
    s2 = -1.0 if (p - 1) % 2 else 1.0

    def rhs(ctx):
        w = om.at(ctx)
        dw = codiff(ctx, w)
        shp = sharp_field(ctx, w)
        out = []
        if covariant:
            wn = omega_nabla(ctx, w)
            dn_shp = d_nabla(ctx, shp)
            for b in _beta_values(betas, ctx):
                cov = lie_vec(ctx, shp, b) - interior(dn_shp, b).scale(s2)
                out.append(wedge(dw, b) - cov - interior(wn, b).scale(sgn))
        else:
            dia = omega_diamond(ctx, w)
            for b in _beta_values(betas, ctx):
                out.append(
                    wedge(dw, b) - lie_vec(ctx, shp, b) - interior(dia, b).scale(sgn)
                )
        return out

    return rhs


def _main_suite(covariant):
    """The main theorem, [delta, eps_omega] = eps_{delta omega}
    - L_{omega-sharp} - (-1)^p i_{omega-diamond}, for p = 1..3."""
    tag = "main-covariant" if covariant else "main-lie"

    @_per_geometry(MAIN_GEOMS)
    def build(check, seed, G, gname):
        for p in range(1, min(3, G.n) + 1):
            om = random_form(G, p, derive_seed(seed, gname, tag, "omega", p))
            betas = _betas(G, derive_seed(seed, gname, tag, p), range(G.n + 1))
            lhs = _commutators(om, betas)
            yield check(f"{tag}/{gname}/p{p}", lhs, _main_rhs(om, betas, p, covariant))

    return build


def _goldberg_rhs(xi_field, betas):
    def rhs(ctx):
        xi = xi_field.at(ctx)
        eta = flat(xi, ctx.g())
        deta = codiff(ctx, eta)
        lg_sharp = two_tensor_sharp(ctx, lie_metric(ctx, xi))
        return [wedge(deta, b) + interior(lg_sharp, b) for b in _beta_values(betas, ctx)]

    return rhs


def _s_goldberg(mk, seed):
    E3 = catalog.builtin("euclidean(3)").geometry
    S2 = catalog.builtin("sphere2").geometry
    cases = [
        (gname, G, "random", random_vec_form(G, 0, derive_seed(seed, gname, "xi")))
        for gname, G in (("euclidean(3)", E3), ("sphere2", S2))
    ]
    # the rotation x1 d2 - x2 d1, a Killing field of the flat chart
    cases.append(("euclidean(3)", E3, "killing", _const_vec(E3, ["-x2", "x1", "0"])))
    cases.append(("sphere2", S2, "killing", _const_vec(S2, ["0", "1"])))

    checks = []
    for gname, G, label, xi_field in cases:
        betas = _betas(G, derive_seed(seed, gname, "goldberg", label), range(G.n + 1))
        lhs = _residual(_flat_pair(xi_field), betas)
        rhs = _goldberg_rhs(xi_field, betas)
        checks.append(mk(f"goldberg/{gname}/{label}", gname, lhs, rhs))
        if label == "killing":
            # Killing witnesses additionally satisfy delta(xi-flat) = 0 and
            # (L_xi g)-sharp = 0.
            def lhs_k(ctx, xi_field=xi_field):
                xi = xi_field.at(ctx)
                return [
                    codiff(ctx, flat(xi, ctx.g())),
                    two_tensor_sharp(ctx, lie_metric(ctx, xi)),
                ]

            def rhs_k(ctx, n=G.n):
                return [AltValue.zero(n, 0), VecAltValue.zero(n, 1)]

            checks.append(mk(f"goldberg/{gname}/killing-constants", gname, lhs_k, rhs_k))
    return checks


@_per_geometry(["euclidean(3)"])
def _s_fn_decompose(check, seed, G, gname):
    for i in range(10):
        p = 1 if i < 5 else 2
        ph = random_vec_form(G, p, derive_seed(seed, "fnd", i, "phi"))
        ps = random_vec_form(G, p + 1, derive_seed(seed, "fnd", i, "psi"))

        def make_d(ph, ps, p):
            def fn(ctx, w):
                return lie_vec(ctx, ph.at(ctx), w) + interior(ps.at(ctx), w)

            return Operator("L_phi+i_psi", p, fn)

        def lhs(ctx, ph=ph, ps=ps, p=p):
            phi_rec, psi_rec = fn_decompose(ctx, make_d(ph, ps, p))
            return [phi_rec, psi_rec]

        def rhs(ctx, ph=ph, ps=ps):
            return [ph.at(ctx), ps.at(ctx)]

        yield check(
            f"fn-decompose-roundtrip/{gname}/pair{i}", lhs, rhs, n_points=2, rtol=0.0
        )


@_per_geometry(["euclidean(3)"])
def _s_parallel_anticommute(check, seed, G, gname):
    forms = {
        2: _const_form(G, 2, {(0, 1): "1", (1, 2): "0.5", (0, 2): "-0.25"}),
        3: _const_form(G, 3, {(0, 1, 2): "0.75"}),
    }
    for p, om in forms.items():
        betas = _betas(G, derive_seed(seed, "par", p), range(4))
        lhs = _residual(_sharp_pair(om), betas)
        zeros = _zero_rhs(G.n, [q + p - 1 for q in betas])
        yield check(f"parallel-anticommute/{gname}/p{p}", lhs, zeros)


def _killing_residual(name, xi_src, **overrides):
    """[delta, eps_{xi-flat}] beta + L_xi beta = 0 on sphere2, for the
    constant field xi = xi_src (a Killing field only for d/dphi)."""

    @_per_geometry(["sphere2"])
    def build(check, seed, G, gname):
        cid = f"{name}/{gname}"
        xi_field = _const_vec(G, xi_src)
        betas = _betas(G, derive_seed(seed, cid), range(3))
        lhs = _residual(_flat_pair(xi_field), betas)
        yield check(cid, lhs, _zero_rhs(G.n, list(betas)), **overrides)

    return build


@_per_geometry(["euclidean(3)"])
def _s_parallel_negative(check, seed, G, gname):
    om = _const_form(G, 2, {(0, 1): "1 + x1", (1, 2): "x3"})
    betas = _betas(G, derive_seed(seed, "parneg"), range(4))
    lhs = _residual(_sharp_pair(om), betas)
    zeros = _zero_rhs(G.n, [q + 1 for q in betas])
    yield check(f"parallel-negative/{gname}", lhs, zeros, expected_fail=True)


@_per_geometry(["flat_kahler(1)", "flat_kahler(2)"])
def _s_kahler(check, seed, G, gname):
    betas = _betas(G, derive_seed(seed, gname, "kahler"), range(G.n + 1))
    Omega = G.forms["Omega"]
    lhs = _residual(lambda ctx: (Omega.at(ctx), ctx.structure("J")), betas)
    yield check(f"kahler/{gname}", lhs, _zero_rhs(G.n, [q + 1 for q in betas]))


@_per_geometry(["hopf_lck"])
def _s_lck(check, seed, G, gname):
    betas = _betas(G, derive_seed(seed, "lck"), range(5))
    Omega = G.forms["Omega"]

    def rhs(ctx):
        omega = Omega.at(ctx)
        eta = ctx.structure("eta")
        theta = ctx.structure("theta")
        J = ctx.structure("J")
        theta_sharp = sharp_field(ctx, theta)
        out = []
        for q, b in zip(betas, _beta_values(betas, ctx)):
            term = wedge(eta, b).scale(float(q - 1)) - lie_vec(ctx, J, b)
            out.append(term + wedge(omega, interior(theta_sharp, b)))
        return out

    yield check(f"lck/{gname}", _commutators(Omega, betas), rhs)


@_per_geometry(["hopf_lck"])
def _s_lck_constants(check, seed, G, gname):
    Omega = G.forms["Omega"]

    def lhs_tr_eta(ctx):
        eta = ctx.structure("eta")
        return trace(wedge_sv(eta, VecAltValue.identity(4)))

    def rhs_tr_eta(ctx):
        return ctx.structure("eta").scale(-3.0)

    def lhs_tr_theta(ctx):
        return trace(wedge_sv(ctx.structure("theta"), ctx.structure("J")))

    def rhs_tr_theta(ctx):
        return ctx.structure("eta")

    def lhs_delta(ctx):
        return codiff(ctx, Omega.at(ctx))

    def rhs_delta(ctx):
        return -ctx.structure("eta")

    def lhs_diamond(ctx):
        return omega_diamond(ctx, Omega.at(ctx))

    def rhs_diamond(ctx):
        omega = Omega.at(ctx)
        eta = ctx.structure("eta")
        theta_sharp = sharp_field(ctx, ctx.structure("theta"))
        return -wedge_sv(eta, VecAltValue.identity(4)) - wedge_sv(omega, theta_sharp)

    sides = [
        ("trace-eta-id", lhs_tr_eta, rhs_tr_eta, 0),
        ("trace-theta-J", lhs_tr_theta, rhs_tr_theta, 0),
        ("delta-Omega", lhs_delta, rhs_delta, 2),
        ("Omega-diamond", lhs_diamond, rhs_diamond, 2),
    ]
    for label, lhs, rhs, order in sides:
        yield check(f"lck-constants/{gname}/{label}", lhs, rhs, jet_order=order)


@_per_geometry(["sasakian_s3", "flat_cokahler(1)"])
def _s_quasi_sasakian(check, seed, G, gname):
    betas = _betas(G, derive_seed(seed, gname, "qs"), range(G.n + 1))

    def rhs(ctx):
        eta = ctx.structure("eta")
        phi = ctx.structure("phi")
        A = _amatrix(ctx)
        trA = trace(A).get(())
        out = []
        for b in _beta_values(betas, ctx):
            term = wedge(eta, b).scale(trA).scale(-1.0) - lie_vec(ctx, phi, b)
            out.append(term + wedge(eta, interior(A, b)).scale(2.0))
        return out

    yield check(f"quasi-sasakian/{gname}", _commutators(G.forms["Phi"], betas), rhs)


@_per_geometry(["sasakian_s3"])
def _s_sasakian(check, seed, G, gname):
    betas = _betas(G, derive_seed(seed, "sas"), range(4))

    def rhs(ctx):
        eta = ctx.structure("eta")
        phi = ctx.structure("phi")
        Id = VecAltValue.identity(3)
        out = []
        for b in _beta_values(betas, ctx):
            term = wedge(eta, b).scale(2.0) - lie_vec(ctx, phi, b)
            out.append(term - wedge(eta, interior(Id, b)).scale(2.0))
        return out

    yield check(f"sasakian/{gname}", _commutators(G.forms["Phi"], betas), rhs)


@_per_geometry(["sasakian_s3"])
def _s_sasakian_constants(check, seed, G, gname):
    Phi = G.forms["Phi"]

    def lhs_a(ctx):
        return _amatrix(ctx)

    def rhs_a(ctx):
        eta = ctx.structure("eta")
        xi = ctx.structure("xi")
        return wedge_sv(eta, xi) - VecAltValue.identity(3)

    def lhs_tr(ctx):
        return trace(_amatrix(ctx))

    def rhs_tr(ctx):
        return AltValue(3, 0, {(): -2.0})

    def lhs_delta(ctx):
        return codiff(ctx, Phi.at(ctx))

    def rhs_delta(ctx):
        return ctx.structure("eta").scale(2.0)

    def lhs_diamond(ctx):
        return omega_diamond(ctx, Phi.at(ctx))

    def rhs_diamond(ctx):
        return wedge_sv(ctx.structure("eta"), _amatrix(ctx)).scale(-2.0)

    sides = [
        ("A-matrix", lhs_a, rhs_a),
        ("trace-A", lhs_tr, rhs_tr),
        ("delta-Phi", lhs_delta, rhs_delta),
        ("Phi-diamond", lhs_diamond, rhs_diamond),
    ]
    for label, lhs, rhs in sides:
        yield check(f"sasakian-constants/{gname}/{label}", lhs, rhs)


@_per_geometry(["flat_cokahler(1)", "flat_cokahler(2)"])
def _s_cokahler(check, seed, G, gname):
    betas = _betas(G, derive_seed(seed, gname, "cok"), range(G.n + 1))

    def rhs(ctx):
        phi = ctx.structure("phi")
        return [-lie_vec(ctx, phi, b) for b in _beta_values(betas, ctx)]

    yield check(f"cokahler/{gname}", _commutators(G.forms["Phi"], betas), rhs)


@_per_geometry(["sasakian_s3"])
def _s_kanemaki(check, seed, G, gname):
    def lhs(ctx):
        phi = ctx.structure("phi")
        out = nabla_vec_coord(ctx, phi)
        # symmetry of A: g(A e_i, e_j) as a matrix, compared both ways
        A = _amatrix(ctx)
        _, gA = _raise_first(3, (3,))(*ctx.g(), A.space, A.c)
        sym = gA[..., 0]
        out.append(AltValue(3, 0, {(): float(abs(sym - sym.T).max())}))
        return out

    def rhs(ctx):
        eta = ctx.structure("eta")
        xi = ctx.structure("xi")
        A = _amatrix(ctx)
        g = ctx.g()
        out = []
        for a in range(3):
            # (nabla_a phi)(Y) = eta(Y) A e_a - g(A e_a, Y) xi
            Aa = _vec(3, 0, A.space, A.c[:, a:a + 1])
            out.append(wedge_sv(eta, Aa) - wedge_sv(flat(Aa, g), xi))
        out.append(AltValue(3, 0, {(): 0.0}))
        return out

    yield check(f"kanemaki/{gname}", lhs, rhs)


SUITES = {
    "fn-contraction": _s_fn_contraction,
    "omegaiphi": _s_omegaiphi,
    "lie-wedge": _s_lie_wedge,
    "dsquared": _s_dsquared,
    "deltasquared": _s_deltasquared,
    "frame-independence": _s_frame_independence,
    "curvature-dnabla2": _s_curvature_dnabla2,
    "omegacov": _s_omegacov,
    "diamond-consistency": _s_diamond_consistency,
    "delta-trace": _s_delta_trace,
    "main-covariant": _main_suite(covariant=True),
    "main-lie": _main_suite(covariant=False),
    "goldberg": _s_goldberg,
    "fn-decompose-roundtrip": _s_fn_decompose,
    "parallel-anticommute": _s_parallel_anticommute,
    "killing-anticommute": _killing_residual("killing-anticommute", ["0", "1"]),
    "killing-negative": _killing_residual(
        "killing-negative", ["1", "0"], expected_fail=True
    ),
    "parallel-negative": _s_parallel_negative,
    "kahler": _s_kahler,
    "lck": _s_lck,
    "lck-constants": _s_lck_constants,
    "quasi-sasakian": _s_quasi_sasakian,
    "sasakian": _s_sasakian,
    "sasakian-constants": _s_sasakian_constants,
    "cokahler": _s_cokahler,
    "kanemaki": _s_kanemaki,
}


# Suites that hold on any chart: the structural identities plus both forms
# of the commutator identity.
INLINE_SUITES = [
    "fn-contraction",
    "omegaiphi",
    "lie-wedge",
    "dsquared",
    "deltasquared",
    "frame-independence",
    "curvature-dnabla2",
    "omegacov",
    "diamond-consistency",
    "delta-trace",
    "main-covariant",
    "main-lie",
]


def build_checks(names="all", seed=DEFAULT_SEED, atol=DEFAULT_ATOL, rtol=DEFAULT_RTOL,
                 geoms=None):
    """Yield the checks of the named built-in suites (or all of them) in
    order, without running them. A suite is built only when the checks
    before it have been taken, so a run holds one suite's random fields at a
    time. geoms replaces the charts of the per-geometry suites."""
    if names == "all":
        names = list(SUITES)
    elif isinstance(names, str):
        names = [names]
    for name in names:
        if name not in SUITES:
            raise UnknownSuite(f"unknown suite {name!r}")
    mk = partial(IdentityCheck, seed=seed, atol=atol, rtol=rtol)
    for name in names:
        build = SUITES[name]
        yield from build(mk, seed) if geoms is None else build(mk, seed, geoms)


def _run(checks, n_points):
    reports = []
    for check in checks:
        if n_points is not None and check.points is None:
            check.n_points = n_points
        reports.append(run_check(check))
    return reports


def inline_checks(G, seed=DEFAULT_SEED, atol=DEFAULT_ATOL, rtol=DEFAULT_RTOL,
                  n_points=None):
    """Run the checks that apply to an arbitrary loaded geometry on G alone."""
    return _run(build_checks(INLINE_SUITES, seed, atol, rtol, geoms=[G]), n_points)


def suite(names="all", seed=DEFAULT_SEED, atol=DEFAULT_ATOL, rtol=DEFAULT_RTOL,
          n_points=None):
    """Run the named built-in suites (or all of them) and return reports."""
    return _run(build_checks(names, seed, atol, rtol), n_points)


def all_pass(reports):
    return all(r["pass"] for r in reports)
