"""Built-in, self-validating example geometries.

Each entry carries the structures its identities need (complex structure
J, contact structure (phi, xi, eta), Lee form theta, fundamental 2-form)
and a list of structural validation checks that must pass at 20 seeded
points before the entry is served.  Each check is evaluated once, on the
chart's context of all the points, and compared at each point alone.
"""

import re

from .alt import AltValue, VecAltValue, _alt, _raise_first, _vec, interior, sharp, wedge, wedge_sv
from .compare import _first_failure, zero_like
from .errors import NonFiniteValue, UnknownEntry, ValidationFailed
from .geometry import CONFIG_VERSION, MAX_DIM, load_config, sample_points
from .operators import d_nabla, endo_compose, ext_d, lie_metric, nabla_vec_coord, nijenhuis

VALIDATION_SEED = 0x5EED_CA7A
VALIDATION_POINTS = 20
VALIDATION_ORDER = 1  # every validation body reads first derivatives at most

_cache = {}


class CatalogEntry:
    def __init__(self, name, geometry, validations):
        self.name = name
        self.geometry = geometry
        self.validations = validations

    def validate(self):
        pts = sample_points(self.geometry, VALIDATION_POINTS, VALIDATION_SEED)
        ctx = self.geometry.batch(pts, VALIDATION_ORDER)
        for label, fn in self.validations:
            try:
                failed = _first_failure(fn(self, ctx), pts)
            except NonFiniteValue as exc:
                raise ValidationFailed(self.name, label, str(exc))
            if failed:
                raise ValidationFailed(self.name, label, f"err {failed[1]:.3e} at {failed[0]}")
        return self


# -- validation check bodies -------------------------------------------------


def _peak(n, c):
    """The 0-form of the largest |value| of an (..., S, P) array at each point."""
    v = abs(c[..., 0, :])
    return _alt(n, 0, None, v.reshape(-1, v.shape[-1]).max(axis=0)[None, None])


def _v_flat_christoffel(entry, ctx):
    n = entry.geometry.n
    return [(_peak(n, ctx.gamma()[1]), AltValue.zero(n, 0))]


def _v_killing(entry, ctx):
    xi = ctx.structure("xi")
    _, lg = lie_metric(ctx, xi)
    n = entry.geometry.n
    return [(_peak(n, lg), AltValue.zero(n, 0))]


def _v_closed(form_name):
    def check(entry, ctx):
        dw = ext_d(ctx, entry.geometry.forms[form_name].at(ctx))
        return [(dw, zero_like(dw))]

    return check


def _v_parallel_structure(name):
    def check(entry, ctx):
        T = ctx.structure(name)
        return [(nT, zero_like(nT)) for nT in nabla_vec_coord(ctx, T)]

    return check


def _v_integrable(name):
    def check(entry, ctx):
        N = nijenhuis(ctx, ctx.structure(name))
        return [(N, zero_like(N))]

    return check


def _v_lee(entry, ctx):
    omega = entry.geometry.forms["Omega"].at(ctx)
    theta = ctx.structure("theta")
    dtheta = ext_d(ctx, theta)
    return [
        (ext_d(ctx, omega), wedge(theta, omega)),
        (dtheta, zero_like(dtheta)),
    ]


def _v_fundamental_sharp(struct_name):
    def check(entry, ctx):
        fname = "Omega" if "Omega" in entry.geometry.forms else "Phi"
        w = entry.geometry.forms[fname].at(ctx)
        return [(sharp(w, ctx.g_inv()), ctx.structure(struct_name))]

    return check


def _v_anti_lee(entry, ctx):
    theta = ctx.structure("theta")
    eta = ctx.structure("eta")
    J = ctx.structure("J")
    return [(interior(J, theta), eta)]


def _v_contact_algebra(entry, ctx):
    G = entry.geometry
    n = G.n
    phi = ctx.structure("phi")
    xi = ctx.structure("xi")
    eta = ctx.structure("eta")
    out = []
    # eta(xi) = 1
    pairing = interior(xi, eta)
    out.append((pairing, AltValue(n, 0, {(): 1.0})))
    # phi^2 = -Id + eta (x) xi
    phi2 = endo_compose(phi, phi)
    target = wedge_sv(eta, xi) - VecAltValue.identity(n)
    out.append((phi2, target))
    # g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y), on coordinate vectors: the
    # matrices phi^T g phi and g - eta eta^T, compared at each point
    sg, g = ctx.g()
    gphi = _raise_first(n, (n,))(sg, g, phi.space, phi.c)
    _, lhs = _raise_first(n, (n,))(phi.space, phi.c, *gphi)
    e = eta.c[:, 0, :]
    rhs = g[..., 0, :] - e[:, None] * e
    out.append((_vec(n, 1, None, lhs[..., :1, :]), _vec(n, 1, None, rhs[..., None, :])))
    return out


def _v_nabla_xi(target):  # target: "-phi" or "0"
    def check(entry, ctx):
        phi = ctx.structure("phi")
        xi = ctx.structure("xi")
        nx = d_nabla(ctx, xi)  # (d^nabla xi)(Y) = nabla_Y xi
        if target == "-phi":
            return [(nx, -phi)]
        return [(nx, zero_like(nx))]

    return check


def _v_normal(entry, ctx):
    phi = ctx.structure("phi")
    xi = ctx.structure("xi")
    eta = ctx.structure("eta")
    N = nijenhuis(ctx, phi)
    deta = ext_d(ctx, eta)
    lhs = N + wedge_sv(deta, xi)
    return [(lhs, zero_like(lhs))]


# -- entry builders ----------------------------------------------------------


def _flat_metric(n):
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def _mkgeom(name, n, coords, metric, domain, exclude=None, structures=None, forms=None):
    """Load a built-in chart through the excal-config v1 loader."""
    doc = {
        "version": CONFIG_VERSION,
        "name": name,
        "dim": n,
        "coords": coords,
        "metric": metric,
        "domain": domain,
    }
    if exclude:
        doc["exclude"] = exclude
    if structures:
        doc["structures"] = structures
    if forms:
        doc["forms"] = {
            fname: {"degree": k, "coeffs": coeffs} for fname, (k, coeffs) in forms.items()
        }
    return load_config(doc)


def _block_j_matrix(n, pairs):
    """Constant endomorphism: e_{2i} -> e_{2i+1}, e_{2i+1} -> -e_{2i}."""
    m = [["0"] * n for _ in range(n)]
    for i in range(pairs):
        m[2 * i + 1][2 * i] = "1"
        m[2 * i][2 * i + 1] = "-1"
    return m


def _fundamental_form_coeffs(pairs, scale="1"):
    """Omega = -scale * sum dx_{2i} ^ dx_{2i+1} so that Omega-sharp is J;
    config keys are 1-based."""
    return {f"{2 * i + 1},{2 * i + 2}": f"-({scale})" for i in range(pairs)}


def _build_euclidean(n, torus=False):
    if not 1 <= n <= MAX_DIM:
        raise UnknownEntry(f"euclidean dimension must be 1..{MAX_DIM}, got {n}")
    name = f"flat_torus({n})" if torus else f"euclidean({n})"
    coords = [f"x{i+1}" for i in range(n)]
    domain = [[0.0, 6.283185307179586]] * n if torus else [[-1.0, 1.0]] * n
    g = _mkgeom(name, n, coords, _flat_metric(n), domain)
    return CatalogEntry(name, g, [("flat-christoffel", _v_flat_christoffel)])


def _build_sphere2():
    coords = ["theta", "phi"]
    metric = [["1", "0"], ["0", "sin(theta)^2"]]
    g = _mkgeom(
        "sphere2",
        2,
        coords,
        metric,
        [[0.3, 2.8], [0.1, 6.0]],
        structures={"xi": ["0", "1"]},  # the Killing rotation field
    )
    return CatalogEntry("sphere2", g, [("killing-rotation", _v_killing)])


def _build_flat_kahler(m):
    if not 1 <= m <= 3:
        raise UnknownEntry(f"flat_kahler complex dimension must be 1..3, got {m}")
    n = 2 * m
    coords = [f"x{i+1}" for i in range(n)]
    g = _mkgeom(
        f"flat_kahler({m})",
        n,
        coords,
        _flat_metric(n),
        [[-1.0, 1.0]] * n,
        structures={"J": _block_j_matrix(n, m)},
        forms={"Omega": (2, _fundamental_form_coeffs(m))},
    )
    checks = [
        ("closed-fundamental-form", _v_closed("Omega")),
        ("fundamental-sharp", _v_fundamental_sharp("J")),
        ("parallel-J", _v_parallel_structure("J")),
        ("integrable-J", _v_integrable("J")),
    ]
    return CatalogEntry(f"flat_kahler({m})", g, checks)


def _build_hopf_lck():
    n = 4
    coords = ["x1", "x2", "x3", "x4"]
    r2 = "(x1^2 + x2^2 + x3^2 + x4^2)"
    metric = [
        [f"1/{r2}" if i == j else "0" for j in range(n)] for i in range(n)
    ]
    theta = [f"-2*x{i+1}/{r2}" for i in range(n)]
    # eta = i_J theta with the block J below
    eta = [
        f"-2*x2/{r2}",
        f"2*x1/{r2}",
        f"-2*x4/{r2}",
        f"2*x3/{r2}",
    ]
    g = _mkgeom(
        "hopf_lck",
        n,
        coords,
        metric,
        [[0.2, 1.0]] * n,
        exclude=f"{r2} - 0.04",
        structures={
            "J": _block_j_matrix(n, 2),
            "theta": theta,
            "eta": eta,
        },
        forms={
            "Omega": (2, _fundamental_form_coeffs(2, scale=f"1/{r2}")),
            "eta": (1, {str(i + 1): eta[i] for i in range(n)}),
            "theta": (1, {str(i + 1): theta[i] for i in range(n)}),
        },
    )
    checks = [
        ("fundamental-sharp", _v_fundamental_sharp("J")),
        ("lee-form", _v_lee),
        ("anti-lee-form", _v_anti_lee),
    ]
    return CatalogEntry("hopf_lck", g, checks)


def _build_sasakian_s3():
    coords = ["theta", "phi", "psi"]
    metric = [
        ["1/4", "0", "0"],
        ["0", "1/4", "cos(theta)/4"],
        ["0", "cos(theta)/4", "1/4"],
    ]
    phi_matrix = [
        ["0", "-sin(theta)", "0"],
        ["1/sin(theta)", "0", "0"],
        ["-cos(theta)/sin(theta)", "0", "0"],
    ]
    eta = ["0", "cos(theta)/2", "1/2"]
    g = _mkgeom(
        "sasakian_s3",
        3,
        coords,
        metric,
        [[0.3, 2.8], [0.1, 6.0], [0.1, 6.0]],
        structures={
            "phi": phi_matrix,
            "xi": ["0", "0", "2"],
            "eta": eta,
        },
        forms={
            "Phi": (2, {"1,2": "-sin(theta)/4"}),
            "eta": (1, {"2": "cos(theta)/2", "3": "1/2"}),
        },
    )
    checks = [
        ("contact-algebra", _v_contact_algebra),
        ("fundamental-sharp", _v_fundamental_sharp("phi")),
        ("nabla-xi", _v_nabla_xi("-phi")),
        ("closed-Phi", _v_closed("Phi")),
        ("normality", _v_normal),
    ]
    return CatalogEntry("sasakian_s3", g, checks)


def _build_flat_cokahler(m):
    if not 1 <= m <= 2:
        raise UnknownEntry(f"flat_cokahler complex dimension must be 1..2, got {m}")
    n = 2 * m + 1
    coords = [f"x{i+1}" for i in range(n)]
    phi_matrix = _block_j_matrix(n, m)
    g = _mkgeom(
        f"flat_cokahler({m})",
        n,
        coords,
        _flat_metric(n),
        [[-1.0, 1.0]] * n,
        structures={
            "phi": phi_matrix,
            "xi": ["0"] * (n - 1) + ["1"],
            "eta": ["0"] * (n - 1) + ["1"],
        },
        forms={
            "Phi": (2, _fundamental_form_coeffs(m)),
            "eta": (1, {str(n): "1"}),
        },
    )
    checks = [
        ("contact-algebra", _v_contact_algebra),
        ("fundamental-sharp", _v_fundamental_sharp("phi")),
        ("nabla-xi", _v_nabla_xi("0")),
        ("closed-Phi", _v_closed("Phi")),
        ("closed-eta", _v_closed("eta")),
        ("normality", _v_normal),
    ]
    return CatalogEntry(f"flat_cokahler({m})", g, checks)


# -- public surface -----------------------------------------------------------

FAMILIES = [
    ("euclidean(n)", "flat Euclidean chart, n = 1..6"),
    ("flat_torus(n)", "flat chart with periodic sampling box, n = 1..6"),
    ("sphere2", "round 2-sphere with Killing rotation field"),
    ("flat_kahler(m)", "flat Kahler chart of real dimension 2m"),
    ("hopf_lck", "conformally flat lcK chart with Lee form -2 dlog r"),
    ("sasakian_s3", "round Sasakian 3-sphere chart"),
    ("flat_cokahler(m)", "flat co-Kahler chart of dimension 2m+1"),
]


_NAME = re.compile(r"(\w+)(?:\(([0-9]+)\))?")


def _parse_name(name):
    """(base, argument or None) of a catalog name with its spaces removed:
    exactly `base` or `base(<digits>)`, anything else an UnknownEntry."""
    m = _NAME.fullmatch(name)
    if m is not None:
        try:
            return m[1], None if m[2] is None else int(m[2])
        except ValueError:  # more digits than int() reads
            pass
    raise UnknownEntry(f"bad catalog entry name {name!r}")


def builtin(name):
    """Return a validated catalog entry by name, e.g. 'flat_kahler(2)'."""
    key = _parse_name(name.replace(" ", ""))
    if key in _cache:
        return _cache[key]
    base, arg = key
    if base == "euclidean" and arg is not None:
        entry = _build_euclidean(arg)
    elif base == "flat_torus" and arg is not None:
        entry = _build_euclidean(arg, torus=True)
    elif base == "sphere2" and arg is None:
        entry = _build_sphere2()
    elif base == "flat_kahler" and arg is not None:
        entry = _build_flat_kahler(arg)
    elif base == "hopf_lck" and arg is None:
        entry = _build_hopf_lck()
    elif base == "sasakian_s3" and arg is None:
        entry = _build_sasakian_s3()
    elif base == "flat_cokahler" and arg is not None:
        entry = _build_flat_cokahler(arg)
    else:
        raise UnknownEntry(f"unknown catalog entry {name!r}")
    entry.validate()
    _cache[key] = entry
    return entry
