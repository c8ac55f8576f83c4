"""Form fields evaluated from a monomial table: the walker's values to rounding."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from excal import geometry, jets, sexpr
from excal.alt import AltValue
from excal.catalog import builtin
from excal.errors import ArityError, DegreeError
from excal.geometry import ChartContext, FormField, load_config, sample_points
from excal.jets import Jet, jet_const
from excal.sexpr import Bin, Num, Var
from excal.verifier import IdentityCheck, random_form, run_check

XY = ["x", "y"]
# a flat chart whose quadratics overflow: (c*x)*y is about 1e400
WIDE = {
    "name": "wide",
    "dim": 2,
    "coords": XY,
    "metric": [["1", "0"], ["0", "1"]],
    "domain": [[1e200, 2e200], [1e200, 2e200]],
}


@functools.lru_cache(maxsize=None)
def flat(n):
    names = [f"x{i + 1}" for i in range(n)]
    metric = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    return load_config(
        {"name": f"flat{n}", "dim": n, "coords": names, "metric": metric,
         "domain": [[-10, 10]] * n}
    )


def same_bits(a, b):
    """Equal arrays, signed zeros and NaN payloads included."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_walker_bits(field, ctx, value):
    """Each coefficient of value is the walker's jet of it at ctx, bit for bit."""
    for key, e in field.coeffs.items():
        walked = sexpr.eval_jet(e, ctx.coords)
        assert isinstance(walked, Jet) and same_bits(value.coeffs[key].c, walked.c), key


# -- which trees are quadratics ----------------------------------------------


def test_random_form_terms_are_in_walker_order():
    G = flat(2)
    f = random_form(G, 1, 42)
    for e in f.coeffs.values():
        terms = sexpr.quadratic_terms(e)
        assert [m for _, m in terms] == [(), (0,), (1,), (0, 0), (0, 1), (1, 1)]
        assert all(type(c) is float and -1.0 <= c <= 1.0 for c, _ in terms)


def test_random_form_draws_its_table_and_its_trees_read_back_as_it():
    # the draws fill the table; the trees, built only when read, give the
    # same table back, bit for bit
    G = flat(3)
    for k in range(4):
        f = random_form(G, k, 9)
        C, monomials = f._poly_table(3)
        assert callable(f._coeffs)
        walked = geometry._monomial_table(f.coeffs, k, 3)
        assert walked[1] == monomials and same_bits(walked[0], C)


def test_parsed_negative_literals_are_numbers():
    # the parser reads -0.5 as Neg(Num(0.5)); -0.0 keeps its sign
    e = sexpr.parse("-0.5 + -0.0*x + 2.0*y*x + 1.5 + -3.0*x*x", XY)
    terms = sexpr.quadratic_terms(e)
    assert terms == [(-0.5, ()), (-0.0, (0,)), (2.0, (1, 0)), (1.5, ()), (-3.0, (0, 0))]
    assert np.signbit(terms[1][0])


@pytest.mark.parametrize(
    "src",
    [
        "x",  # a bare Var is the coordinate jet itself
        "2.0*x + y",
        "pi*x",
        "2.0*e",
        "2.0*sin(x)",
        "x/2.0",
        "1.0/2.0*x",
        "2.0*x^2",
        "2.0*x*y*x",  # cubic
        "x*2.0",
        "2.0*(x*y)",
        "-(2.0*x)",
        "2.0*x - 3.0*y",
        "1.0 + (2.0*x + 3.0*y)",
        "1.0 + 2.0",  # free of coordinates: stays a float
        "3.0",
    ],
)
def test_other_shapes_are_not_quadratics(src):
    assert sexpr.quadratic_terms(sexpr.parse(src, XY)) is None


def test_only_float_literals_are_numbers():
    # the walker keeps an int literal's own arithmetic, so it is not tabled
    x = Var("x", 0)
    assert sexpr.quadratic_terms(Bin("*", Num(2), x)) is None
    assert sexpr.quadratic_terms(Bin("*", Num(2.0), x)) == [(2.0, (0,))]


# -- the table gives the walker's values -------------------------------------

COEFF = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3))
COORD = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))


@st.composite
def quadratic_fields(draw):
    """(field, point): a random_form, or parsed keys in the text shape of a
    benchmark form (c + c*x + c*x*y, negative literals written as such) with
    their shared monomials drawn in any order, numbers anywhere among them;
    at a point of the field's chart that may have a coordinate at 0.0."""
    n = draw(st.integers(1, 6))
    G = flat(n)
    p = tuple(draw(st.lists(COORD, min_size=n, max_size=n)))
    if draw(st.booleans()):
        return random_form(G, draw(st.integers(0, n)), draw(st.integers(0, 2**32))), p
    names = G.coord_names
    # linear-only sums: fields with no entry above first order
    degree = draw(st.integers(1, 2))
    pool = [()] + [(a,) for a in range(n)]
    pool += [(a, b) for a in range(n) for b in range(n)] if degree == 2 else []
    monos = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    if not any(monos):
        monos.append((draw(st.integers(0, n - 1)),))
    coeffs = {}
    for key in range(draw(st.integers(1, min(3, n)))):  # keys of the chart
        terms = ["*".join([repr(draw(COEFF))] + [names[a] for a in m]) for m in monos]
        coeffs[(key,)] = G.parse_expr(" + ".join(terms))
    return FormField(1, coeffs), p


@settings(max_examples=150, derandomize=True, deadline=None)
@given(quadratic_fields(), st.integers(0, jets.MAX_ORDER))
# one key at order 0: all 28 terms land on the value entry
@example((random_form(flat(6), 0, 1), (0.5, -1.5, 2.25, 0.0, 3.5, -7.75)), 0)
# a trailing number after a linear term, at a coordinate 0.0
@example((FormField(0, {(): flat(3).parse_expr("-1.0*x1 + 2.0")}), (0.5, 0.0, 1.5)), 2)
# -0.0 quadratic coefficients, at a coordinate 0.0
@example((FormField(1, {(0,): flat(2).parse_expr("-0.0*x1*x2"),
                        (1,): flat(2).parse_expr("-1.0*x1*x2")}), (0.5, 0.0)), 2)
@example((FormField(0, {(): flat(2).parse_expr("-0.0*x2*x2")}), (0.5, 0.0)), 2)
def test_table_matches_the_walker_to_rounding(case, order):
    # per Taylor coefficient, |table - walker| <= T * 2^-52 * sum_t |c_t * m_t(p)|
    # over the T terms of a key, with each monomial's jet m_t made by jet products
    field, p = case
    G = flat(len(p))
    ctx = G.context(p, order)
    assert field._poly_table(G.n)
    one = jet_const(1.0, G.n, order)

    def bound(e):
        terms = sexpr.quadratic_terms(e)
        scale = sum(abs(c) * np.abs(functools.reduce(lambda j, a: j * ctx.coords[a], m, one).c)
                    for c, m in terms)
        return Jet(one.space, len(terms) * 2.0**-52 * scale)

    def walk(fn):
        return AltValue(G.n, field.degree, {key: fn(e) for key, e in field.coeffs.items()})

    got, walked, tol = field.at(ctx), walk(lambda e: sexpr.eval_jet(e, ctx.coords)), walk(bound)
    assert got.space is walked.space is one.space
    assert (np.abs(got.c - walked.c) <= tol.c).all()


def test_fields_at_one_context_share_one_monomial_table(monkeypatch):
    G = builtin("hopf_lck").geometry
    ctx = ChartContext(G, ((0.5, 0.25, 0.75, 0.375),), 2)
    built = []
    monkeypatch.setattr(geometry, "monomial_jets",
                        lambda xs, ms: built.append(ms) or jets.monomial_jets(xs, ms))
    random_form(G, 1, 7).at(ctx)
    random_form(G, 2, 8).at(ctx)
    assert len(built) == 1


def test_a_seeded_random_form_makes_no_walk_and_no_jet_product(monkeypatch):
    G = builtin("hopf_lck").geometry
    f = random_form(G, 2, 42)
    ctx = G.context((0.5, 0.25, 0.75, 0.375), 2)
    calls = {"eval_jet": 0, "mul_coeffs": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(sexpr, "eval_jet")
    counted(jets, "mul_coeffs")
    value = f.at(ctx)
    assert calls == {"eval_jet": 0, "mul_coeffs": 0}
    assert len(value.coeffs) == 6


# -- fields the table cannot take use the walker ----------------------------


def _walks(field, ctx, monkeypatch):
    """field.at(ctx), requiring that it walked its coefficients' trees."""
    walked = []
    eval_jet = sexpr.eval_jet
    monkeypatch.setattr(sexpr, "eval_jet", lambda e, xs: walked.append(e) or eval_jet(e, xs))
    value = field.at(ctx)
    assert walked == list(field.coeffs.values())
    return value


@pytest.mark.parametrize(
    "coeffs",
    [
        {(0,): "1.5*x1 + 2.0*x1*x2", (1,): "sin(x1)*x2"},  # not a quadratic
        {(0,): "1.5 + 2.0*x1", (1,): "2.0*x1 + 1.5"},  # monomial lists differ
        {(0,): "1.5 + 2.0*x1", (1,): "1.0 + 2.0"},  # a key free of coordinates
    ],
)
def test_fields_without_a_table_walk(coeffs, monkeypatch):
    G = flat(2)
    field = FormField(1, {k: G.parse_expr(s) for k, s in coeffs.items()})
    ctx = G.context((0.5, -1.25), 2)
    assert field._poly_table(G.n) == ()
    value = _walks(field, ctx, monkeypatch)
    for key, e in field.coeffs.items():
        walked = sexpr.eval_jet(e, ctx.coords)
        got = value.coeffs[key]
        assert type(got) is type(walked)
        if isinstance(walked, Jet):
            assert same_bits(got.c, walked.c)
        else:
            assert type(got) is float and got == walked  # a constant stays a float


def test_variable_beyond_the_chart_walks_to_the_same_error():
    G, G3 = flat(2), flat(3)
    field = FormField(0, {(): G3.parse_expr("1.0 + 2.0*x1*x3")})
    assert field._poly_table(G3.n) and field._poly_table(G.n) == ()
    with pytest.raises(ArityError) as walked:
        sexpr.eval_jet(field.coeffs[()], G.context((0.5, 0.5), 1).coords)
    with pytest.raises(ArityError) as got:
        field.at(G.context((0.5, 0.5), 1))
    assert str(got.value) == str(walked.value)


def test_key_beyond_the_chart_is_refused_as_the_walker_refuses_it():
    G = flat(1)
    field = FormField(1, {(0,): G.parse_expr("1.0*x1"), (1,): G.parse_expr("2.0*x1")})
    assert field._poly_table(G.n) == ()
    with pytest.raises(DegreeError, match=r"\(1,\) is not a basis key"):
        field.at(G.context((0.5,), 1))


# -- overflow ----------------------------------------------------------------


def test_overflow_is_silent_typed_and_never_passes():
    G = load_config(WIDE)
    p = sample_points(G, 1, 7)[0]
    ctx = G.context(p, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(3):
            field = random_form(G, k, 42)
            value = field.at(ctx)
            assert not np.isfinite(value.c).all()
            assert_walker_bits(field, ctx, value)
            report = run_check(IdentityCheck(f"wide/{k}", G, field.at, field.at, points=[p]))
            assert not report["pass"]
            assert all(r["error"].startswith("NonFiniteValue") for r in report["points"])


def test_overflowing_operand_walks(monkeypatch):
    # c*p_a*p_b overflows, so the product is not finite: the walker decides
    G = load_config(WIDE)
    ctx = G.context(sample_points(G, 1, 7)[0], 2)
    field = FormField(0, {(): G.parse_expr("1.0*x + 1e300*x*y")})
    assert field._poly_table(G.n)
    got = _walks(field, ctx, monkeypatch).coeffs[()]
    assert np.isnan(got.c).any()
    assert same_bits(got.c, sexpr.eval_jet(field.coeffs[()], ctx.coords).c)
