"""Alternating algebra, checked against a brute-force evaluation oracle.

The shuffle-sum interior product and the contraction are compared with the
defining alternation formulas evaluated through apply(), which expands
coefficients against determinants and shares no code with the shuffle path.
"""

import math
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excal.alt import (
    AltValue,
    VecAltValue,
    _fill,
    _shuffles,
    _sort_sign,
    apply,
    apply_vec,
    flat,
    i_dir,
    interior,
    sharp,
    trace,
    wedge,
    wedge_sv,
)
from excal.errors import ArityError, DegreeError
from excal.jets import is_zero, jet_const, jet_var
from excal.prng import SplitMix64, derive_seed

ORACLE_TOL = 1e-12


def _pair(m):
    """An n x n nested list of jets and numbers as a (space, array) pair."""
    n = len(m)
    return _fill((n, n), [((a, b), m[a][b]) for a in range(n) for b in range(n)])


def rand_alt(n, k, rng):
    return AltValue(n, k, {I: rng.uniform(-1, 1) for I in combinations(range(n), k)})


def rand_vec(n, p, rng):
    return VecAltValue(n, p, [rand_alt(n, p, rng) for _ in range(n)])


def basis_vectors(n, M):
    return [[1.0 if i == a else 0.0 for i in range(n)] for a in M]


def _perm_sign(perm):
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


def oracle_interior(phi, omega, vectors):
    """(i_phi w)(X_1..X_m) by the full alternation sum over permutations."""
    p, k = phi.k, omega.k
    total = 0.0
    for sigma in permutations(range(len(vectors))):
        first = [vectors[s] for s in sigma[:p]]
        rest = [vectors[s] for s in sigma[p:]]
        vec = apply_vec(phi, first)
        total += _perm_sign(sigma) * apply(omega, [vec] + rest)
    return total / (math.factorial(p) * math.factorial(k - 1))


def oracle_trace(phi, vectors):
    """(tr phi)(X_1..X_{k-1}) = sum_b phi^b(e_b, X_1, ..., X_{k-1})."""
    n = phi.n
    total = 0.0
    for b in range(n):
        e_b = [1.0 if i == b else 0.0 for i in range(n)]
        total += apply(phi.comps[b], [e_b] + vectors)
    return total


def test_interior_matches_oracle():
    # all degree combinations for n <= 5, at least 100 sampled tensors total
    count = 0
    for n in range(2, 6):
        rng = SplitMix64(derive_seed(2024, "oracle", n))
        for p in range(0, n + 1):
            for k in range(1, n + 1):
                m = k + p - 1
                if m > n:
                    continue
                for _ in range(3):
                    phi, om = rand_vec(n, p, rng), rand_alt(n, k, rng)
                    got = interior(phi, om)
                    assert got.k == m
                    for M in combinations(range(n), m):
                        want = oracle_interior(phi, om, basis_vectors(n, M))
                        assert abs(got.get(M) - want) < ORACLE_TOL
                    count += 1
    assert count >= 100


def test_trace_matches_oracle():
    for n in range(2, 6):
        rng = SplitMix64(derive_seed(2024, "trace", n))
        for k in range(1, n + 1):
            for _ in range(3):
                phi = rand_vec(n, k, rng)
                got = trace(phi)
                assert got.k == k - 1
                for M in combinations(range(n), k - 1):
                    want = oracle_trace(phi, basis_vectors(n, M))
                    assert abs(got.get(M) - want) < ORACLE_TOL


def test_wedge_matches_oracle():
    # (a ^ b)(X_M) against the shuffle sum written out by hand
    for n in (3, 4):
        rng = SplitMix64(derive_seed(7, "wedge", n))
        for ka in range(0, n + 1):
            for kb in range(0, n - ka + 1):
                a, b = rand_alt(n, ka, rng), rand_alt(n, kb, rng)
                w = wedge(a, b)
                for M in combinations(range(n), ka + kb):
                    total = 0.0
                    for chosen in combinations(range(len(M)), ka):
                        rest = tuple(t for t in range(len(M)) if t not in chosen)
                        sign = _perm_sign(chosen + rest)
                        total += (
                            sign
                            * a.get(tuple(M[t] for t in chosen))
                            * b.get(tuple(M[t] for t in rest))
                        )
                    assert w.get(M) == pytest.approx(total, abs=ORACLE_TOL)


def test_interior_vector_case_is_classical():
    # for a plain vector field the FN interior product is i_X
    n = 4
    rng = SplitMix64(41)
    X = rand_vec(n, 0, rng)
    om = rand_alt(n, 3, rng)
    got = interior(X, om)
    want = AltValue.zero(n, 2)
    for b in range(n):
        want = want + i_dir(b, om).scale(X.comps[b].get(()))
    for M in combinations(range(n), 2):
        assert got.get(M) == pytest.approx(want.get(M), abs=1e-14)


def test_interior_identity_endomorphism():
    rng = SplitMix64(5)
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            om = rand_alt(n, k, rng)
            got = interior(VecAltValue.identity(n), om)
            for M in combinations(range(n), k):
                assert got.get(M) == pytest.approx(k * om.get(M), abs=1e-14)


def test_endomorphism_columns():
    m = [[1.0, 0.0, -2.0], [0.5, 3.0, 0.0], [0.0, -1.5, 4.0]]
    T = VecAltValue.from_endomorphism(m)
    for c in range(3):
        assert T.column(c) == [m[b][c] for b in range(3)]


def test_interior_annihilates_functions():
    phi = rand_vec(3, 2, SplitMix64(9))
    f = AltValue(3, 0, {(): 2.5})
    out = interior(phi, f)
    assert not out.coeffs
    assert out.k == 1  # degree k + p - 1


def test_sharp_lowers_degree_with_metric():
    n = 3
    g_inv = [[2.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    om = AltValue(n, 1, {(0,): 1.0, (2,): -3.0})
    v = sharp(om, _pair(g_inv))
    assert v.k == 0
    assert v.as_vector() == [2.0, 0.0, -6.0]
    with pytest.raises(DegreeError):
        sharp(AltValue(n, 0, {(): 1.0}), _pair(g_inv))
    # a non-diagonal, symmetric, jet-valued g_inv against the defining sum
    # sharp(om)^b = sum_a g^{ab} i_{e_a} om, Taylor coefficient by coefficient
    x = [jet_var((0.3, -0.2, 0.5), i, 2) for i in range(n)]
    g_inv = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            g_inv[a][b] = g_inv[b][a] = x[a] * x[b] + (2.0 if a == b else 0.1 * (a + b))
    for om in (
        AltValue(n, 1, {(0,): x[1], (2,): -3.0}),
        AltValue(n, 2, {(0, 1): x[2], (1, 2): 0.5 * x[0], (0, 2): 1.5}),
    ):
        v = sharp(om, _pair(g_inv))
        assert v.k == om.k - 1
        for b in range(n):
            want = AltValue.zero(n, om.k - 1)
            for a in range(n):
                want = want + i_dir(a, om).scale(g_inv[a][b])
            got = v.comps[b]
            assert set(got.coeffs) == set(want.coeffs)
            for key, c in want.coeffs.items():
                assert got.coeffs[key].c == pytest.approx(c.c, rel=1e-14, abs=1e-15)


def test_flat_lowers_a_vector_with_the_metric():
    # flat(X)_b = sum_a g_{ab} X^a against the defining sum, Taylor
    # coefficient by coefficient, for a non-diagonal jet-valued g
    n = 3
    x = [jet_var((0.3, -0.2, 0.5), i, 2) for i in range(n)]
    g = [[x[a] * x[b] + (2.0 if a == b else 0.1 * (a + b)) for b in range(n)] for a in range(n)]
    comps = [x[1], -3.0, 0.5 * x[0]]
    low = flat(VecAltValue.from_vector(comps), _pair(g))
    assert low.k == 1
    for b in range(n):
        want = sum(g[a][b] * comps[a] for a in range(n))
        assert low.get((b,)).c == pytest.approx(want.c, rel=1e-14, abs=1e-15)
    with pytest.raises(DegreeError):
        flat(VecAltValue.identity(n), _pair(g))


def test_degree_guards():
    with pytest.raises(DegreeError):
        AltValue(3, 1, {(0,): 1.0}) + AltValue(3, 2, {(0, 1): 1.0})
    with pytest.raises(DegreeError):
        trace(VecAltValue.zero(3, 0))
    with pytest.raises(ArityError):
        apply(AltValue(3, 2, {(0, 1): 1.0}), [[1, 0, 0]])


def test_above_dimension_is_canonical_zero():
    a = AltValue(2, 2, {(0, 1): 1.0})
    w = wedge(a, a)
    assert w.k == 4 and not w.coeffs


def test_constructor_drops_exactly_what_is_zero_finds():
    nan_jet = jet_const(0.0, 3, 1)
    nan_jet.c[1] = math.nan
    # the jets share one order, so the value holds each at its own order
    values = [0, 0.0, -0.0, 1e-300, math.nan, -2.5, jet_const(0.0, 3, 1),
              jet_var((0.0, 1.0, 2.0), 0, 1), nan_jet, jet_const(-0.0, 3, 1)]
    keys = list(combinations(range(5), 2))
    coeffs = dict(zip(keys, values))
    w = AltValue(5, 2, coeffs)
    assert list(w.coeffs) == [key for key, c in coeffs.items() if not is_zero(c)]
    for key, c in w.coeffs.items():
        want = np.atleast_1d(np.asarray(getattr(coeffs[key], "c", coeffs[key]), dtype=float))
        got = np.atleast_1d(np.asarray(getattr(c, "c", c), dtype=float))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert len(w.coeffs) == 5  # 1e-300, nan, -2.5, the gradient jet, the NaN jet


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sharp_above_dimension_is_empty(n):
    # the sharp of a form of degree n + 1 is the zero tangent-valued value
    # of degree n: interior finds no term, so no special case is needed
    g_inv = [[1.0 if a == b else 0.0 for b in range(n)] for a in range(n)]
    top = AltValue(n, n, {tuple(range(n)): 1.0})
    w = wedge(AltValue(n, 1, {(0,): 1.0}), top)
    assert w.k == n + 1
    s = sharp(w, _pair(g_inv))
    assert isinstance(s, VecAltValue) and s.k == n and len(s.comps) == n
    assert all(c.k == n and not c.coeffs for c in s.comps)


def _parity_by_cycles(seq):
    """Sign of the permutation that sorts distinct seq: (-1)^(even cycles)."""
    order = sorted(range(len(seq)), key=seq.__getitem__)
    seen, sign = set(), 1
    for start in range(len(seq)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = order[i]
            length += 1
        if length % 2 == 0 and length:
            sign = -sign
    return sign


def test_sort_sign_matches_permutation_parity():
    # every index tuple of length <= 5 over range(6), repeats included
    for length in range(6):
        for seq in product(range(6), repeat=length):
            if len(set(seq)) < length:
                assert _sort_sign(seq) == (0, None)
            else:
                assert _sort_sign(seq) == (_parity_by_cycles(seq), tuple(sorted(seq)))


def test_shuffles_match_permutation_parity():
    for m in range(7):
        for p in range(m + 1):
            shuffles = _shuffles(m, p)
            assert [chosen for _, chosen, _ in shuffles] == list(combinations(range(m), p))
            for sign, chosen, rest in shuffles:
                assert rest == tuple(i for i in range(m) if i not in chosen)
                assert sign == _parity_by_cycles(chosen + rest)


# -- hypothesis property tests -------------------------------------------

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=2, max_value=4)


@settings(max_examples=60, deadline=None)
@given(dims, seeds)
def test_wedge_graded_commutativity(n, seed):
    rng = SplitMix64(seed)
    ka = seed % (n + 1)
    kb = (seed // 7) % (n + 1)
    a, b = rand_alt(n, ka, rng), rand_alt(n, kb, rng)
    lhs = wedge(a, b)
    rhs = wedge(b, a)
    sign = -1.0 if (ka * kb) % 2 else 1.0
    for M in combinations(range(n), ka + kb):
        assert lhs.get(M) == pytest.approx(sign * rhs.get(M), abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(dims, seeds)
def test_wedge_associativity(n, seed):
    rng = SplitMix64(seed)
    a, b, c = rand_alt(n, 1, rng), rand_alt(n, 1, rng), rand_alt(n, n - 2, rng)
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    for M in combinations(range(n), n):
        assert lhs.get(M) == pytest.approx(rhs.get(M), abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(dims, seeds)
def test_i_dir_is_an_antiderivation(n, seed):
    rng = SplitMix64(seed)
    ka = 1 + seed % n
    kb = (seed // 5) % (n - ka + 1)
    a, b = rand_alt(n, ka, rng), rand_alt(n, kb, rng)
    v = seed % n
    lhs = i_dir(v, wedge(a, b))
    sign = -1.0 if ka % 2 else 1.0
    rhs = wedge(i_dir(v, a), b) + wedge(a, i_dir(v, b)).scale(sign)
    for M in combinations(range(n), ka + kb - 1):
        assert lhs.get(M) == pytest.approx(rhs.get(M), abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(dims, seeds)
def test_interior_wedge_derivation_rule(n, seed):
    # i_phi is a derivation of degree p - 1 over the wedge product
    rng = SplitMix64(seed)
    p = 1 + seed % 2
    ka = 1 + (seed // 3) % (n - 1)
    kb = (seed // 11) % (n - ka + 1)
    phi = rand_vec(n, p, rng)
    a, b = rand_alt(n, ka, rng), rand_alt(n, kb, rng)
    lhs = interior(phi, wedge(a, b))
    sign = -1.0 if (ka * (p - 1)) % 2 else 1.0
    rhs = wedge(interior(phi, a), b) + wedge(a, interior(phi, b)).scale(sign)
    for M in combinations(range(n), ka + kb + p - 1):
        assert lhs.get(M) == pytest.approx(rhs.get(M), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(dims, seeds)
def test_wedge_sv_consistency(n, seed):
    # componentwise wedge of a scalar with a tangent-valued form
    rng = SplitMix64(seed)
    om = rand_alt(n, 1, rng)
    phi = rand_vec(n, 1, rng)
    out = wedge_sv(om, phi)
    assert out.k == 2
    for b in range(n):
        ref = wedge(om, phi.comps[b])
        for M in combinations(range(n), 2):
            assert out.comps[b].get(M) == pytest.approx(ref.get(M), abs=1e-14)
