"""Property tests for the one bracket, its readers (ad and the derivation
rows) and the ad(w) series on catalog algebras."""

import os
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ROOT, filiform6
from nilflow import catalog, group, linalg
from nilflow.algebra import load_algebra
from nilflow.integrals import derivation_rows
from nilflow.ratpoly import RationalPolynomial

_ALGEBRAS = [catalog.get(name).descriptor for name in catalog.names()]
_SETTINGS = settings(max_examples=60)


@st.composite
def _vectors(draw, count):
    """A catalog algebra and ``count`` small Fraction vectors in it."""
    alg = draw(st.sampled_from(_ALGEBRAS))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    vectors = [draw(st.lists(entry, min_size=alg.dim, max_size=alg.dim))
               for _ in range(count)]
    return alg, vectors


def _add(*vectors):
    return [sum(xs) for xs in zip(*vectors)]


@_SETTINGS
@given(_vectors(3))
def test_antisymmetry_and_jacobi(case):
    alg, (u, v, w) = case
    assert alg.bracket(u, v) == [-x for x in alg.bracket(v, u)]
    jacobi = _add(alg.bracket(u, alg.bracket(v, w)),
                  alg.bracket(v, alg.bracket(w, u)),
                  alg.bracket(w, alg.bracket(u, v)))
    assert jacobi == [0] * alg.dim


@_SETTINGS
@given(_vectors(2))
def test_constant_polynomials_bracket_like_fractions(case):
    alg, (u, v) = case
    nv = 2 * alg.dim

    def const(x):
        return [RationalPolynomial.constant(nv, c) for c in x]

    assert alg.bracket(const(u), const(v)) == const(alg.bracket(u, v))


@_SETTINGS
@given(_vectors(2))
def test_float_bracket_matches_fraction_bracket(case):
    alg, (u, v) = case
    exact = alg.bracket(u, v)
    approx = alg.bracket([float(c) for c in u], [float(c) for c in v])
    assert all(abs(a - float(b)) <= 1e-12 for a, b in zip(approx, exact))


@_SETTINGS
@given(_vectors(2))
def test_exp_series_undoes_exp_neg_series(case):
    alg, (w, x) = case

    def exp_coeff(k):
        return (-1) ** k * group.exp_neg_coeff(k)

    there = group.ad_series(alg, w, exp_coeff, x)
    assert group.ad_series(alg, w, group.exp_neg_coeff, there) == x


def _dense_bracket(alg, u, v):
    """The bracket's pair formula with every product formed."""
    out = [0 * u[0] + 0 * v[0]] * alg.dim
    for (i, j), targets in alg.structure.items():
        c = u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]
        if c:
            for k, coeff in targets.items():
                out[k - 1] = out[k - 1] + coeff * c
    return out


@_SETTINGS
@given(st.data())
def test_float_bracket_is_the_dense_formula_bit_for_bit(data):
    alg = data.draw(st.sampled_from(_ALGEBRAS))
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300]),
                      st.floats(min_value=-3, max_value=3))
    u, v = (data.draw(st.lists(entry, min_size=alg.dim, max_size=alg.dim))
            for _ in range(2))
    assert repr(alg.bracket(u, v)) == repr(_dense_bracket(alg, u, v))


def _bracket_ad(alg, x):
    """ad(x) as the brackets [x, e_j], the columns of the matrix."""
    return linalg.transpose([alg.bracket(x, e)
                             for e in linalg.identity(alg.dim)])


@_SETTINGS
@given(st.data())
def test_ad_from_the_pair_table_is_the_bracket_matrix(data):
    # ad is the bracket's columns; this guards against a second kernel
    alg = data.draw(st.sampled_from(_ALGEBRAS + [filiform6()]))
    exact = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    x = data.draw(st.lists(exact, min_size=alg.dim, max_size=alg.dim))
    assert alg.ad(x) == _bracket_ad(alg, x)
    # floats, signed zeros included, come out bit for bit
    approx = st.one_of(st.sampled_from([0.0, -0.0, 1e-300]),
                       st.floats(min_value=-3, max_value=3))
    x = data.draw(st.lists(approx, min_size=alg.dim, max_size=alg.dim))
    assert repr(alg.ad(x)) == repr(_bracket_ad(alg, x))


@_SETTINGS
@given(st.data())
def test_int_vectors_bracket_to_ints_on_integral_constants(data):
    alg = data.draw(st.sampled_from(_ALGEBRAS))
    u, v = (data.draw(st.lists(st.integers(-3, 3), min_size=alg.dim,
                               max_size=alg.dim)) for _ in range(2))
    assert all(type(c) is int for c in alg.bracket(u, v))


def test_a_non_integral_constant_brackets_to_a_fraction():
    alg = catalog.get("n6_24(1/2)").descriptor
    e = [[int(i == j) for j in range(6)] for i in range(6)]
    assert alg.bracket(e[0], e[3]) == [0] * 5 + [Fraction(1, 2)]
    assert type(alg.bracket(e[0], e[3])[5]) is Fraction
    assert [type(c) for c in alg.bracket(e[0], e[1])] == [int] * 6


# the 26 listed entries, entries of other names and the test definitions
_ROW_ALGEBRAS = _ALGEBRAS + [
    catalog.get(name).descriptor
    for name in ("h7", "h9", "r3+h3", "r+n3", "n6_24(1/2)")] + [
    load_algebra(os.path.join(ROOT, "tests", "data", name))
    for name in ("filiform5.json", "h3_metric.json")]


def _rows_from_the_structure(alg):
    """The product-rule rows written straight from ``structure``: the
    terms of [e_i, e_j] and the constants c_ab^k of every pair."""
    n = alg.dim
    into = [[] for _ in range(n)]  # into[b]: (a, k, c_ab^k), all a != b
    for (i, j), targets in alg.structure.items():
        into[j - 1] += [(i - 1, k - 1, c) for k, c in targets.items()]
        into[i - 1] += [(j - 1, k - 1, -c) for k, c in targets.items()]
    blocks = []
    for i in range(n):
        for j in range(i + 1, n):
            ij = alg.structure.get((i + 1, j + 1), {}).items()
            rows = [[(k * n + l - 1, c) for l, c in ij] for k in range(n)]
            for a, k, c in into[j]:
                rows[k].append((a * n + i, -c))
            for a, k, c in into[i]:
                rows[k].append((a * n + j, c))
            blocks.append(((i + 1, j + 1), rows))
    return blocks


def test_derivation_rows_are_the_structure_constants_rows():
    assert len(_ROW_ALGEBRAS) == 33
    for alg in _ROW_ALGEBRAS:
        got, want = derivation_rows(alg), _rows_from_the_structure(alg)
        assert [pair for pair, _ in got] == [pair for pair, _ in want]
        for (pair, rows), (_, ref) in zip(got, want):
            assert [sorted(r) for r in rows] == [sorted(r) for r in ref], (
                alg.name, pair)
