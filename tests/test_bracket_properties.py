"""Property tests for the one bracket and the ad(w) series on catalog algebras."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow import catalog, group
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
