"""Property tests for RationalPolynomial and its Evaluator."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow.ratpoly import Evaluator, RationalPolynomial

NVARS = 4
_SETTINGS = settings(max_examples=60)

_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * NVARS), _coeffs, max_size=6).map(
        lambda terms: RationalPolynomial(NVARS, terms))
# dyadic points, so that float(x) is x exactly
_points = st.lists(st.integers(-64, 64).map(lambda k: Fraction(k, 16)),
                   min_size=NVARS, max_size=NVARS)


@_SETTINGS
@given(_polys, _polys, _polys)
def test_ring_laws(p, q, r):
    zero = RationalPolynomial.zero(NVARS)
    one = RationalPolynomial.constant(NVARS, 1)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p and (p * zero).is_zero
    assert (p - p).is_zero and p - q == -(q - p)


@_SETTINGS
@given(_polys)
def test_render_parse_round_trip(p):
    assert RationalPolynomial.parse(p.render(), NVARS) == p


@_SETTINGS
@given(_polys, _polys, _coeffs, _points)
def test_exact_evaluation_is_a_ring_homomorphism(p, q, c, x):
    ev = Evaluator([p, q, p + q, p * q, RationalPolynomial.constant(NVARS, c)])
    vp, vq, vsum, vprod, vc = ev(x)
    assert vsum == vp + vq
    assert vprod == vp * vq
    assert vc == c
    assert (vp, vq) == (p.evaluate(x), q.evaluate(x))


def _close_to_exact(p, x, exact, got):
    # the size of the largest partial sum bounds the rounding error
    scale = sum(abs(c) * abs(np.prod([float(v) ** k for v, k in zip(x, exps)]))
                for exps, c in p.terms.items())
    return abs(got - float(exact)) <= 1e-12 * max(scale, 1e-300)


@_SETTINGS
@given(st.lists(_polys, min_size=1, max_size=3), _points)
def test_float_evaluation_matches_the_exact_value(polys, x):
    exact = Evaluator(polys)(x)
    floats = Evaluator(polys)([float(v) for v in x])
    for p, e, f in zip(polys, exact, floats):
        assert _close_to_exact(p, x, e, f)


@_SETTINGS
@given(st.lists(_polys, min_size=1, max_size=3),
       st.lists(_points, min_size=1, max_size=5), _coeffs)
def test_row_evaluation_matches_the_exact_value(polys, points, c):
    polys = polys + [polys[0] + c]  # a constant term, rare in _polys
    ev = Evaluator(polys)
    got = ev.rows(np.array(points, dtype=float))
    assert got.shape == (len(points), len(polys))
    for row, x in zip(got, points):
        for p, e, f in zip(polys, ev(x), row):
            assert _close_to_exact(p, x, e, f)


@_SETTINGS
@given(st.lists(_polys, min_size=1, max_size=3),
       st.lists(_points, min_size=1, max_size=5))
def test_array_evaluation_is_pointwise(polys, points):
    ev = Evaluator(polys)
    arrays = [np.array([float(pt[v]) for pt in points]) for v in range(NVARS)]
    columns = ev(arrays)
    for s, pt in enumerate(points):
        pointwise = ev([float(v) for v in pt])
        for col, val in zip(columns, pointwise):
            assert np.broadcast_to(col, len(points))[s] == val
