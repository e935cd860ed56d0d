"""Property tests for RationalPolynomial and its Evaluator."""

from fractions import Fraction
from math import gcd

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow.ratpoly import Evaluator, RationalPolynomial
from polytext import parse

NVARS = 4
_SETTINGS = settings(max_examples=60)

_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_term_dicts = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * NVARS), _coeffs, max_size=6)
_polys = _term_dicts.map(lambda terms: RationalPolynomial(NVARS, terms))
# dyadic points, so that float(x) is x exactly
_points = st.lists(st.integers(-64, 64).map(lambda k: Fraction(k, 16)),
                   min_size=NVARS, max_size=NVARS)


@_SETTINGS
@given(_polys, _polys, _polys)
def test_ring_laws(p, q, r):
    zero = RationalPolynomial.constant(NVARS, 0)
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
    assert parse(p.render(), NVARS) == p


@_SETTINGS
@given(_polys, _polys, _coeffs, _points)
def test_exact_evaluation_is_a_ring_homomorphism(p, q, c, x):
    ev = Evaluator([p, q, p + q, p * q, RationalPolynomial.constant(NVARS, c)])
    vp, vq, vsum, vprod, vc = ev(x)
    assert vsum == vp + vq
    assert vprod == vp * vq
    assert vc == c
    assert (vp, vq) == (Evaluator([p])(x)[0], Evaluator([q])(x)[0])


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


def _per_degree_rows(polys, x):
    """The row kernel before the variable-major layout: the monomials in
    the order the polynomials first meet them, sorted by falling degree;
    one gather x[:, gather[d]] and one in-place product per degree, then
    ``m @ coeffs`` and the constant term."""
    uses = {}
    for out, p in enumerate(polys):
        for e, c in p.numerators.items():
            uses.setdefault(e, []).append((out, float(Fraction(c, p.denominator))))
    slots = sorted((([v for v, k in enumerate(e) for _ in range(k)], pairs)
                    for e, pairs in uses.items() if any(e)),
                   key=lambda s: -len(s[0]))
    degree = len(slots[0][0]) if slots else 1
    gather = [np.array([s[d] for s, _ in slots if len(s) > d], dtype=np.intp)
              for d in range(degree)]
    coeffs = np.zeros((len(slots), len(polys)))
    for m, (_, pairs) in enumerate(slots):
        for out, c in pairs:
            coeffs[m, out] = c
    m = x[:, gather[0]]
    for g in gather[1:]:
        m[:, :len(g)] *= x[:, g]
    out = m @ coeffs
    for e, pairs in uses.items():
        if not any(e):
            constant = np.zeros(len(polys))
            for i, c in pairs:
                constant[i] = c
            out += constant
    return out


@_SETTINGS
@given(st.lists(_polys, min_size=1, max_size=3), _coeffs, st.booleans(),
       st.sampled_from((1, 5)) | st.integers(64, 200),
       st.integers(0, 2 ** 32 - 1))
def test_row_kernel_matches_the_per_degree_kernel(polys, c, constants_only,
                                                  batch, seed):
    if constants_only:  # no monomial but the constant one, or none at all
        polys = [RationalPolynomial.constant(NVARS, c * k)
                 for k in range(len(polys))]
    else:
        polys = polys + [polys[0] + c]
    x = np.random.default_rng(seed).uniform(-2.0, 2.0, (batch, NVARS))
    assert np.array_equal(Evaluator(polys).rows(x), _per_degree_rows(polys, x))


@_SETTINGS
@given(st.lists(_polys, min_size=1, max_size=3), _coeffs,
       st.integers(0, 2 ** 32 - 1))
def test_row_workspace_follows_the_batch_size(polys, c, seed):
    # rows keeps one workspace per batch size; no output may alias it, so
    # a later call, at the same batch size or another, leaves it unchanged
    polys = polys + [polys[0] + c]
    ev = Evaluator(polys)
    rng = np.random.default_rng(seed)
    results = []
    for batch in (5, 256, 256, 1, 5, 5):
        x = rng.uniform(-2.0, 2.0, (batch, NVARS))
        got = ev.rows(x)
        assert np.array_equal(got, _per_degree_rows(polys, x))
        results.append((got, got.copy()))
    for got, kept in results:
        assert np.array_equal(got, kept)


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


# -- exact evaluation on ints against the per-factor Fraction loop ------

def _fraction_loop(polys, values):
    """Each output as a sum of Fraction coefficients times monomials
    formed factor by factor; int 0 for an output with no terms."""
    out = [0] * len(polys)
    for i, p in enumerate(polys):
        for exps, c in p.terms.items():
            m = 1
            for v, k in zip(values, exps):
                if k:
                    m = m * (v if k == 1 else v ** k)
            out[i] += c * m
    return out


# ints, and Fractions whose numerator and denominator are drawn with
# either sign, over small primes (coprime to one another) or any size
_denominators = st.one_of(st.sampled_from([2, 3, 5, 7, 11, -3, -7, -13]),
                          st.integers(1, 40), st.integers(-40, -1))
_rationals = st.one_of(st.integers(-40, 40),
                       st.builds(Fraction, st.integers(-40, 40), _denominators))
_rational_points = st.one_of(
    st.lists(st.integers(-40, 40), min_size=NVARS, max_size=NVARS),
    st.lists(st.builds(Fraction, st.integers(-40, 40), _denominators),
             min_size=NVARS, max_size=NVARS),
    st.lists(_rationals, min_size=NVARS, max_size=NVARS))


@settings(max_examples=150)
@given(st.lists(_polys, min_size=1, max_size=3), _coeffs, _rational_points)
def test_exact_evaluation_on_ints_matches_the_fraction_loop(polys, c, x):
    # outputs with no terms and with constant terms, besides the drawn ones
    polys = polys + [RationalPolynomial(NVARS), polys[0] + c,
                     RationalPolynomial.constant(NVARS, c)]
    got = Evaluator(polys)(x)
    want = _fraction_loop(polys, x)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    assert type(got[len(polys) - 3]) is int


@_SETTINGS
@given(st.lists(_polys, min_size=1, max_size=3), _polys, _rational_points,
       _rational_points)
def test_a_point_with_a_polynomial_still_composes(polys, q, x, z):
    # substituting q for the first variable, then evaluating at z, is
    # evaluating at (q(z), x2, ...); a constant output is a number
    composed = [p if isinstance(p, RationalPolynomial)
                else RationalPolynomial.constant(NVARS, p)
                for p in Evaluator(polys)([q] + x[1:])]
    qz = Evaluator([q])(z)[0]
    assert Evaluator(composed)(z) == Evaluator(polys)([qz] + x[1:])


def _coefficient_table(polys, values):
    """The exact route Evaluator kept before polynomial points went through
    its integer one: each monomial once, in the order the polynomials first
    meet it, with its (output, Fraction coefficient) pairs, formed factor
    by factor and added to each output that uses it."""
    uses = {}
    for out, p in enumerate(polys):
        for e, c in p.terms.items():
            uses.setdefault(e, []).append((out, c))
    out = [0] * len(polys)
    for e, pairs in uses.items():
        m = 1
        for v, k in enumerate(e):
            if k:
                m = m * (values[v] if k == 1 else values[v] ** k)
        for i, c in pairs:
            out[i] += c * m
    return out


# small coordinates for composition: at most three terms, each of degree
# at most one in every variable
_small_polys = st.dictionaries(st.tuples(*[st.integers(0, 1)] * NVARS),
                               _coeffs, max_size=3).map(
    lambda terms: RationalPolynomial(NVARS, terms))
_mixed_points = st.lists(st.one_of(_rationals, _small_polys),
                         min_size=NVARS, max_size=NVARS)


@settings(max_examples=100, deadline=None)
@given(st.lists(_polys, min_size=1, max_size=3), _coeffs, _mixed_points)
def test_exact_evaluation_at_mixed_points_matches_the_coefficient_table(
        polys, c, x):
    # outputs with no terms and with constant terms, besides the drawn
    # ones; an output is a polynomial only where a monomial meets one
    polys = polys + [RationalPolynomial(NVARS), polys[0] + c,
                     RationalPolynomial.constant(NVARS, c)]
    got = Evaluator(polys)(x)
    want = _coefficient_table(polys, x)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


_wide_coeffs = st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
                         st.integers(1, 10 ** 40))


@_SETTINGS
@given(st.lists(st.dictionaries(st.tuples(*[st.integers(0, 3)] * NVARS),
                                _coeffs | _wide_coeffs, max_size=6),
                min_size=1, max_size=3))
def test_float_coefficients_are_those_of_the_fractions(terms):
    # each float coefficient is float(Fraction(c, den)) to the bit, with
    # numerators and denominators far beyond a double's 53 bits
    polys = [RationalPolynomial(NVARS, t) for t in terms]
    got = {}
    for factors, pairs in Evaluator(polys)._float:
        exps = [0] * NVARS
        for v, k in factors:
            exps[v] = k
        for out, c in pairs:
            got[out, tuple(exps)] = c.hex()
    assert got == {(out, e): float(c).hex()
                   for out, p in enumerate(polys) for e, c in p.terms.items()}


# -- integer storage against a dict-of-Fraction reference ---------------
# The reference keeps each term as a Fraction and adds, multiplies and
# differentiates term by term, so it shares no normalisation with the
# integer numerators over one denominator that RationalPolynomial stores.

def _ref(terms):
    return {e: c for e, c in terms.items() if c != 0}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, Fraction(0)) + c
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _ref_neg(a):
    return {e: -c for e, c in a.items()}


def _ref_scale(a, c):
    return {e: c * v for e, v in a.items()} if c != 0 else {}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def _ref_pow(a, k):
    out, base = {(0,) * NVARS: Fraction(1)}, a
    while k:
        if k & 1:
            out = _ref_mul(out, base)
        base = _ref_mul(base, base)
        k >>= 1
    return out


def _ref_partial(a, index):
    out = {}
    for e, c in a.items():
        if e[index]:
            ne = list(e)
            ne[index] -= 1
            out[tuple(ne)] = c * e[index]
    return out


def _ref_render(a):
    if not a:
        return "(0)"
    parts = []
    for e in sorted(a, key=lambda e: (sum(e), e), reverse=True):
        factors = ["(%s)" % a[e]]
        for i, k in enumerate(e):
            name = ("w%d" if i < NVARS // 2 else "y%d") % (i % (NVARS // 2) + 1)
            if k:
                factors.append(name if k == 1 else "%s^%d" % (name, k))
        parts.append(" ".join(factors))
    return " + ".join(parts)


def _assert_canonical(p):
    nums, den = p.numerators, p.denominator
    assert type(den) is int and den > 0
    assert all(type(c) is int and c != 0 for c in nums.values())
    assert gcd(den, *nums.values()) == 1
    assert nums or den == 1


@settings(max_examples=150)
@given(_term_dicts, _term_dicts, _coeffs, st.integers(-6, 6),
       st.integers(0, 3), st.integers(0, NVARS - 1))
def test_storage_matches_the_fraction_reference(a, b, c, k, power, index):
    ra, rb = _ref(a), _ref(b)
    p, q = RationalPolynomial(NVARS, a), RationalPolynomial(NVARS, b)
    cases = [
        (p, ra),
        (p + q, _ref_add(ra, rb)),
        (p - q, _ref_add(ra, _ref_neg(rb))),
        (-p, _ref_neg(ra)),
        (p + c, _ref_add(ra, _ref({(0,) * NVARS: c}))),
        (k - p, _ref_add(_ref_neg(ra), _ref({(0,) * NVARS: Fraction(k)}))),
        (c * p, _ref_scale(ra, c)),
        (p * c, _ref_scale(ra, c)),
        (k * p, _ref_scale(ra, Fraction(k))),
        (p * q, _ref_mul(ra, rb)),
        (p ** power, _ref_pow(ra, power)),
        (p.partial(index), _ref_partial(ra, index)),
    ]
    for got, want in cases:
        _assert_canonical(got)
        # the same terms in the same insertion order, and the same string
        assert list(got.terms.items()) == list(want.items())
        assert len(got.terms) == len(want)
        assert got.render() == _ref_render(want)
        for e in list(want)[:2] + [(3,) * NVARS]:
            assert got.coefficient(e) == want.get(e, 0)


@_SETTINGS
@given(_polys, _polys, _polys, _coeffs.filter(bool))
def test_equal_polynomials_have_equal_storage_and_hash(p, q, r, c):
    routes = [
        ((p + q) * r, p * r + q * r),
        ((p * c) * (1 / c), p),
        (p - q + q, p),
        (p * 2 - p * Fraction(1, 2), Fraction(3, 2) * p),
        (RationalPolynomial(NVARS, dict(p.terms)), p),
        (parse(p.render(), NVARS), p),
    ]
    for x, y in routes:
        _assert_canonical(x)
        assert x == y and hash(x) == hash(y)
        assert (x.numerators, x.denominator) == (y.numerators, y.denominator)
