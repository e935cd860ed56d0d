"""How the value polynomials of the integrals are built.

``Energy``, ``Linear`` and ``Quadratic`` write their forms directly, in
the order ``render`` lists the terms; the oracle below is the polynomial
route they replaced, y . G (S y) through ``alg.inner`` and ``mat_vec``.
Equal data is not enough: ``Evaluator`` compiles monomials in the order
of a polynomial's dict, so float values depend on that order.  Under the
identity metric, that of every catalog entry, the order is the oracle's
term for term, which keeps the catalog's float bits; under other metrics
the value is the oracle's and the order is the render order.

``DerivationIntegral`` shares its expansions and its validation through
bounded per-descriptor ``functools.lru_cache`` memos keyed by the exact
matrix.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import h3
from nilflow import catalog, group, integrals, linalg, solvers
from nilflow.algebra import LieAlgebraDescriptor
from nilflow.integrals import (DERIVATION_TABLE_SIZE, DerivationIntegral,
                               Energy, Linear, NotADerivation, Quadratic,
                               _derivations)
from nilflow.ratpoly import RationalPolynomial, _term_key

# a metric under which the render order and the products' order differ
H3_METRIC = [[2, 1, 0], [1, 2, 0], [0, 0, 1]]


# -- the polynomial route the direct forms replaced ----------------------

def _y(alg):
    n = alg.dim
    return [RationalPolynomial.variable(2 * n, n + i) for i in range(n)]


def _old_energy(alg):
    y = _y(alg)
    return alg.inner(y, y) * Fraction(1, 2)


def _old_linear(alg, x):
    return alg.inner(_y(alg), x)


def _old_quadratic(alg, s):
    y = _y(alg)
    return alg.inner(y, linalg.mat_vec(s, y)) * Fraction(1, 2)


def _stored(p):
    """A polynomial's storage, its term order included."""
    return list(p.numerators.items()), p.denominator


def _with_metric(alg, metric):
    """A new descriptor with alg's brackets, so its tables start empty."""
    return LieAlgebraDescriptor(alg.dim, alg.structure, metric=metric,
                                name=alg.name)


def _symmetric_basis(alg):
    """A basis of the S with G S symmetric, as vec(S); nullspace vectors
    carry a 1/0 free-variable pattern, so they are sparse."""
    n, g = alg.dim, alg.gram()
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            row = [Fraction(0)] * (n * n)
            for a in range(n):  # (G S)_ij - (G S)_ji
                row[a * n + j] += g[i][a]
                row[a * n + i] -= g[j][a]
            rows.append(row)
    return linalg.nullspace(rows, ncols=n * n)


def _operator(alg, picks):
    """sum c vec(S_b) over (b, c) in picks, as an n x n matrix."""
    n, basis = alg.dim, _symmetric_basis(alg)
    vec = [Fraction(0)] * (n * n)
    for b, c in picks:
        vec = [v + c * e for v, e in zip(vec, basis[b % len(basis)])]
    return [vec[i * n:(i + 1) * n] for i in range(n)]


def _assert_forms_match(alg, xs, ss):
    assert _stored(Energy(alg).as_polynomial()) == _stored(_old_energy(alg))
    for x in xs:
        assert (_stored(Linear(alg, x).as_polynomial())
                == _stored(_old_linear(alg, x))), x
    for s in ss:
        assert (_stored(Quadratic(alg, s).as_polynomial())
                == _stored(_old_quadratic(alg, s))), s


def _random_picks(rng, count):
    return [(rng.randrange(10 ** 6), Fraction(rng.randint(-3, 3),
                                              rng.randint(1, 3)))
            for _ in range(rng.randint(1, count))]


@pytest.mark.parametrize("name", catalog.names())
def test_forms_keep_the_old_terms_and_order_under_the_identity(name):
    entry = catalog.get(name)
    alg = entry.descriptor
    rng = random.Random(name)
    xs = linalg.identity(alg.dim) + [
        [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
         for _ in range(alg.dim)] for _ in range(3)]
    ss = list(entry.quad_refs.values()) + [
        _operator(alg, _random_picks(rng, 6)) for _ in range(8)]
    _assert_forms_match(alg, xs, ss)


def _assert_forms_equal_in_render_order(alg, xs, ss):
    """Each form equals the product route (==) and lists its terms in
    render order, _term_key descending."""
    pairs = [(Energy(alg), _old_energy(alg))]
    pairs += [(Linear(alg, x), _old_linear(alg, x)) for x in xs]
    pairs += [(Quadratic(alg, s), _old_quadratic(alg, s)) for s in ss]
    for f, old in pairs:
        p = f.as_polynomial()
        assert p == old, f
        keys = list(p.numerators)
        assert keys == sorted(keys, key=_term_key, reverse=True), f


def test_forms_keep_the_accumulation_order_under_a_metric():
    # on sparse S the accumulation order of mat_vec(G, mat_vec(S, y))
    # differs from the render order; the forms keep the products' value
    # and list their terms in render order
    alg = h3(H3_METRIC)
    rng = random.Random(7)
    ss = [_operator(alg, _random_picks(rng, 3)) for _ in range(200)]
    xs = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(20)]
    _assert_forms_equal_in_render_order(alg, xs, ss)


@st.composite
def _metric_case(draw):
    alg = catalog.get(draw(st.sampled_from(catalog.names()))).descriptor
    n = alg.dim
    entry = st.one_of(st.just(Fraction(0)),
                      st.fractions(-2, 2, max_denominator=3))
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=n, max_size=n))
    # A^T A + I: a random rational positive definite metric
    metric = linalg.mat_add(linalg.mat_mul(linalg.transpose(a), a),
                            linalg.identity(n))
    picks = draw(st.lists(st.tuples(st.integers(0, 10 ** 6),
                                    st.fractions(-3, 3, max_denominator=3)),
                          min_size=1, max_size=4))
    x = draw(st.lists(entry, min_size=n, max_size=n))
    return _with_metric(alg, metric), picks, x


@settings(max_examples=60)
@given(_metric_case())
def test_forms_keep_the_old_terms_and_order_under_random_metrics(case):
    # the old terms, by value; the order, the render order
    alg, picks, x = case
    _assert_forms_equal_in_render_order(
        alg, [x], [_operator(alg, picks), _operator(alg, picks[:1])])


# -- the derivation memos --------------------------------------------------

def _entry_derivation(name):
    alg = catalog.get(name).descriptor
    return _with_metric(alg, alg.metric), solvers.skew_derivations(alg)[0]


# skew on h3, but D[e1, e2] = D e3 = -e1 while [D e1, e2] = [e3, e2] = 0
NOT_A_DERIVATION = [[0, 0, -1], [0, 0, 0], [1, 0, 0]]


def test_a_non_derivation_raises_on_every_construction():
    alg = h3()
    for _ in range(2):
        with pytest.raises(NotADerivation):
            DerivationIntegral(alg, NOT_A_DERIVATION)


def test_an_unchecked_construction_does_not_validate_the_matrix():
    alg = h3()
    DerivationIntegral(alg, NOT_A_DERIVATION, check=False).as_polynomial()
    with pytest.raises(NotADerivation):
        DerivationIntegral(alg, NOT_A_DERIVATION)


def test_a_table_hit_equals_a_fresh_expansion():
    alg, d = _entry_derivation("n6_26")
    first = DerivationIntegral(alg, d)
    first.gradient_polys()
    hit = DerivationIntegral(alg, d, label="again")
    fresh = DerivationIntegral(_with_metric(alg, alg.metric), d)
    assert hit.as_polynomial() == fresh.as_polynomial()
    assert hit.as_polynomial() is first.as_polynomial()
    assert hit.gradient_polys() == fresh.gradient_polys()
    memos = _derivations(alg)
    assert memos.value.cache_info().misses == 1
    assert memos.gradient.cache_info().misses == 1
    # the fresh one is the Phi(ad w) series itself
    w, y = integrals._w_vec(alg), integrals._y_vec(alg)
    series = group.ad_series(alg, w, group.phi_coeff, linalg.mat_vec(d, w))
    assert fresh.as_polynomial() == alg.inner(series, y)


def test_one_matrix_is_validated_once(monkeypatch):
    calls, validate = [], integrals.validate_derivation

    def counted(alg, d):
        calls.append(1)
        return validate(alg, d)

    alg, d = _entry_derivation("h5")
    _derivations(alg)  # the memos exist before the rebinding
    # the check memo looks validate_derivation up by name at each call,
    # so a rebinding, such as the benchmark tracer's, sees every check
    monkeypatch.setattr(integrals, "validate_derivation", counted)
    for _ in range(20):
        DerivationIntegral(alg, d)
    assert len(calls) == 1
    info = _derivations(alg).check.cache_info()
    assert (info.hits, info.misses) == (19, 1)


def test_the_table_keeps_at_most_its_cap():
    alg, d = _entry_derivation("h5")
    scaled = [linalg.mat_scale(d, Fraction(k))
              for k in range(1, DERIVATION_TABLE_SIZE + 11)]
    value = _derivations(alg).value
    assert value.cache_info().maxsize == DERIVATION_TABLE_SIZE
    for m in scaled:
        DerivationIntegral(alg, m, check=False).as_polynomial()
        assert value.cache_info().currsize <= DERIVATION_TABLE_SIZE
    assert value.cache_info().currsize == DERIVATION_TABLE_SIZE
    assert value.cache_info().misses == len(scaled)
    # the least recently used goes first: scaled[10] is used again, so
    # the next new matrix evicts scaled[11]
    DerivationIntegral(alg, scaled[10]).as_polynomial()
    DerivationIntegral(alg, linalg.mat_scale(d, Fraction(-1)),
                       check=False).as_polynomial()
    misses = value.cache_info().misses
    DerivationIntegral(alg, scaled[10]).as_polynomial()
    assert value.cache_info().misses == misses
    # an evicted matrix is expanded and validated anew
    fresh = _with_metric(alg, alg.metric)
    for m in (scaled[0], scaled[11]):
        assert (DerivationIntegral(alg, m).as_polynomial()
                == DerivationIntegral(fresh, m).as_polynomial())
    assert value.cache_info().misses == misses + 2
    check = _derivations(alg).check.cache_info()
    assert check.maxsize == DERIVATION_TABLE_SIZE and check.currsize == 3


def test_integrals_of_one_matrix_own_their_gradient_lists():
    alg, d = _entry_derivation("n6_22(-1)")
    f, g = DerivationIntegral(alg, d), DerivationIntegral(alg, d)
    want = [list(part) for part in g.gradient_polys()]
    u, v = f.gradient_polys()
    u[0] = v.pop()
    assert [list(part) for part in g.gradient_polys()] == want
    assert [list(part) for part in
            DerivationIntegral(alg, d).gradient_polys()] == want
