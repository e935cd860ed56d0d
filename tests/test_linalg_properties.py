"""Property tests for the sparse matrix and inner-product kernels against
the dense formula, and for row reduction against Gauss-Jordan elimination
over Fractions and the identities it must satisfy."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow import linalg
from nilflow.ratpoly import RationalPolynomial

_SETTINGS = settings(max_examples=60)

# mostly zeros, as in the structure constants, Gram matrices and bases
_FRACTIONS = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                       st.fractions(min_value=-3, max_value=3,
                                    max_denominator=4))
_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300]),
                    st.floats(min_value=-3, max_value=3))
_NVARS = 3
_POLYS = st.dictionaries(st.tuples(*[st.integers(0, 2)] * _NVARS), _FRACTIONS,
                         max_size=3).map(
                             lambda terms: RationalPolynomial(_NVARS, terms))


def _dense_mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _dense_mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _dense_inner(u, v, gram=None):
    if gram is not None:
        v = _dense_mat_vec(gram, v)
    return sum(x * y for x, y in zip(u, v))


@st.composite
def _matrix(draw, rows, cols, entries=_FRACTIONS):
    """A sparse rows x cols matrix over one ring; square ones may be the
    identity, and any may have a zero row."""
    if rows == cols and draw(st.booleans()):
        return linalg.identity(rows)
    m = [draw(st.lists(entries, min_size=cols, max_size=cols))
         for _ in range(rows)]
    if draw(st.booleans()):
        m[draw(st.integers(0, rows - 1))] = [0 * m[0][0]] * cols
    return m


@st.composite
def _product(draw, left=_FRACTIONS, right=_FRACTIONS):
    r, k, c = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(_matrix(r, k, left)), draw(_matrix(k, c, right))


@st.composite
def _reducible(draw):
    """A sparse Fraction matrix, sometimes with a row combining two others."""
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    m = draw(_matrix(r, c))
    if r >= 2 and draw(st.booleans()):
        k = draw(_FRACTIONS)
        m.append([x + k * y for x, y in zip(m[0], m[1])])
    return m


def _same(got, want):
    """Equal entries of the same type; floats equal bit for bit."""
    return ([type(x) for x in got] == [type(x) for x in want]
            and repr(got) == repr(want))


@_SETTINGS
@given(_product())
def test_mat_mul_matches_dense_formula(case):
    a, b = case
    got = linalg.mat_mul(a, b)
    assert got == _dense_mat_mul(a, b)
    assert all(type(x) is Fraction for row in got for x in row)


@_SETTINGS
@given(_product(right=_FLOATS), _product(_FLOATS, _FLOATS))
def test_mat_mul_with_floats_is_bit_identical(mixed, floats):
    for a, b in (mixed, floats):
        for got, want in zip(linalg.mat_mul(a, b), _dense_mat_mul(a, b)):
            assert _same(got, want)


@_SETTINGS
@given(_product(), _product(right=_FLOATS), _product(_FLOATS, _FLOATS))
def test_mat_vec_matches_dense_formula(exact, mixed, floats):
    for a, b in (exact, mixed, floats):
        v = [row[0] for row in b]
        assert _same(linalg.mat_vec(a, v), _dense_mat_vec(a, v))


def test_empty_shapes_unchanged():
    one = [[Fraction(1)]]
    for a, b in (([], one), (one, []), ([[]], []), ([[], []], [])):
        assert linalg.mat_mul(a, b) == _dense_mat_mul(a, b)
    for a, v in (([], [Fraction(1)]), (one, []), ([[]], [])):
        assert linalg.mat_vec(a, v) == _dense_mat_vec(a, v)


def _reference_rref(mat):
    """Gauss-Jordan elimination over Fractions, one Fraction operation per
    cell: the pivot row is divided by its pivot and subtracted from every
    other row with a nonzero entry in the pivot column."""
    rows = [[linalg.frac(x) for x in row] for row in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


# ints and Fractions as the solvers and the exact scan feed them, with
# denominators up to 2^20 and either sign
_EXACT_ENTRIES = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-8, max_value=8, max_denominator=4),
    st.fractions(min_value=-2**10, max_value=2**10, max_denominator=2**20),
    st.builds(Fraction, st.integers(-3, 3), st.sampled_from([2**20, 393216])))


@st.composite
def _exact_matrix(draw):
    """A sparse matrix of ints and Fractions: 1 x n, n x 1, small, or one
    of the solvers' tall shapes such as 90 x 15.  Each row's zeros are
    int 0 or Fraction(0); sometimes a row combining two others is
    appended."""
    rows, cols = draw(st.one_of(
        st.tuples(st.just(1), st.integers(1, 24)),
        st.tuples(st.integers(1, 24), st.just(1)),
        st.tuples(st.integers(1, 8), st.integers(1, 8)),
        st.sampled_from([(90, 15), (74, 21), (50, 10)])))
    m = [[draw(st.sampled_from([0, Fraction(0)]))] * cols for _ in range(rows)]
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                      _EXACT_ENTRIES)
    for i, j, x in draw(st.lists(cells, max_size=3 * max(rows, cols))):
        m[i][j] = x
    if rows >= 2 and draw(st.booleans()):
        i, k = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        f = draw(_EXACT_ENTRIES)
        m.append([x + f * y for x, y in zip(m[i], m[k])])
    return m


@settings(max_examples=150)
@given(_exact_matrix())
def test_rref_and_rank_match_gauss_jordan(a):
    want_rows, want_pivots = _reference_rref(a)
    red, pivots = linalg.rref(a)
    assert (red, pivots) == (want_rows, want_pivots)
    assert all(type(x) is Fraction for row in red for x in row)
    assert linalg.rank(a) == len(want_pivots)


@_SETTINGS
@given(_exact_matrix(), st.data())
def test_rref_rejects_a_float_entry(a, data):
    i = data.draw(st.integers(0, len(a) - 1))
    j = data.draw(st.integers(0, len(a[0]) - 1))
    a[i][j] = data.draw(st.sampled_from([0.0, -0.0, 1.0, 0.5]))
    for reduce in (linalg.rref, linalg.rank, linalg.nullspace,
                   linalg.inverse):
        with pytest.raises(TypeError):
            reduce(a)


@_SETTINGS
@given(_reducible())
def test_rref_is_reduced_and_spans_the_rows(a):
    red, pivots = linalg.rref(a)
    assert pivots == sorted(set(pivots))
    for i, p in enumerate(pivots):
        assert [row[p] for row in red] == [int(k == i) for k in range(len(red))]
        assert not any(red[i][:p])
    assert not any(any(row) for row in red[len(pivots):])
    # every row of a is the combination of the pivot rows that its own
    # pivot-column entries name
    for row in a:
        assert row == [sum((row[p] * red[i][j] for i, p in enumerate(pivots)),
                           Fraction(0)) for j in range(len(row))]


@_SETTINGS
@given(_reducible())
def test_nullspace_is_annihilated_and_completes_the_rank(a):
    ncols = len(a[0])
    null = linalg.nullspace(a)
    rank = linalg.rank(a)
    assert rank + len(null) == ncols
    for v in null:
        assert linalg.mat_vec(a, v) == [0] * len(a)
    # one vector per free column, 1 there and 0 at the other free columns
    free = [c for c in range(ncols) if c not in linalg.rref(a)[1]]
    assert [[v[c] for c in free] for v in null] == linalg.identity(len(free))


@st.composite
def _inner_case(draw):
    """Sparse vectors u, v over one ring pairing (polynomials also against
    Fractions, as <Y, X> is) and a sparse Fraction Gram matrix or None."""
    left, right = draw(st.sampled_from([
        (_FRACTIONS, _FRACTIONS), (_FLOATS, _FLOATS), (_FRACTIONS, _FLOATS),
        (_POLYS, _POLYS), (_POLYS, _FRACTIONS), (_FRACTIONS, _POLYS)]))
    n = draw(st.integers(1, 4))
    u = draw(st.lists(left, min_size=n, max_size=n))
    v = draw(st.lists(right, min_size=n, max_size=n))
    gram = draw(st.one_of(st.none(), _matrix(n, n)))
    return u, v, gram


@_SETTINGS
@given(_inner_case())
def test_inner_matches_dense_formula(case):
    u, v, gram = case
    got, want = linalg.inner(u, v, gram), _dense_inner(u, v, gram)
    assert type(got) is type(want)
    assert got == want
    # all-zero inputs give the ring's zero: a zero polynomial for polynomials
    zeros = [0 * x for x in u]
    got = linalg.inner(zeros, v, gram)
    assert type(got) is type(_dense_inner(zeros, v, gram))
    assert not got
    if isinstance(u[0], RationalPolynomial):
        assert got == RationalPolynomial.constant(_NVARS, 0)


def test_frac_bounds_the_exponent_as_int_bounds_the_digits():
    # Fraction('1e999999999') would build 10**999999999; the mantissa
    # digits and the exponent's magnitude together may be as many as an
    # integer string may be long, so the number can be printed
    limit = sys.get_int_max_str_digits()
    for text in ("1e999999999", "1E-999999999", "-2.5e+%d" % (limit + 1),
                 "1e" + "9" * 50, "1e%d" % limit, "1e-%d" % limit,
                 "12e%d" % (limit - 1), "-1.5e%d" % (limit - 1)):
        with pytest.raises(ValueError, match="would build an integer of "
                           "more than %d digits" % limit):
            linalg.frac(text)
    assert linalg.frac("1e%d" % (limit - 1)) == 10 ** (limit - 1)
    assert linalg.frac("1e-%d" % (limit - 1)) == Fraction(1, 10 ** (limit - 1))
    assert linalg.frac("12e%d" % (limit - 2)) == 12 * 10 ** (limit - 2)
    assert linalg.frac("3e-4000") == Fraction(3, 10 ** 4000)
    assert linalg.frac("1e00000000000000000004") == 10000
    with pytest.raises(ValueError):
        linalg.frac("1" * (limit + 1))  # Python's own digit limit
