"""Exact dense linear algebra over the rationals.

Matrices are lists of row lists of Fraction (ints are accepted too).  All
routines are deterministic: nullspace basis vectors carry the 1/0
free-variable pattern.  ``mat_mul``, ``mat_vec`` and ``inner`` serve every
coefficient ring the entries multiply in, exact polynomials included.

``rref`` is the one row reduction; ``rank``, ``nullspace``,
``row_space_basis``, ``span_equal`` and ``inverse`` call it.  It scales
each row to integers by the lcm of its denominators and eliminates
fraction-free (Bareiss, Math. Comp. 22, 1968): a row with entry a in the
pivot column becomes (p/g) row - (a/g) pivot_row, with p the pivot and
g = gcd(p, a), and each updated row is divided by the gcd of its entries,
so the integers stay small.  Only at the end is each pivot row divided by
its pivot.  The reduced row echelon form of a matrix is unique, so the
result is the same Fraction matrix and pivot list that Gauss-Jordan
elimination over Q gives.
"""

import sys
from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)
_EXACT = {int, Fraction}
_NUMBER_CHARS = frozenset("0123456789+-./eE")


def frac(x) -> Fraction:
    """Coerce an int, a ``plain`` string like '5/12', or Fraction to Fraction.

    A string's exponent may not exceed sys.get_int_max_str_digits() in
    magnitude, the limit Python puts on the digits of an integer string:
    Fraction('1e999999999') would build 10**999999999."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        exp = plain(x).lower().partition("e")[2].lstrip("+-").lstrip("0")
        limit = sys.get_int_max_str_digits()
        if limit and exp.isdigit() and (len(exp) > len(str(limit))
                                        or int(exp) > limit):
            raise ValueError("%r has an exponent beyond %d" % (x, limit))
    elif not isinstance(x, int):
        raise TypeError("expected an exact rational, got %r" % (x,))
    return Fraction(x)


def plain(text):
    """``text`` if it spells a number in ASCII digits, signs, '.', '/' and
    'e' only, else a ValueError; int() and Fraction() would also read
    '1_0' as 10, and ' 3' or an Arabic-Indic digit as the plain digit."""
    if not _NUMBER_CHARS.issuperset(text):
        raise ValueError("%r is not a plain number" % text)
    return text


def identity(n):
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def zeros(r, c):
    return [[_ZERO] * c for _ in range(r)]


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def _product_zero(x, y):
    """What summing zero products of x's and y's ring gives: Fraction(0)
    for Fractions, +0.0 (never -0.0) for floats."""
    return 0 * x * y + 0


def mat_mul(a, b):
    """a @ b, forming only the products of two nonzero factors."""
    bt = transpose(b)
    if not (a and a[0] and bt):
        return [[0] * len(bt) for _ in a]
    zero = _product_zero(a[0][0], bt[0][0])
    cols = [{k: y for k, y in enumerate(col) if y} for col in bt]
    out = []
    for row in a:
        entries = [(k, x) for k, x in enumerate(row) if x]
        out.append([sum([x * col[k] for k, x in entries if k in col], zero)
                    for col in cols])
    return out


def mat_vec(a, v):
    """a @ v, forming only the products of two nonzero factors."""
    if not (a and a[0] and v):
        return [0] * len(a)
    zero = _product_zero(a[0][0], v[0])
    entries = [(k, y) for k, y in enumerate(v) if y]
    return [sum([row[k] * y for k, y in entries if row[k]], zero) for row in a]


def vec_add(u, v):
    return [x + y for x, y in zip(u, v)]


def vec_sub(u, v):
    return [x - y for x, y in zip(u, v)]


def is_zero_vec(u):
    return all(x == 0 for x in u)


def inner(u, v, gram=None):
    """<u, v>, optionally with respect to a Gram matrix (u . G v), over any
    ring: Fractions, floats, polynomials or a mix.

    Only the products of two nonzero factors are formed; the ring's zero
    is formed only when no product survives.
    """
    if gram is not None:
        v = mat_vec(gram, v)
    terms = [x * y for x, y in zip(u, v) if x and y]
    if terms:
        return sum(terms[1:], terms[0])
    return _product_zero(u[0], v[0]) if u and v else 0


def integer_rows(mat, ncols):
    """The nonzero rows of mat, each times a positive rational that makes
    it coprime ints: the lcm of its denominators over the gcd of the
    resulting numerators."""
    # every entry's type is checked, zeros included: anything but an int
    # or a Fraction goes through frac, which rejects a float such as 0.0
    types = set()
    for row in mat:
        types.update(map(type, row))
    if not types <= _EXACT:
        mat = [[frac(x) for x in row] for row in mat]
    rows = []
    for row in mat:
        entries = [(j, x) for j, x in enumerate(row) if x]
        if not entries:
            continue
        den = lcm(*[x.denominator for _, x in entries])
        ints = [0] * ncols
        for j, x in entries:
            ints[j] = x.numerator * (den // x.denominator)
        g = gcd(*ints)
        rows.append([x // g for x in ints] if g != 1 else ints)
    return rows


def rref(mat):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    rows = integer_rows(mat, ncols)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        p = pivot[c]
        support = [(j, x) for j, x in enumerate(pivot) if x]
        for i, row in enumerate(rows):
            a = row[c]
            if a and i != r:
                g = gcd(p, a)
                if p != g:
                    row = [(p // g) * x for x in row]
                a //= g
                for j, x in support:
                    row[j] -= a * x
                g = gcd(*row)  # 0 when the row is now zero
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    out = [[Fraction(x, row[c]) if x else _ZERO for x in row]
           for row, c in zip(rows, pivots)]
    out.extend([_ZERO] * ncols for _ in range(nrows - len(pivots)))
    return out, pivots


def rank(mat):
    return len(rref(mat)[1])


def nullspace(mat, ncols=None):
    """Basis of the right nullspace, one vector per free column."""
    if not mat:
        return identity(ncols or 0)
    n = len(mat[0])
    red, pivots = rref(mat)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [_ZERO] * n
        v[fc] = _ONE
        for ri, pc in enumerate(pivots):
            v[pc] = -red[ri][fc]
        basis.append(v)
    return basis


def row_space_basis(vectors):
    """Canonical (RREF) basis of the span of the given vectors."""
    if not vectors:
        return []
    red, pivots = rref(vectors)
    return [red[i] for i in range(len(pivots))]


def span_equal(vectors_a, vectors_b):
    return row_space_basis(vectors_a) == row_space_basis(vectors_b)


def inverse(mat):
    n = len(mat)
    aug = [list(row) + [_ONE if i == j else _ZERO for j in range(n)]
           for i, row in enumerate(mat)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]
