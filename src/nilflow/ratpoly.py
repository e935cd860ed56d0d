"""Sparse polynomials with exact rational coefficients.

A polynomial in ``nvars`` variables is stored as integer numerators over
one common denominator: ``numerators`` maps exponent tuples to nonzero
ints and ``denominator`` is a positive int.  The storage is canonical:
the gcd of the denominator and all numerators is 1, and the zero
polynomial has no terms and denominator 1, so equal polynomials store
equal data.  Arithmetic works on the ints and divides out the common
factor once per operation, not once per term.  ``terms`` returns a fresh
dict of the same polynomial, exponent tuples mapped to Fractions.

The canonical term order (graded lexicographic, highest degree first) is
imposed when rendering, so rendered strings are unique and can be parsed
back exactly.  Each operation keeps its result's monomials in the order
in which it first meets them; ``Evaluator`` compiles them in that order.

The default variable names describe a phase-space point on a group of
dimension n: ``w1..wn`` for the exponential coordinates of the base point
and ``y1..yn`` for the momentum, so ``nvars = 2n``.

``Evaluator`` is the one route from polynomials to numbers: exact values
at rational points, floats at float points, and arrays elementwise.  At a
point of polynomials it composes.  ``coefficient_rows`` lists the
coefficients of several polynomials over one shared monomial order.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import add

import numpy as np

from .linalg import frac


def phase_names(nvars):
    """Default variable names w1..wn, y1..yn (requires nvars even)."""
    if nvars % 2 != 0:
        raise ValueError("phase-space polynomials need an even variable count")
    n = nvars // 2
    return ["w%d" % (i + 1) for i in range(n)] + ["y%d" % (i + 1) for i in range(n)]


def _term_key(exps):
    # graded lex, biggest first once reversed by sorted(..., reverse=True)
    return (sum(exps), exps)


class RationalPolynomial:
    """Multivariate polynomial over Q with sparse exact storage.

    ``numerators`` and ``denominator`` are the canonical storage and are
    read-only; ``terms`` shows the same polynomial with Fraction values.
    """

    __slots__ = ("nvars", "numerators", "denominator")

    def __init__(self, nvars, terms=None):
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                c = frac(coeff)
                if c == 0:
                    continue
                e = tuple(int(x) for x in exps)
                if len(e) != nvars or any(x < 0 for x in e):
                    raise ValueError("bad exponent tuple %r" % (exps,))
                clean[e] = clean.get(e, Fraction(0)) + c
                if clean[e] == 0:
                    del clean[e]
        # over the lcm of the reduced denominators the form is canonical
        den = lcm(*(c.denominator for c in clean.values()))
        self.nvars = nvars
        self.numerators = {e: c.numerator * (den // c.denominator)
                           for e, c in clean.items()}
        self.denominator = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, nvars, c):
        c = frac(c)
        return _canonical(nvars, {(0,) * nvars: c.numerator} if c else {},
                          c.denominator)

    @classmethod
    def variable(cls, nvars, index):
        exps = [0] * nvars
        exps[index] = 1
        return _canonical(nvars, {tuple(exps): 1}, 1)

    # -- queries --------------------------------------------------------

    @property
    def terms(self):
        den = self.denominator
        return {exps: Fraction(c, den) for exps, c in self.numerators.items()}

    @property
    def numerator(self):
        """The polynomial times its denominator, with integer coefficients,
        so that, as for a Fraction, it is numerator / denominator."""
        return _canonical(self.nvars, self.numerators, 1)

    @property
    def is_zero(self):
        return not self.numerators

    def __bool__(self):
        return bool(self.numerators)

    def degree_in(self, indices):
        """Highest combined exponent over the given variable indices."""
        idx = list(indices)
        if not self.numerators:
            return 0
        return max(sum(e[i] for i in idx) for e in self.numerators)

    def coefficient(self, exps):
        return Fraction(self.numerators.get(tuple(exps), 0), self.denominator)

    def __eq__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return (self.nvars == other.nvars
                and self.denominator == other.denominator
                and self.numerators == other.numerators)

    def __hash__(self):
        return hash((self.nvars, self.denominator,
                     frozenset(self.numerators.items())))

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        """self + other over the lcm of the two denominators."""
        if not isinstance(other, RationalPolynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return self
            other = RationalPolynomial.constant(self.nvars, other)
        _same_size(self, other)
        den, d2 = self.denominator, other.denominator
        if den == d2:
            out = dict(self.numerators)
            m2 = 1
        else:
            g = gcd(den, d2)
            m1, m2 = d2 // g, den // g
            out = {e: c * m1 for e, c in self.numerators.items()}
            den *= m1
        for e, c in other.numerators.items():
            s = out.get(e, 0) + c * m2
            if s:
                out[e] = s
            else:
                del out[e]
        return _canonical(self.nvars, out, den)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(self.nvars, {e: -c for e, c in self.numerators.items()},
                          self.denominator)

    def __sub__(self, other):
        if not isinstance(other, (RationalPolynomial, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RationalPolynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            # p/q * nums/den = (p * nums) / (q * den)
            p, q = other.numerator, other.denominator
            if p == 0:
                return _canonical(self.nvars, {}, 1)
            if p == q:
                return self
            return _canonical(self.nvars,
                              {e: c * p for e, c in self.numerators.items()},
                              self.denominator * q)
        _same_size(self, other)
        out = {}
        for e1, c1 in self.numerators.items():
            for e2, c2 in other.numerators.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return _canonical(self.nvars, out,
                          self.denominator * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = RationalPolynomial.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def partial(self, index):
        """Partial derivative with respect to variable ``index``."""
        out = {}
        for e, c in self.numerators.items():
            k = e[index]
            if k == 0:
                continue
            ne = list(e)
            ne[index] = k - 1
            out[tuple(ne)] = c * k
        return _canonical(self.nvars, out, self.denominator)

    # -- rendering ------------------------------------------------------

    def render(self):
        """Canonical string like ``(1/2) y1^2 + (-1) w1 y2``."""
        names = phase_names(self.nvars)
        if not self.numerators:
            return "(0)"
        parts = []
        for exps in sorted(self.numerators, key=_term_key, reverse=True):
            factors = ["(%s)" % Fraction(self.numerators[exps], self.denominator)]
            for name, k in zip(names, exps):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append("%s^%d" % (name, k))
            parts.append(" ".join(factors))
        return " + ".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "RationalPolynomial(%s)" % self.render()


def _same_size(p, q):
    if p.nvars != q.nvars:
        raise ValueError("polynomials in %d and %d variables do not combine"
                         % (p.nvars, q.nvars))


def _canonical(nvars, nums, den):
    """The polynomial nums / den (nonzero int numerators, den > 0) with the
    common factor of den and all numerators divided out."""
    if den != 1:
        g = gcd(den, *nums.values())  # den itself when nums is empty
        if g != 1:
            nums = {e: c // g for e, c in nums.items()}
            den //= g
    poly = object.__new__(RationalPolynomial)
    poly.nvars = nvars
    poly.numerators = nums
    poly.denominator = den
    return poly


def coefficient_rows(polys):
    """One row of coefficients per polynomial, over the monomials of all of
    them in the order in which they first appear: a Fraction for each term
    of the polynomial and int 0 for each monomial it lacks."""
    monomials = {}
    for p in polys:
        for e in p.numerators:
            monomials.setdefault(e, len(monomials))
    rows = []
    for p in polys:
        row = [0] * len(monomials)
        for e, c in p.numerators.items():
            row[monomials[e]] = Fraction(c, p.denominator)
        rows.append(row)
    return rows


class Evaluator:
    """The values of a list of polynomials at a point, compiled once.

    Each monomial of the polynomials is kept once, as its nonzero
    (variable, exponent) factors with the (output, coefficient) pairs
    that use it, and is formed once per call.  A point of ints, Fractions
    and polynomials gives exact values (at polynomials, the composition).
    Any other point is evaluated in floats with the coefficients converted
    once, each integer numerator over its denominator: scalars as Python
    floats, numpy arrays (one per variable) elementwise.  An output with
    no terms is int 0.

    An exact point is evaluated on integer numerators: the denominators
    of its coordinates, polynomials included, are cleared once to their
    lcm q, so each coordinate enters as q times itself, a polynomial one
    with integer coefficients.  A monomial of degree d is formed from
    these and scaled by q^(top - d), top the highest degree, so every
    monomial is over q^top, and each output sums its integer numerators
    times these and is divided once by its denominator times q^top.
    Values and types are those of summing Fraction products: an output is
    a polynomial where one of its monomials meets a polynomial
    coordinate, else a Fraction.

    ``rows`` evaluates every row of a (batch, nvars) float array at once,
    variable-major: one ``take`` of the transposed array gathers every
    factor of every monomial into one C-contiguous (slots, batch) array;
    its leading block (the first factors) is multiplied in place by one
    contiguous block per further factor, in the order of the factors, and
    one ``p.T.dot(coeffs)`` sums the monomials.  So a call makes a take,
    degree - 1 products and a dot (four at the degree 3 of a step-3
    geodesic field), plus one add if there is a constant term, whatever
    the batch.  ``p.T.dot(coeffs)`` rounds as the row-major product
    (batch, slots) @ (slots, count) does at every batch size, so a flow
    keeps its bits; a (count, slots) coefficient matrix times ``p`` goes
    through a matrix-vector BLAS call at batch 1 and rounds differently.

    The first call at a new (batch, nvars) shape checks the width and
    binds the gather index, a workspace for that batch size (the gather
    array and its block views), the coefficients and the constant term
    together; a later call at the same shape runs only the kernel.  The
    workspace is kept for the last batch size and rebuilt only when the
    batch size changes, so the take and the products allocate nothing.
    Only the dot allocates, and its result is the output: an output never
    aliases the workspace and stays valid across later calls.  The shared
    workspace makes ``rows`` not reentrant: one evaluator must not run
    ``rows`` in two threads at once.
    """

    def __init__(self, polys):
        self.nvars = polys[0].nvars
        self.count = len(polys)
        uses = {}
        for out, p in enumerate(polys):
            for e, c in p.numerators.items():
                uses.setdefault(e, []).append((out, c))
        # None marks an output with no terms, which stays int 0
        self._dens = [p.denominator if p else None for p in polys]
        self._top = max(map(sum, uses), default=0)
        self._ints = [(tuple((v, k) for v, k in enumerate(e) if k),
                       self._top - sum(e), pairs) for e, pairs in uses.items()]
        self._float = [(factors, [(out, c / self._dens[out]) for out, c in pairs])
                       for factors, _, pairs in self._ints]
        self._arrays = None
        self._shape = self._bound = None

    def __call__(self, values):
        if len(values) != self.nvars:
            raise ValueError("expected %d values" % self.nvars)
        if all(isinstance(v, (int, Fraction, RationalPolynomial))
               for v in values):
            return self._on_ints(values)
        values = [v if isinstance(v, np.ndarray) else float(v) for v in values]
        out = [0] * self.count
        for factors, pairs in self._float:
            m = 1
            for v, k in factors:
                m = m * (values[v] if k == 1 else values[v] ** k)
            for i, c in pairs:
                out[i] += c * m
        return out

    def _on_ints(self, values):
        """The exact values at a point of ints, Fractions and polynomials,
        on integer numerators."""
        q = lcm(*(v.denominator for v in values))
        ints = [v.numerator * (q // v.denominator) for v in values]
        scales = [q ** k for k in range(self._top + 1)]
        sums = [0] * self.count
        for factors, gap, pairs in self._ints:
            m = scales[gap]
            for v, k in factors:
                m *= ints[v] if k == 1 else ints[v] ** k
            for i, c in pairs:
                sums[i] += c * m
        top = scales[-1]
        return [0 if d is None else Fraction(s, d * top) if isinstance(s, int)
                else s * Fraction(1, d * top) for s, d in zip(sums, self._dens)]

    def rows(self, x):
        """Values at each row of a (batch, nvars) float array: (batch, count)."""
        if x.shape != self._shape:
            self._bind(x.shape)
        flat, m, pt, products, coeffs, constant = self._bound
        # flat is in range by construction; "raise" would buffer the out=
        x.T.take(flat, 0, m, "clip")
        for head, block in products:
            np.multiply(head, block, head)
        out = pt.dot(coeffs)
        if constant is not None:
            out += constant
        return out

    def _bind(self, shape):
        """Check the width of a new input shape, then bind the row arrays
        and a workspace for its batch size to it."""
        if shape[1] != self.nvars:
            raise ValueError("expected %d columns" % self.nvars)
        if self._arrays is None:
            self._arrays = self._row_arrays()
        flat, width, blocks, coeffs, constant = self._arrays
        m = np.empty((len(flat), shape[0]))
        self._bound = (flat, m, m[:width].T,
                       [(m[head], m[block]) for head, block in blocks],
                       coeffs, constant)
        self._shape = shape

    def _row_arrays(self):
        """The gather index and coefficients of ``rows``, built on its first
        call.  The monomials are sorted by falling degree and factor d of
        each (a variable repeated by its exponent) is gathered into block d
        of one flat index; block d covers the monomials of degree above d,
        so it multiplies a leading slice of block 0.  The constant term is
        apart."""
        slots = sorted((([v for v, k in factors for _ in range(k)], pairs)
                        for factors, pairs in self._float if factors),
                       key=lambda s: -len(s[0]))
        degree = len(slots[0][0]) if slots else 1
        gather = [[s[d] for s, _ in slots if len(s) > d] for d in range(degree)]
        blocks, start = [], len(gather[0])
        for g in gather[1:]:
            blocks.append((slice(len(g)), slice(start, start + len(g))))
            start += len(g)
        flat = np.array([v for g in gather for v in g], dtype=np.intp)
        coeffs = np.zeros((len(slots), self.count))
        for m, (_, pairs) in enumerate(slots):
            for out, c in pairs:
                coeffs[m, out] = c
        constant = None
        for factors, pairs in self._float:
            if not factors:
                constant = np.zeros(self.count)
                for out, c in pairs:
                    constant[out] = c
        return flat, len(gather[0]), blocks, coeffs, constant
