"""Sparse polynomials with exact rational coefficients.

A polynomial in ``nvars`` variables is a dict mapping exponent tuples to
nonzero Fractions.  The canonical term order (graded lexicographic,
highest degree first) is imposed when rendering, so rendered strings are
unique and can be parsed back exactly.

The default variable names describe a phase-space point on a group of
dimension n: ``w1..wn`` for the exponential coordinates of the base point
and ``y1..yn`` for the momentum, so ``nvars = 2n``.

``Evaluator`` is the one route from polynomials to numbers: exact values
at rational points, floats at float points, and arrays elementwise.  At a
point of polynomials it composes.  ``coefficient_rows`` lists the
coefficients of several polynomials over one shared monomial order.
"""

from fractions import Fraction

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
    """Multivariate polynomial over Q with sparse exact storage."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
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
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        c = frac(c)
        if c == 0:
            return cls(nvars)
        return cls(nvars, {tuple([0] * nvars): c})

    @classmethod
    def variable(cls, nvars, index):
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, nvars, exps, coeff):
        return cls(nvars, {tuple(exps): frac(coeff)})

    # -- queries --------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self):
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def degree_in(self, indices):
        """Highest combined exponent over the given variable indices."""
        idx = list(indices)
        if not self.terms:
            return 0
        return max(sum(e[i] for i in idx) for e in self.terms)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalPolynomial.constant(self.nvars, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        res = RationalPolynomial(self.nvars)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = RationalPolynomial(self.nvars)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalPolynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = frac(other)
            if c == 0:
                return RationalPolynomial(self.nvars)
            res = RationalPolynomial(self.nvars)
            res.terms = {e: c * v for e, v in self.terms.items()}
            return res
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        res = RationalPolynomial(self.nvars)
        res.terms = out
        return res

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
        for e, c in self.terms.items():
            k = e[index]
            if k == 0:
                continue
            ne = list(e)
            ne[index] = k - 1
            out[tuple(ne)] = c * k
        res = RationalPolynomial(self.nvars)
        res.terms = out
        return res

    def evaluate(self, values):
        """Evaluate at a point (Fractions stay exact, floats go float)."""
        return Evaluator([self])(values)[0]

    # -- rendering ------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _term_key(t[0]), reverse=True)

    def render(self, names=None):
        """Canonical string like ``(1/2) y1^2 + (-1) w1 y2``."""
        if names is None:
            names = phase_names(self.nvars)
        if not self.terms:
            return "(0)"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = ["(%s)" % coeff]
            for name, k in zip(names, exps):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append("%s^%d" % (name, k))
            parts.append(" ".join(factors))
        return " + ".join(parts)

    @classmethod
    def parse(cls, text, nvars, names=None):
        """Inverse of render (accepts exactly the rendered grammar)."""
        if names is None:
            names = phase_names(nvars)
        index = {name: i for i, name in enumerate(names)}
        text = text.strip()
        poly = cls(nvars)
        if text == "(0)":
            return poly
        for part in text.split(" + "):
            tokens = part.split()
            head = tokens[0]
            if not (head.startswith("(") and head.endswith(")")):
                raise ValueError("malformed term %r" % part)
            coeff = Fraction(head[1:-1])
            exps = [0] * nvars
            for tok in tokens[1:]:
                if "^" in tok:
                    name, power = tok.split("^")
                    k = int(power)
                else:
                    name, k = tok, 1
                if name not in index:
                    raise ValueError("unknown variable %r" % name)
                exps[index[name]] += k
            poly = poly + cls.monomial(nvars, exps, coeff)
        return poly

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "RationalPolynomial(%s)" % self.render()


def coefficient_rows(polys):
    """One row of coefficients per polynomial, over the monomials of all of
    them in the order in which they first appear."""
    monomials = {}
    for p in polys:
        for e in p.terms:
            monomials.setdefault(e, len(monomials))
    return [[p.terms.get(e, Fraction(0)) for e in monomials] for p in polys]


class Evaluator:
    """The values of a list of polynomials at a point, compiled once.

    Each monomial of the polynomials is kept once, as its nonzero
    (variable, exponent) factors with the (output, coefficient) pairs
    that use it, and is formed once per call.  A point of ints, Fractions
    and polynomials gives exact values (at polynomials, the composition).
    Any other point is evaluated in floats with the coefficients converted
    once: scalars as Python floats, numpy arrays (one per variable)
    elementwise.  An output with no terms is 0.
    ``rows`` evaluates every row of a (batch, nvars) float array at once.
    """

    def __init__(self, polys):
        self.nvars = polys[0].nvars
        self.count = len(polys)
        uses = {}
        for out, p in enumerate(polys):
            for e, c in p.terms.items():
                uses.setdefault(e, []).append((out, c))
        self._exact = [(tuple((v, k) for v, k in enumerate(e) if k), pairs)
                       for e, pairs in uses.items()]
        self._float = [(factors, [(out, float(c)) for out, c in pairs])
                       for factors, pairs in self._exact]
        # rows(): the monomials by falling degree, so that factor d of
        # the first len(gather[d]) of them is x[:, gather[d]], with each
        # variable repeated by its exponent; the constant term is apart
        slots = sorted((([v for v, k in factors for _ in range(k)], pairs)
                        for factors, pairs in self._float if factors),
                       key=lambda s: -len(s[0]))
        degree = len(slots[0][0]) if slots else 1
        self._gather = [np.array([s[d] for s, _ in slots if len(s) > d],
                                 dtype=np.intp) for d in range(degree)]
        self._coeffs = np.zeros((len(slots), self.count))
        for m, (_, pairs) in enumerate(slots):
            for out, c in pairs:
                self._coeffs[m, out] = c
        self._constant = None
        if (0,) * self.nvars in uses:
            self._constant = np.zeros(self.count)
            for out, c in uses[(0,) * self.nvars]:
                self._constant[out] = c

    def __call__(self, values):
        if len(values) != self.nvars:
            raise ValueError("expected %d values" % self.nvars)
        monomials = self._exact
        if not all(isinstance(v, (int, Fraction, RationalPolynomial))
                   for v in values):
            monomials = self._float
            values = [v if isinstance(v, np.ndarray) else float(v)
                      for v in values]
        out = [0] * self.count
        for factors, pairs in monomials:
            m = 1
            for v, k in factors:
                m = m * (values[v] if k == 1 else values[v] ** k)
            for i, c in pairs:
                out[i] += c * m
        return out

    def rows(self, x):
        """Values at each row of a (batch, nvars) float array: (batch, count)."""
        if x.shape[1] != self.nvars:
            raise ValueError("expected %d columns" % self.nvars)
        m = x[:, self._gather[0]]
        for slots in self._gather[1:]:
            m[:, :len(slots)] *= x[:, slots]
        out = m @ self._coeffs
        if self._constant is not None:
            out += self._constant
        return out
