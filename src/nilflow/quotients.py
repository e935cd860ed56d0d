"""Lattice quotients and the descent of functions to them.

A lattice is stored by its generators, tuples of exponential
coordinates.  A phase-space point is a plain (w, y) pair; left
translation acts on the base coordinates w through the group product and
leaves the body momentum y alone.  ``descent`` decides exactly whether
functions are invariant under every generator, from one translate per
generator at symbolic w and y, with the shift multipliers of each
quotient-induced one.  The numeric ``invariance_check`` measures the
float deviation instead: it draws its points through
``solvers.sample_points`` and rejects them by
``solvers.denominators_clear``, as the independence scan does.
"""

from fractions import Fraction

from . import group
from .integrals import QuotientInduced, _w_vec, _y_vec
from .solvers import denominators_clear, sample_points


class Lattice:
    """A finitely generated subgroup given by generators in exponential
    coordinates, each stored as a tuple."""

    def __init__(self, name, generators):
        self.name = name
        self.generators = [tuple(g) for g in generators]

    def __repr__(self):
        return "<Lattice %s, %d generators>" % (self.name, len(self.generators))


def left_translate(alg, g_coords, point):
    """(w, y) -> (g * w, y) in exponential coordinates."""
    w, y = point
    return group.bch(alg, list(g_coords), list(w)), y


def invariance_check(alg, lattice, f, nsamples=None, seed=0):
    """Max |f(g x) - f(x)| over the points ``sample_points`` accepts and
    the generators g, with the number of accepted points.

    A draw is rejected when a quotient denominator is below
    ``solvers.DEN_MIN`` at the point or at any of its translates.
    """
    def deviation(w, y):
        translated = [left_translate(alg, g, (w, y))
                      for g in lattice.generators]
        if not denominators_clear([f], [(w, y)] + translated):
            return None
        base = float(f.value((w, y)))
        return max((abs(float(f.value(tp)) - base) for tp in translated),
                   default=0.0)

    deviations = list(sample_points(alg, nsamples, seed, deviation))
    return max(deviations, default=0.0), len(deviations)


def _multiplier(diff, den):
    """Exact c with diff = c * den, or None; one monomial of diff fixes c."""
    if diff.is_zero:
        return Fraction(0)
    exps = next(iter(diff.numerators))
    dc = den.coefficient(exps)
    c = diff.coefficient(exps) / dc if dc else None
    return c if c is not None and diff == den * c else None


def descent(alg, lattice, fs):
    """Per f in fs, (descends, multipliers), decided exactly at one
    translate (g w, y) of symbolic w and y per generator g.  A quotient
    quot(num / den) descends iff each multiplier, the c with num(g x) -
    num(x) = c * den(x) or None, is an integer; a polynomial has no
    multipliers and descends iff no translate moves it.  A ValueError
    for a nested quotient or for w in den."""
    w, y = _w_vec(alg), _y_vec(alg)
    moved = [(group.bch(alg, [Fraction(c) for c in g], w), y)
             for g in lattice.generators]

    def verdict(f):
        top = f.num if isinstance(f, QuotientInduced) else f
        fp = top.as_polynomial()  # NonPolynomialVariant when nested
        shifts = [top.value(x) - fp for x in moved]
        if top is f:
            return not any(shifts), None
        den = f.den.as_polynomial()
        if den.degree_in(range(alg.dim)) != 0:
            raise ValueError("denominator must be invariant (independent of w)")
        cs = [_multiplier(d, den) for d in shifts]
        return all(c is not None and c.denominator == 1 for c in cs), cs

    return [verdict(f) for f in fs]
