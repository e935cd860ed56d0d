"""Lattice quotients and the descent of functions to them.

A lattice is stored by its generators, tuples of exponential
coordinates.  A phase-space point is a plain (w, y) pair; left
translation acts on the base coordinates w through the group product and
leaves the body momentum y alone.  ``descends`` decides exactly whether
a function is invariant under every generator, through its translate at
symbolic w and y.  The numeric ``invariance_check`` measures the float
deviation instead: it draws its points through ``solvers.sample_points``
and rejects them by ``solvers.denominators_clear``, as the independence
scan does.
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


def _shift(alg, g_coords, f):
    """The polynomial f(g w, y) - f(w, y); a ValueError for a quotient."""
    f_poly = f.as_polynomial()
    w = group.bch(alg, [Fraction(c) for c in g_coords], _w_vec(alg))
    return f.value((w, _y_vec(alg))) - f_poly


def shift_multiplier(alg, g_coords, num, den):
    """Exact c with num(g x) - num(x) = c * den(x), or None if no such c;
    a ValueError when den depends on w."""
    diff = _shift(alg, g_coords, num)
    den_poly = den.as_polynomial()
    if den_poly.degree_in(range(alg.dim)) != 0:
        raise ValueError("denominator must be invariant (independent of w)")
    if diff.is_zero:
        return Fraction(0)
    # diff must be a constant multiple of den_poly, so any one of its
    # monomials fixes the constant
    exps = next(iter(diff.numerators))
    dc = den_poly.coefficient(exps)
    if dc != 0:
        c = diff.coefficient(exps) / dc
        if diff == den_poly * c:
            return c
    return None


def descends(alg, lattice, f):
    """Whether f(g x) = f(x) for every generator g, decided exactly: for
    f = quot(num / den) every shift multiplier is an integer, so that
    sin(2 pi num / den) is unchanged, and a polynomial f has no shift.
    A ValueError for a nested quotient or for w in den."""
    if isinstance(f, QuotientInduced):
        shifts = (shift_multiplier(alg, g, f.num, f.den)
                  for g in lattice.generators)
        return all(c is not None and c.denominator == 1 for c in shifts)
    return not any(_shift(alg, g, f) for g in lattice.generators)
