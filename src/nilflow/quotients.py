"""Lattice quotients and invariance of quotient-induced functions.

A lattice is stored by its generators in exponential coordinates.  Left
translation acts on the base coordinates through the group product and
leaves the body momentum alone.  For the bundled examples the numerator
of a quotient-induced function shifts by an exact integer multiple of
the denominator under every generator, which is what makes the composed
function descend; ``shift_multiplier`` verifies that structurally.
"""

import numpy as np

from fractions import Fraction

from . import group
from .integrals import QuotientInduced, _w_vec, _y_vec
from .solvers import sample_count


class Lattice:
    """A finitely generated subgroup given by generators."""

    def __init__(self, name, generators):
        self.name = name
        self.generators = []
        for g in generators:
            if isinstance(g, group.GroupElement):
                if g.chart != group.CHART_EXPONENTIAL:
                    raise ValueError("store lattice generators in the "
                                     "exponential chart")
                self.generators.append(tuple(g.coords))
            else:
                self.generators.append(tuple(g))

    def __repr__(self):
        return "<Lattice %s, %d generators>" % (self.name, len(self.generators))


def left_translate(alg, g_coords, point):
    """(w, y) -> (g * w, y) in exponential coordinates."""
    if isinstance(point, group.TangentPoint):
        w, y = list(point.w), list(point.y)
    else:
        w, y = list(point[0]), list(point[1])
    return group.TangentPoint(group.bch(alg, list(g_coords), w), y)


def invariance_check(alg, lattice, f, nsamples=None, seed=0, den_min=0.1):
    """Max |f(g x) - f(x)| over samples and generators.

    Samples are uniform in [-2, 2]^{2n}; a sample is skipped when a
    quotient denominator is below ``den_min`` at the sample or at any
    translated point.
    """
    n = alg.dim
    nsamples = sample_count(nsamples)
    rng = np.random.default_rng(seed)
    worst = 0.0
    accepted = 0
    attempts = 0
    while accepted < nsamples and attempts < 1000 * nsamples:
        attempts += 1
        pt = rng.uniform(-2.0, 2.0, 2 * n)
        w, y = list(pt[:n]), list(pt[n:])
        translated = [left_translate(alg, g, (w, y)) for g in lattice.generators]
        if isinstance(f, QuotientInduced):
            dens = [abs(float(f.den.value((w, y))))]
            dens += [abs(float(f.den.value(tp))) for tp in translated]
            if min(dens) < den_min:
                continue
        accepted += 1
        base = float(f.value((w, y)))
        for tp in translated:
            worst = max(worst, abs(float(f.value(tp)) - base))
    return worst, accepted


def shift_multiplier(alg, g_coords, num, den):
    """Exact c with num(g x) - num(x) = c * den(x), or None if no such c.

    The composed function descends to the quotient by the subgroup
    generated by g exactly when such a constant exists and is an integer
    (the denominator itself must be translation invariant, which holds
    automatically when it only depends on y).
    """
    num_poly = num.as_polynomial()
    den_poly = den.as_polynomial()
    if den_poly.degree_in(range(alg.dim)) != 0:
        raise ValueError("denominator must be invariant (independent of w)")
    shift = group.bch(alg, [Fraction(c) for c in g_coords], _w_vec(alg))
    diff = num.value((shift, _y_vec(alg))) - num_poly
    if diff.is_zero:
        return Fraction(0)
    # diff must be a constant multiple of den_poly, so any one of its
    # monomials fixes the constant
    exps, coeff = next(iter(diff.terms.items()))
    dc = den_poly.coefficient(exps)
    if dc != 0 and diff == den_poly * (coeff / dc):
        return coeff / dc
    return None
