"""Group-level geometry in exponential coordinates.

Points of the simply connected group are identified with their
logarithms, so a group point is a plain list of exponential coordinates
(and a phase-space point a plain (w, y) pair of such lists), and the
product is the Baker-Campbell-Hausdorff series, which closes at the
terms implemented here for step at most 3.  The
differential of exp, Ad(exp(-w)) and the inverse of the differential are
finite power series in the nilpotent operator ad w, all evaluated by
``ad_series``: Phi(ad w) = sum_k (-ad w)^k / (k+1)!, exp(-ad w) and
Psi(ad w) = Phi(ad w)^{-1}, whose coefficients invert Phi's as scalars.
"""

import math
from fractions import Fraction

from . import linalg


class StepUnsupported(ValueError):
    """The closed product formula only covers step <= 3."""


def _require_low_step(alg):
    step = alg.analyze().step
    if step > 3:
        raise StepUnsupported("product formula implemented for step <= 3, "
                              "algebra has step %d" % step)


def bch(alg, u, v):
    """log(exp u * exp v) for step <= 3."""
    _require_low_step(alg)
    uv = alg.bracket(u, v)
    out = [a + b + Fraction(1, 2) * c for a, b, c in zip(u, v, uv)]
    if alg.analyze().step >= 3:
        uuv = alg.bracket(u, uv)
        vvu = alg.bracket(v, alg.bracket(v, u))
        out = [x + Fraction(1, 12) * (a + b) for x, a, b in zip(out, uuv, vvu)]
    return out


def group_inverse(u):
    return [-x for x in u]


def exp_neg_coeff(k):
    """Coefficients of e^{-z} = sum_k (-1)^k z^k / k!."""
    return Fraction((-1) ** k, math.factorial(k))


def phi_coeff(k):
    """Coefficients of Phi(z) = (1 - e^{-z}) / z = sum_k (-1)^k z^k / (k+1)!."""
    return Fraction((-1) ** k, math.factorial(k + 1))


def psi_coeff(k):
    """Coefficients of Psi = 1 / Phi: b_0 = 1, b_k = -sum_{j=1..k} phi_j b_{k-j}.

    They are 1, 1/2, 1/12, 0, -1/720, ...; Psi(ad w) is the exact inverse
    of Phi(ad w) because both are power series in the one matrix ad w.
    """
    b = [Fraction(1)]
    for m in range(1, k + 1):
        b.append(-sum(phi_coeff(j) * b[m - j] for j in range(1, m + 1)))
    return b[k]


def ad_series(alg, w, coeff, x):
    """sum_k coeff(k) ad(w)^k x, stopping when the power ad(w)^k x vanishes.

    Entries may be Fractions, floats or polynomials, or a mix; ad(w) is
    nilpotent, so no power beyond the dimension is nonzero.
    """
    c0 = coeff(0)
    out = [c0 * t for t in x]
    term = x
    for k in range(1, alg.dim + 1):
        term = alg.bracket(w, term)
        if not any(term):
            break
        c = coeff(k)
        if c:
            out = [a + c * t for a, t in zip(out, term)]
    return out


def _series_matrix(alg, w, coeff):
    """The matrix of sum_k coeff(k) ad(w)^k, built column by column."""
    return linalg.transpose([ad_series(alg, w, coeff, e)
                             for e in linalg.identity(alg.dim)])


def adjoint_inverse(alg, w):
    """Matrix of Ad(exp(-w)) = exp(-ad w), a finite sum by nilpotency."""
    return _series_matrix(alg, w, exp_neg_coeff)


def dexp_matrix(alg, w):
    """Phi(ad w): the differential of exp at w in left trivialization."""
    return _series_matrix(alg, w, phi_coeff)


def dexp_inverse_matrix(alg, w):
    """Psi(ad w), the inverse of Phi(ad w)."""
    return _series_matrix(alg, w, psi_coeff)


def dexp_apply(alg, w, u):
    return ad_series(alg, w, phi_coeff, u)


def dexp_inverse_apply(alg, w, u):
    return ad_series(alg, w, psi_coeff, u)
