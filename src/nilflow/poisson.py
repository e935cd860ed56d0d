"""Exact Poisson brackets on the left-trivialized phase space.

For f with gradient (U, V) and g with gradient (U', V'),

    {f, g}(p, Y) = <U, V'> - <U', V> - <Y, [V, V']>.

The gradients are each integral's exact ``gradient_polys`` (U, V), two
lists of polynomials derived from its value polynomial, so the bracket is
exact: the same polynomials give the numeric gradients of the
independence scans.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .integrals import (DerivationIntegral, Energy, QuotientInduced,
                        RightInvariant, _y_vec, is_metric_skew)
from .ratpoly import Evaluator, RationalPolynomial, coefficient_rows
from .solvers import skew_derivations


@dataclass
class BracketResult:
    poly: RationalPolynomial
    is_zero: bool
    matched_integral: str = None


@dataclass
class IntegralCheck:
    ok: bool
    bracket: RationalPolynomial
    witness: tuple = None


@dataclass
class CriterionCheck:
    """One involution criterion: bracket test vs. algebraic condition."""

    bracket_is_zero: bool
    condition_holds: bool

    @property
    def agrees(self):
        return self.bracket_is_zero == self.condition_holds


class PoissonEngine:
    """Exact Poisson brackets of integrals bound to one algebra."""

    def __init__(self, alg):
        self.alg = alg

    def gradient_polys(self, f):
        """Exact (U, V) of f, two lists of polynomials, memoized on f."""
        return f.gradient_polys()

    def bracket(self, f, g, candidates=None):
        uf, vf = self.gradient_polys(f)
        ug, vg = self.gradient_polys(g)
        alg = self.alg
        poly = (alg.inner(uf, vg) - alg.inner(ug, vf)
                - alg.inner(_y_vec(alg), alg.bracket(vf, vg)))
        matched = None
        if candidates and not poly.is_zero:
            matched = self._match(poly, candidates)
        return BracketResult(poly=poly, is_zero=poly.is_zero, matched_integral=matched)

    def _match(self, poly, candidates):
        for cand in candidates:
            cp = cand.as_polynomial()
            if poly == cp:
                return cand.spec_string()
            if poly == -cp:
                return "-" + cand.spec_string()
        return None

    def is_first_integral(self, f):
        """{f, E} == 0, with an exact witness point when it is not."""
        if isinstance(f, QuotientInduced):
            num = self.is_first_integral(f.num)
            den = self.is_first_integral(f.den)
            bad = None if (num.ok and den.ok) else (num if not num.ok else den)
            return IntegralCheck(
                ok=num.ok and den.ok,
                bracket=bad.bracket if bad else num.bracket,
                witness=bad.witness if bad else None)
        res = self.bracket(f, Energy(self.alg))
        witness = None if res.is_zero else _nonzero_point(res.poly)
        return IntegralCheck(ok=res.is_zero, bracket=res.poly, witness=witness)

    def involution_table(self, fs):
        return [(i, j, self.bracket(fs[i], fs[j]))
                for i in range(len(fs)) for j in range(i + 1, len(fs))]


def _nonzero_point(poly):
    """A rational point where the (nonzero) polynomial does not vanish."""
    rnd = random.Random(20240817)
    value = Evaluator([poly])
    for _ in range(500):
        values = [Fraction(rnd.randint(-9, 9), rnd.randint(1, 3))
                  for _ in range(poly.nvars)]
        if value(values)[0] != 0:
            return tuple(values)
    return None


# -- homomorphism and injectivity of the momentum assignment ------------

@dataclass
class IsoReport:
    ok: bool
    identity_failures: list
    checked_pairs: int
    injectivity_ok: bool


def verify_iso_homomorphism(alg, engine=None):
    """Check the bracket identities and injectivity of D, X -> functions.

    Identities, over a basis of the metric-skew derivation space and the
    algebra basis:
        {f_{D1*}, f_{D2*}} = f_{([D1,D2])*}
        {f_{D*}, f_{X*}}   = f_{(D X)*}
        {f_{X1*}, f_{X2*}} = f_{([X1,X2])*}
    Injectivity is a rank computation on the linear map sending (D, X) to
    the coefficient vector of the value polynomial of f_{D*} + f_{X*}.
    """
    deriv_basis = skew_derivations(alg)
    if engine is None:
        engine = PoissonEngine(alg)
    n = alg.dim
    basis = linalg.identity(n)
    failures = []
    checked = 0

    d_ints = [DerivationIntegral(alg, d) for d in deriv_basis]
    x_ints = [RightInvariant(alg, x) for x in basis]

    for a in range(len(deriv_basis)):
        for b in range(a + 1, len(deriv_basis)):
            comm = linalg.mat_add(
                linalg.mat_mul(deriv_basis[a], deriv_basis[b]),
                linalg.mat_scale(
                    linalg.mat_mul(deriv_basis[b], deriv_basis[a]), Fraction(-1)))
            lhs = engine.bracket(d_ints[a], d_ints[b]).poly
            rhs = DerivationIntegral(alg, comm).as_polynomial()
            checked += 1
            if lhs != rhs:
                failures.append("{D%d, D%d} != (D-commutator)*" % (a + 1, b + 1))
    for a in range(len(deriv_basis)):
        for k in range(n):
            image = linalg.mat_vec(deriv_basis[a], basis[k])
            lhs = engine.bracket(d_ints[a], x_ints[k]).poly
            rhs = RightInvariant(alg, image).as_polynomial()
            checked += 1
            if lhs != rhs:
                failures.append("{D%d, e%d} != (D e%d)*" % (a + 1, k + 1, k + 1))
    for k in range(n):
        for m in range(k + 1, n):
            lhs = engine.bracket(x_ints[k], x_ints[m]).poly
            rhs = RightInvariant(alg, alg.bracket(basis[k], basis[m])).as_polynomial()
            checked += 1
            if lhs != rhs:
                failures.append("{e%d*, e%d*} != [e%d, e%d]*" % (k + 1, m + 1, k + 1, m + 1))

    # injectivity: coefficient vectors of the generating functions
    matrix = coefficient_rows([f.as_polynomial() for f in d_ints + x_ints])
    inj_ok = linalg.rank(matrix) == len(d_ints) + n

    return IsoReport(ok=not failures and inj_ok, identity_failures=failures,
                     checked_pairs=checked, injectivity_ok=inj_ok)


# -- involution criteria ------------------------------------------------

def criterion_linear_linear(engine, fu, fv):
    """{f_U, f_V} = 0 iff [U, V] = 0."""
    res = engine.bracket(fu, fv)
    cond = linalg.is_zero_vec(engine.alg.bracket(fu.x, fv.x))
    return CriterionCheck(res.is_zero, cond)


def criterion_linear_quadratic(engine, fu, gs):
    """{f_U, g_S} = 0 iff ad(U) S is skew for the metric."""
    res = engine.bracket(fu, gs)
    m = linalg.mat_mul(engine.alg.ad(fu.x), gs.s)
    return CriterionCheck(res.is_zero, is_metric_skew(engine.alg, m))


def criterion_derivation_linear(engine, fd, fu):
    """{f_{D*}, f_U} = 0 iff D U = 0."""
    res = engine.bracket(fd, fu)
    cond = linalg.is_zero_vec(linalg.mat_vec(fd.d, fu.x))
    return CriterionCheck(res.is_zero, cond)


def criterion_derivation_quadratic(engine, fd, gs):
    """{f_{D*}, g_S} = 0 iff D S is skew for the metric."""
    res = engine.bracket(fd, gs)
    m = linalg.mat_mul(fd.d, gs.s)
    return CriterionCheck(res.is_zero, is_metric_skew(engine.alg, m))
