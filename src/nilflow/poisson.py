"""Exact Poisson brackets on the left-trivialized phase space.

For f with gradient (U, V) and g with gradient (U', V'),

    {f, g}(p, Y) = <U, V'> - <U', V> - <Y, [V, V']>.

The gradients are each integral's exact ``gradient_polys`` (U, V), two
lists of polynomials, so the bracket is exact: the same polynomials give
the numeric gradients of the independence scans.
"""

from dataclasses import dataclass
from itertools import combinations

from . import linalg
from .integrals import (DerivationIntegral, Energy, RightInvariant, _y_vec,
                        is_metric_skew)
from .ratpoly import RationalPolynomial, coefficient_rows
from .solvers import skew_derivations


@dataclass
class BracketResult:
    poly: RationalPolynomial
    is_zero: bool


@dataclass
class IntegralCheck:
    ok: bool
    bracket: RationalPolynomial


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
        """Exact (U, V) of f, two lists of polynomials of the caller's own;
        integrals of one identity (E, a right momentum's direction, a
        derivation's matrix) share the expansion, per descriptor."""
        return f.gradient_polys()

    def bracket(self, f, g):
        if not (f.alg is self.alg is g.alg):
            raise ValueError("an integral is bound to another algebra")
        uf, vf = self.gradient_polys(f)
        ug, vg = self.gradient_polys(g)
        alg = self.alg
        poly = (alg.inner(uf, vg) - alg.inner(ug, vf)
                - alg.inner(_y_vec(alg), alg.bracket(vf, vg)))
        return BracketResult(poly=poly, is_zero=poly.is_zero)

    def is_first_integral(self, f):
        """{f, E} == 0; a nonzero bracket is the exact certificate."""
        res = self.bracket(f, Energy(self.alg))
        return IntegralCheck(ok=res.is_zero, bracket=res.poly)

    def involution_table(self, fs):
        return [(i, j, self.bracket(fs[i], fs[j]))
                for i in range(len(fs)) for j in range(i + 1, len(fs))]


# -- homomorphism and injectivity of the momentum assignment ------------

@dataclass
class IsoReport:
    ok: bool
    identity_failures: list
    checked_pairs: int
    injectivity_ok: bool


def verify_iso_homomorphism(alg, engine=None):
    """Check the bracket identities and injectivity of D, X -> functions.

    The generators are a basis D1..Dr of the metric-skew derivations, as
    f_{D*}, then the algebra basis e1..en, as f_{X*}.  On each pair the
    Poisson bracket must be the image of their bracket in der ⋉ g:
        {f_{D1*}, f_{D2*}} = f_{([D1,D2])*}
        {f_{D*}, f_{X*}}   = f_{(D X)*}
        {f_{X1*}, f_{X2*}} = f_{([X1,X2])*}
    Injectivity is a rank computation on the linear map sending (D, X) to
    the coefficient vector of the value polynomial of f_{D*} + f_{X*}.
    The solved basis and its commutators are derivations: no re-validation.
    """
    if engine is None:
        engine = PoissonEngine(alg)
    gens = ([DerivationIntegral(alg, d, check=False, label="D%d" % (a + 1))
             for a, d in enumerate(skew_derivations(alg))]
            + [RightInvariant(alg, x, label="e%d*" % (k + 1))
               for k, x in enumerate(linalg.identity(alg.dim))])
    pairs = list(combinations(gens, 2))
    failures = []
    for f, g in pairs:
        if engine.bracket(f, g).poly != _image(alg, f, g).as_polynomial():
            failures.append("{%s, %s}" % (f.spec_string(), g.spec_string()))

    # injectivity: coefficient vectors of the generating functions
    matrix = coefficient_rows([f.as_polynomial() for f in gens])
    inj_ok = linalg.rank(matrix) == len(gens)

    return IsoReport(ok=not failures and inj_ok, identity_failures=failures,
                     checked_pairs=len(pairs), injectivity_ok=inj_ok)


def _image(alg, f, g):
    """The generator whose function the bracket {f, g} of two generators
    must be: derivations come before elements, so g is a derivation only
    when f is one too."""
    if isinstance(g, DerivationIntegral):
        return DerivationIntegral(alg, check=False, d=[
            linalg.vec_sub(r, s) for r, s in
            zip(linalg.mat_mul(f.d, g.d), linalg.mat_mul(g.d, f.d))])
    if isinstance(f, DerivationIntegral):
        return RightInvariant(alg, linalg.mat_vec(f.d, g.x))
    return RightInvariant(alg, alg.bracket(f.x, g.x))


# -- involution criteria ------------------------------------------------

def criterion_linear_linear(engine, fu, fv):
    """{f_U, f_V} = 0 iff [U, V] = 0."""
    res = engine.bracket(fu, fv)
    cond = linalg.is_zero_vec(engine.alg.bracket(fu.x, fv.x))
    return CriterionCheck(res.is_zero, cond)


def criterion_linear_quadratic(engine, fu, gs):
    """{f_U, g_S} = 0 iff ad(U) S is skew for the metric; column j of
    ad(U) S is the bracket [U, S e_j]."""
    res = engine.bracket(fu, gs)
    m = linalg.transpose([engine.alg.bracket(fu.x, col)
                          for col in linalg.transpose(gs.s)])
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
