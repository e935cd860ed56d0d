import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import free_23, h3, tridiagonal, unit
from nilflow import catalog, integrals, linalg
from nilflow.algebra import LieAlgebraDescriptor
from nilflow.integrals import (
    DerivationIntegral,
    Energy,
    FirstIntegral,
    Linear,
    NonPolynomialVariant,
    Quadratic,
    RightInvariant,
    is_metric_skew,
)
from nilflow.poisson import (
    BracketResult,
    PoissonEngine,
    criterion_derivation_linear,
    criterion_derivation_quadratic,
    criterion_linear_linear,
    criterion_linear_quadratic,
    verify_iso_homomorphism,
)
from nilflow.ratpoly import RationalPolynomial
from nilflow.solvers import skew_derivations
from polytext import parse


class _Poly(FirstIntegral):
    """Wrap a raw phase-space polynomial so the engine can bracket it."""

    def __init__(self, alg, poly):
        super().__init__(alg, label=poly.render())
        self._wrapped = poly

    def _expand(self):
        return self._wrapped


def test_central_pair_gives_center_momentum():
    alg = h3()
    eng = PoissonEngine(alg)
    r1 = RightInvariant(alg, unit(3, 1))
    r2 = RightInvariant(alg, unit(3, 2))
    res = eng.bracket(r1, r2)
    assert res.poly == parse("(1) y3", 6)
    assert not res.is_zero
    assert catalog.get("h3").match(res.poly) == "right:Z"


def test_central_linear_commutes_with_everything():
    alg = h3()
    eng = PoissonEngine(alg)
    z = Linear(alg, unit(3, 3))
    others = [Energy(alg), RightInvariant(alg, unit(3, 1)),
              Quadratic(alg, [[Fraction(1), Fraction(0), Fraction(0)],
                              [Fraction(0), Fraction(1), Fraction(0)],
                              [Fraction(0), Fraction(0), Fraction(0)]])]
    for f in others:
        assert eng.bracket(z, f).is_zero


def test_derivation_linear_bracket_value():
    alg = h3()
    eng = PoissonEngine(alg)
    # D rotates e2 -> e1, e1 -> -e2 and kills the center
    d = [[Fraction(0), Fraction(1), Fraction(0)],
         [Fraction(-1), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(0)]]
    fd = DerivationIntegral(alg, d)
    u = [Fraction(0), Fraction(2), Fraction(-3)]
    fu = Linear(alg, u)
    # {f_D, f_U} = <Y, D U> = <Y, 2 e1>
    res = eng.bracket(fd, fu)
    assert res.poly == parse("(2) y1", 6)


def test_antisymmetry():
    alg = free_23()
    eng = PoissonEngine(alg)
    fs = [Energy(alg), RightInvariant(alg, unit(5, 1)),
          Linear(alg, unit(5, 2)), RightInvariant(alg, unit(5, 3))]
    for i in range(len(fs)):
        for j in range(i, len(fs)):
            ab = eng.bracket(fs[i], fs[j]).poly
            ba = eng.bracket(fs[j], fs[i]).poly
            assert (ab + ba).is_zero


def test_jacobi_identity_spot_check():
    alg = free_23()
    eng = PoissonEngine(alg)
    nv = 10
    a = _Poly(alg, parse("(1) w1 y3 + (2) y5", nv))
    b = _Poly(alg, parse("(1) y1 y2 + (-1) w3", nv))
    c = _Poly(alg, parse("(1) w2^2 y5 + (1) y4", nv))
    total = RationalPolynomial.constant(nv, 0)
    for f, g, h in ((a, b, c), (b, c, a), (c, a, b)):
        inner = _Poly(alg, eng.bracket(g, h).poly)
        total = total + eng.bracket(f, inner).poly
    assert total.is_zero


def test_is_first_integral():
    alg = h3()
    eng = PoissonEngine(alg)
    assert eng.is_first_integral(Energy(alg)).ok
    assert eng.is_first_integral(RightInvariant(alg, unit(3, 1))).ok
    assert eng.is_first_integral(Linear(alg, unit(3, 3))).ok
    bad = eng.is_first_integral(Linear(alg, unit(3, 1)))
    assert not bad.ok
    # the nonzero bracket {f, E} is the exact certificate
    assert bad.bracket == parse("(-1) y2 y3", 6)


def test_involution_table():
    alg = h3()
    eng = PoissonEngine(alg)
    fine = [Linear(alg, unit(3, 3)), Energy(alg),
            RightInvariant(alg, unit(3, 1))]
    table = eng.involution_table(fine)
    assert len(table) == 3
    assert all(res.is_zero for _, _, res in table)
    broken = fine + [Linear(alg, unit(3, 1))]
    table = eng.involution_table(broken)
    bad_pairs = [(i, j) for i, j, res in table if not res.is_zero]
    assert bad_pairs  # the non-central linear breaks involution with E


def test_criterion_linear_linear():
    alg = h3()
    eng = PoissonEngine(alg)
    commuting = criterion_linear_linear(eng, Linear(alg, unit(3, 1)),
                                        Linear(alg, unit(3, 3)))
    assert commuting.bracket_is_zero and commuting.condition_holds
    clashing = criterion_linear_linear(eng, Linear(alg, unit(3, 1)),
                                       Linear(alg, unit(3, 2)))
    assert not clashing.bracket_is_zero and not clashing.condition_holds
    assert commuting.agrees and clashing.agrees


def test_criterion_linear_quadratic():
    alg = h3()
    eng = PoissonEngine(alg)
    s = [[Fraction(1), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(1), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(0)]]
    gs = Quadratic(alg, s)
    central = criterion_linear_quadratic(eng, Linear(alg, unit(3, 3)), gs)
    assert central.bracket_is_zero and central.condition_holds
    off = criterion_linear_quadratic(eng, Linear(alg, unit(3, 1)), gs)
    assert off.agrees  # equivalence holds in both directions



_SMALL = [catalog.get(name).descriptor
          for name in ("h3", "h5", "n2", "n3", "n23free", "n6_24(1/2)")]


def _symmetric_units(n):
    """A basis of the symmetric n x n matrices."""
    return [[[Fraction(int({r, c} == {p, q})) for c in range(n)]
             for r in range(n)] for p in range(n) for q in range(p, n)]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_criterion_linear_quadratic_matches_the_ad_matrix_product(data):
    base = data.draw(st.sampled_from(_SMALL))
    n = base.dim
    metric = data.draw(st.sampled_from([None, tridiagonal(n)]))
    alg = LieAlgebraDescriptor(n, base.structure, metric=metric)
    entry = st.sampled_from([Fraction(1), Fraction(0), Fraction(-1, 2),
                             Fraction(2)])
    u = data.draw(st.lists(entry, min_size=n, max_size=n))
    # S = G^-1 B with B symmetric, so that G S is; B is drawn either
    # freely or among those that make the reference product ad(U) S
    # skew for the metric
    units = [linalg.mat_mul(alg.gram_inverse(), b)
             for b in _symmetric_units(n)]
    images = [linalg.mat_mul(alg.gram(), linalg.mat_mul(alg.ad(u), unit))
              for unit in units]
    kernel = linalg.nullspace(linalg.transpose(
        [[x + y for row, col in zip(m, linalg.transpose(m))
          for x, y in zip(row, col)] for m in images]), ncols=len(units))
    free = linalg.identity(len(units))
    basis = data.draw(st.sampled_from([kernel or free, free]))
    weights = data.draw(st.lists(entry, min_size=len(basis),
                                 max_size=len(basis)))
    s = linalg.zeros(n, n)
    for w, vec in zip(weights, basis):
        for c, unit in zip(vec, units):
            s = linalg.mat_add(s, linalg.mat_scale(unit, w * c))
    check = criterion_linear_quadratic(PoissonEngine(alg), Linear(alg, u),
                                       Quadratic(alg, s))
    skew = is_metric_skew(alg, linalg.mat_mul(alg.ad(u), s))
    assert check.condition_holds == skew
    assert check.agrees


def test_criterion_derivation_linear():
    alg = h3()
    eng = PoissonEngine(alg)
    d = [[Fraction(0), Fraction(1), Fraction(0)],
         [Fraction(-1), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(0)]]
    fd = DerivationIntegral(alg, d)
    in_kernel = criterion_derivation_linear(eng, fd, Linear(alg, unit(3, 3)))
    assert in_kernel.bracket_is_zero and in_kernel.condition_holds
    moved = criterion_derivation_linear(eng, fd, Linear(alg, unit(3, 2)))
    assert not moved.bracket_is_zero and not moved.condition_holds


def test_criterion_derivation_quadratic():
    alg = h3()
    eng = PoissonEngine(alg)
    d = [[Fraction(0), Fraction(1), Fraction(0)],
         [Fraction(-1), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(0)]]
    fd = DerivationIntegral(alg, d)
    s_good = [[Fraction(1), Fraction(0), Fraction(0)],
              [Fraction(0), Fraction(1), Fraction(0)],
              [Fraction(0), Fraction(0), Fraction(0)]]
    ok = criterion_derivation_quadratic(eng, fd, Quadratic(alg, s_good))
    assert ok.bracket_is_zero and ok.condition_holds
    s_bad = [[Fraction(1), Fraction(0), Fraction(0)],
             [Fraction(0), Fraction(0), Fraction(0)],
             [Fraction(0), Fraction(0), Fraction(0)]]
    broken = criterion_derivation_quadratic(eng, fd, Quadratic(alg, s_bad))
    assert not broken.bracket_is_zero and not broken.condition_holds


def test_criteria_agree_on_random_instances():
    alg = free_23()
    eng = PoissonEngine(alg)
    rng = random.Random(7)
    for _ in range(25):
        u = [Fraction(rng.randint(-3, 3)) for _ in range(5)]
        v = [Fraction(rng.randint(-3, 3)) for _ in range(5)]
        assert criterion_linear_linear(eng, Linear(alg, u), Linear(alg, v)).agrees


def test_iso_homomorphism_report():
    alg = h3()
    rep = verify_iso_homomorphism(alg)
    assert rep.ok
    assert rep.injectivity_ok
    assert rep.checked_pairs > 0
    assert not rep.identity_failures


def test_iso_check_does_not_revalidate_solved_derivations(monkeypatch):
    # the solved basis and its commutators are derivations by construction
    calls = []
    monkeypatch.setattr(integrals, "validate_derivation",
                        lambda *args: calls.append(args))
    for name in ("h5", "n6_26"):
        rep = verify_iso_homomorphism(catalog.get(name).descriptor)
        assert (rep.ok, rep.checked_pairs, rep.identity_failures) == \
            (True, 36, [])
    assert calls == []


def test_fresh_objects_get_fresh_gradients():
    # equal-content integrals built in a loop must all bracket identically
    alg = h3()
    eng = PoissonEngine(alg)
    seen = set()
    for _ in range(30):
        d = [[Fraction(0), Fraction(1), Fraction(0)],
             [Fraction(-1), Fraction(0), Fraction(0)],
             [Fraction(0), Fraction(0), Fraction(0)]]
        fd = DerivationIntegral(alg, d)
        fu = Linear(alg, [Fraction(0), Fraction(2), Fraction(-3)])
        seen.add(eng.bracket(fd, fu).poly.render())
    assert seen == {"(2) y1"}


def test_gradient_cache_lets_integrals_go():
    # criteria build fresh integrals per instance; the cache must not pin them
    alg = h3()
    eng = PoissonEngine(alg)
    f = RightInvariant(alg, unit(3, 1))
    eng.bracket(f, Energy(alg))
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


def test_metric_changes_bracket_values():
    g = [[Fraction(1), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(2), Fraction(1)],
         [Fraction(0), Fraction(1), Fraction(3)]]
    alg = h3(metric=g)
    eng = PoissonEngine(alg)
    res = eng.bracket(RightInvariant(alg, unit(3, 1)),
                      RightInvariant(alg, unit(3, 2)))
    # {X1*, X2*} = f_{[X1,X2]} = <e3, Y>_G = y2 + 3 y3
    assert res.poly == parse("(1) y2 + (3) y3", 6)


def test_engine_refuses_integrals_of_another_algebra():
    own, other = catalog.get("n6_19(1)"), catalog.get("n6_19(0)")
    f, g = own.parse("right:e3"), own.parse("right:e5")
    assert own.engine().bracket(f, g).poly == parse("(1) y6", 12)
    with pytest.raises(ValueError, match="bound to another algebra"):
        other.engine().bracket(f, g)
    with pytest.raises(ValueError, match="bound to another algebra"):
        other.engine().bracket(other.parse("right:e3"), g)


def test_quotient_induced_integral_is_not_polynomial():
    entry = catalog.get("h3")
    f = entry.parse("quot(right:X1 / lin:Z)")
    with pytest.raises(NonPolynomialVariant):
        entry.engine().is_first_integral(f)


class _NegatingEngine(PoissonEngine):
    def bracket(self, f, g):
        res = super().bracket(f, g)
        return BracketResult(poly=-res.poly, is_zero=res.is_zero)


def test_iso_homomorphism_names_the_failing_pairs():
    # a negated bracket breaks exactly the identities with a nonzero side
    for alg in (h3(), free_23()):
        rep = verify_iso_homomorphism(alg, engine=_NegatingEngine(alg))
        good = verify_iso_homomorphism(alg)
        assert good.ok and not rep.ok
        assert rep.injectivity_ok
        assert rep.checked_pairs == good.checked_pairs
        eng = PoissonEngine(alg)
        gens = ([DerivationIntegral(alg, d) for d in skew_derivations(alg)]
                + [RightInvariant(alg, unit(alg.dim, k + 1))
                   for k in range(alg.dim)])
        names = (["D%d" % (a + 1) for a in range(len(gens) - alg.dim)]
                 + ["e%d*" % (k + 1) for k in range(alg.dim)])
        nonzero = ["{%s, %s}" % (names[i], names[j])
                   for i in range(len(gens)) for j in range(i + 1, len(gens))
                   if not eng.bracket(gens[i], gens[j]).is_zero]
        assert rep.checked_pairs == len(gens) * (len(gens) - 1) // 2
        assert rep.identity_failures == nonzero
    alg = h3()
    rep = verify_iso_homomorphism(alg, engine=_NegatingEngine(alg))
    assert rep.identity_failures == ["{D1, e1*}", "{D1, e2*}", "{e1*, e2*}"]
