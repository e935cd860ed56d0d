from fractions import Fraction

import pytest

from nilflow.algebra import LieAlgebraDescriptor
from nilflow.group import (
    StepUnsupported,
    adjoint_inverse,
    bch,
    dexp_apply,
    dexp_inverse_apply,
    dexp_inverse_matrix,
    dexp_matrix,
    group_inverse,
)


def _h3():
    return LieAlgebraDescriptor(3, {(1, 2): {3: Fraction(1)}}, name="h3")


def _free_23():
    structure = {
        (1, 2): {3: Fraction(1)},
        (1, 3): {4: Fraction(1)},
        (2, 3): {5: Fraction(1)},
    }
    return LieAlgebraDescriptor(5, structure, name="free23")


def _filiform(n):
    # [e1, e_k] = e_{k+1} for k = 2..n-1: step n - 1
    structure = {(1, k): {k + 1: Fraction(1)} for k in range(2, n)}
    return LieAlgebraDescriptor(n, structure, name="filiform%d" % n)


def _fr(*vals):
    return [Fraction(v) for v in vals]


def test_bch_two_step_closed_form():
    alg = _h3()
    u = _fr(1, 0, 0)
    v = _fr(0, 1, 0)
    # u * v = u + v + [u,v]/2
    assert bch(alg, u, v) == _fr(1, 1, Fraction(1, 2))
    assert bch(alg, v, u) == _fr(1, 1, Fraction(-1, 2))


def test_bch_three_step_closed_form():
    alg = _free_23()
    u = _fr(1, 0, 0, 0, 0)
    v = _fr(0, 1, 0, 0, 0)
    # u+v+[u,v]/2+([u,[u,v]]-[v,[u,v]])/12
    got = bch(alg, u, v)
    assert got == _fr(1, 1, Fraction(1, 2), Fraction(1, 12), Fraction(-1, 12))


def test_bch_associative_exact():
    alg = _free_23()
    u = _fr(1, -2, 3, 0, 1)
    v = _fr(0, 1, -1, 2, 0)
    w = _fr(2, 0, 1, -1, 1)
    left = bch(alg, bch(alg, u, v), w)
    right = bch(alg, u, bch(alg, v, w))
    assert left == right


def test_group_inverse():
    alg = _free_23()
    u = _fr(1, 2, -1, 3, 0)
    inv = group_inverse(u)
    assert inv == [-x for x in u]
    assert bch(alg, u, inv) == [Fraction(0)] * 5
    assert bch(alg, inv, u) == [Fraction(0)] * 5


def test_bch_with_central_element_is_addition():
    alg = _h3()
    u = _fr(1, 2, 3)
    z = _fr(0, 0, 5)
    assert bch(alg, u, z) == _fr(1, 2, 8)
    assert bch(alg, z, u) == _fr(1, 2, 8)


def test_step_unsupported_on_four_step():
    # dim-5 filiform: [e1,e2]=e3, [e1,e3]=e4, [e1,e4]=e5 is 4-step
    alg = _filiform(5)
    assert alg.analyze().step == 4
    with pytest.raises(StepUnsupported):
        bch(alg, _fr(1, 0, 0, 0, 0), _fr(0, 1, 0, 0, 0))


# steps 4 and 5 reach the Psi coefficients 0 and -1/720 of ad(w)^3, ad(w)^4
_HIGH_STEP_CASES = (
    (_filiform(5), _fr(1, -1, 2, 0, 3), _fr(0, 3, 1, 0, -1)),
    (_filiform(6), _fr(2, -1, 1, 3, 0, -2), _fr(0, 3, 1, 0, -1, 4)),
)


def test_dexp_matrix_inverse_pair():
    cases = ((_free_23(), _fr(1, -1, 2, 0, 3), None),) + _HIGH_STEP_CASES
    for alg, w, _ in cases:
        m = dexp_matrix(alg, w)
        mi = dexp_inverse_matrix(alg, w)
        n = alg.dim
        prod = [[sum(m[i][k] * mi[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert prod == ident, alg.name


def test_dexp_apply_matches_matrix():
    cases = ((_free_23(), _fr(1, 0, -2, 1, 0), _fr(0, 3, 1, 0, -1)),) \
        + _HIGH_STEP_CASES
    for alg, w, u in cases:
        n = alg.dim
        m = dexp_matrix(alg, w)
        mu = [sum(m[i][j] * u[j] for j in range(n)) for i in range(n)]
        assert dexp_apply(alg, w, u) == mu, alg.name
        assert dexp_inverse_apply(alg, w, dexp_apply(alg, w, u)) == u, alg.name


def test_dexp_at_zero_is_identity():
    alg = _h3()
    u = _fr(4, -5, 6)
    assert dexp_apply(alg, _fr(0, 0, 0), u) == u


def test_adjoint_inverse_undoes_adjoint():
    alg = _free_23()
    w = _fr(1, 2, 0, -1, 1)
    u = _fr(0, 1, 1, 0, 2)
    # Ad(exp w) u = u + [w,u] + [w,[w,u]]/2 in a 3-step algebra
    wu = alg.bracket(w, u)
    wwu = alg.bracket(w, wu)
    ad_u = [u[i] + wu[i] + Fraction(1, 2) * wwu[i] for i in range(5)]
    back = adjoint_inverse(alg, w)
    res = [sum(back[i][j] * ad_u[j] for j in range(5)) for i in range(5)]
    assert res == u
