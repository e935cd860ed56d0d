import itertools
import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fr, free_23, h3
from nilflow import catalog, linalg
from nilflow.algebra import LieAlgebraDescriptor
from nilflow.group import (
    _bch_words,
    ad_series,
    adjoint_inverse,
    bch,
    phi_coeff,
    psi_coeff,
)
from nilflow.integrals import _w_vec


def _filiform(n):
    # [e1, e_k] = e_{k+1} for k = 2..n-1: step n - 1
    structure = {(1, k): {k + 1: Fraction(1)} for k in range(2, n)}
    return LieAlgebraDescriptor(n, structure, name="filiform%d" % n)


def _reference_bch(alg, u, v):
    """The closed form at steps 2 and 3: the oracle for the Dynkin table."""
    step = alg.analyze().step
    assert step <= 3
    uv = alg.bracket(u, v)
    out = [a + b + Fraction(1, 2) * c for a, b, c in zip(u, v, uv)]
    if step >= 3:
        uuv = alg.bracket(u, uv)
        vvu = alg.bracket(v, alg.bracket(v, u))
        out = [x + Fraction(1, 12) * (a + b) for x, a, b in zip(out, uuv, vvu)]
    return out


def test_bch_matches_the_closed_form_on_every_catalog_entry():
    rnd = random.Random(5)
    for name in catalog.names():
        alg = catalog.get(name).descriptor
        n = alg.dim
        for _ in range(5):
            u = [Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))
                 for _ in range(n)]
            v = [Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))
                 for _ in range(n)]
            assert bch(alg, u, v) == _reference_bch(alg, u, v), name
            fu, fv = [float(x) for x in u], [float(x) for x in v]
            got, want = bch(alg, fu, fv), _reference_bch(alg, fu, fv)
            assert all(abs(a - b) <= 1e-12 for a, b in zip(got, want)), name
        # a symbolic right factor, as in the lattice shift multipliers
        w = _w_vec(alg)
        assert bch(alg, u, w) == _reference_bch(alg, u, w), name


def test_bch_words_at_steps_two_and_three():
    assert _bch_words(1) == ()
    assert _bch_words(2) == ((Fraction(1, 2), "XY"),)
    assert _bch_words(3) == ((Fraction(1, 2), "XY"), (Fraction(1, 12), "XXY"),
                             (Fraction(-1, 12), "YXY"))
    for step in range(2, 7):
        words = [w for _, w in _bch_words(step)]
        for k, word in enumerate(words):
            assert word.endswith("XY") and len(word) <= step
            if len(word) > 2:
                assert word[1:] in words[:k], word


def _unpruned_bch_words(step):
    """Every word h + "XY" with its Dynkin coefficient, zeros included:
    the table before words of coefficient 0 that no longer word needs
    were dropped."""
    def power(word, n):
        if n == 0:
            return int(not word)
        return sum(Fraction(power(word[:a], n - 1),
                            math.factorial(word.count("X", a))
                            * math.factorial(word.count("Y", a)))
                   for a in range(len(word)) if "YX" not in word[a:])

    def log(word):
        return sum(Fraction((-1) ** (n - 1), n) * power(word, n)
                   for n in range(1, len(word) + 1))

    heads = ("".join(h) for m in range(step - 1)
             for h in itertools.product("XY", repeat=m))
    return [((log(h + "XY") - log(h + "YX")) / (len(h) + 2), h + "XY")
            for h in heads]


def test_bch_words_drop_unneeded_zero_coefficients():
    assert [len(_bch_words(step)) for step in range(2, 7)] == [1, 3, 5, 13, 29]
    assert [w for c, w in _unpruned_bch_words(4) if not c] == ["XXXY", "YYXY"]
    for step in (4, 5):
        kept = set(_bch_words(step))
        dropped = [w for c, w in _unpruned_bch_words(step)
                   if (c, w) not in kept]
        assert dropped == {4: ["XXXY", "YYXY"],
                           5: ["XXYXY", "YYXXY"]}[step]
    rnd = random.Random(11)
    for alg in (_filiform(5), _filiform(6)):
        step = alg.analyze().step
        for _ in range(5):
            u, v = ([Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))
                     for _ in range(alg.dim)] for _ in range(2))
            value = {"X": u, "Y": v}
            want = [a + b for a, b in zip(u, v)]
            for coeff, word in _unpruned_bch_words(step):
                term = value[word] = alg.bracket(value[word[0]],
                                                 value[word[1:]])
                want = [x + coeff * t for x, t in zip(want, term)]
            assert bch(alg, u, v) == want, step


def test_bch_two_step_closed_form():
    alg = h3()
    u = fr(1, 0, 0)
    v = fr(0, 1, 0)
    # u * v = u + v + [u,v]/2
    assert bch(alg, u, v) == fr(1, 1, Fraction(1, 2))
    assert bch(alg, v, u) == fr(1, 1, Fraction(-1, 2))


def test_bch_three_step_closed_form():
    alg = free_23()
    u = fr(1, 0, 0, 0, 0)
    v = fr(0, 1, 0, 0, 0)
    # u+v+[u,v]/2+([u,[u,v]]-[v,[u,v]])/12
    got = bch(alg, u, v)
    assert got == fr(1, 1, Fraction(1, 2), Fraction(1, 12), Fraction(-1, 12))


def test_bch_associative_exact():
    alg = free_23()
    u = fr(1, -2, 3, 0, 1)
    v = fr(0, 1, -1, 2, 0)
    w = fr(2, 0, 1, -1, 1)
    left = bch(alg, bch(alg, u, v), w)
    right = bch(alg, u, bch(alg, v, w))
    assert left == right


def test_group_inverse():
    alg = free_23()
    u = fr(1, 2, -1, 3, 0)
    inv = [-x for x in u]
    assert bch(alg, u, inv) == [Fraction(0)] * 5
    assert bch(alg, inv, u) == [Fraction(0)] * 5


def test_bch_with_central_element_is_addition():
    alg = h3()
    u = fr(1, 2, 3)
    z = fr(0, 0, 5)
    assert bch(alg, u, z) == fr(1, 2, 8)
    assert bch(alg, z, u) == fr(1, 2, 8)


def test_bch_on_four_step_filiform():
    # dim-5 filiform: [e1,e2]=e3, [e1,e3]=e4, [e1,e4]=e5 is 4-step
    alg = _filiform(5)
    assert alg.analyze().step == 4
    e1, e2 = fr(1, 0, 0, 0, 0), fr(0, 1, 0, 0, 0)
    # X+Y+[X,Y]/2+[X,[X,Y]]/12, as [Y,[X,Y]] and [Y,[X,[X,Y]]] vanish
    assert bch(alg, e1, e2) == fr(1, 1, Fraction(1, 2), Fraction(1, 12), 0)
    # Y = e1+e2: the cubic terms cancel, the quartic -[Y,[X,[X,Y]]]/24 is
    # -e5/24
    assert bch(alg, e1, fr(1, 1, 0, 0, 0)) == fr(
        2, 1, Fraction(1, 2), 0, Fraction(-1, 24))


_RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_GROUP_ALGEBRAS = (free_23(), _filiform(5), _filiform(6))


@st.composite
def _points(draw, count):
    alg = draw(st.sampled_from(_GROUP_ALGEBRAS))
    vec = st.lists(_RATIONAL, min_size=alg.dim, max_size=alg.dim)
    return (alg,) + tuple(draw(vec) for _ in range(count))


@settings(max_examples=40, deadline=None)
@given(_points(3))
def test_bch_is_associative(case):
    alg, u, v, w = case
    assert bch(alg, bch(alg, u, v), w) == bch(alg, u, bch(alg, v, w))


@settings(max_examples=40, deadline=None)
@given(_points(1))
def test_bch_with_the_negative_is_zero(case):
    alg, u = case
    assert not any(bch(alg, u, [-x for x in u]))
    assert not any(bch(alg, [-x for x in u], u))


# steps 4 and 5 reach the Psi coefficients 0 and -1/720 of ad(w)^3, ad(w)^4
_HIGH_STEP_CASES = (
    (_filiform(5), fr(1, -1, 2, 0, 3), fr(0, 3, 1, 0, -1)),
    (_filiform(6), fr(2, -1, 1, 3, 0, -2), fr(0, 3, 1, 0, -1, 4)),
)


def _dexp(alg, w, u):
    return ad_series(alg, w, phi_coeff, u)


def _dexp_inverse(alg, w, u):
    return ad_series(alg, w, psi_coeff, u)


def test_dexp_round_trips_on_basis_vectors():
    # Phi(ad w) Psi(ad w) = Psi(ad w) Phi(ad w) = I, column by column
    cases = ((free_23(), fr(1, -1, 2, 0, 3), None),) + _HIGH_STEP_CASES
    for alg, w, _ in cases:
        for e in linalg.identity(alg.dim):
            assert _dexp_inverse(alg, w, _dexp(alg, w, e)) == e
            assert _dexp(alg, w, _dexp_inverse(alg, w, e)) == e


def test_dexp_apply_matches_matrix():
    cases = ((free_23(), fr(1, 0, -2, 1, 0), fr(0, 3, 1, 0, -1)),) \
        + _HIGH_STEP_CASES
    for alg, w, u in cases:
        # Phi(ad w) = sum_k phi_k (ad w)^k from powers of the ad matrix
        n = alg.dim
        ad = alg.ad(w)
        m = [[Fraction(0)] * n for _ in range(n)]
        power = linalg.identity(n)
        for k in range(n):
            m = [[a + phi_coeff(k) * p for a, p in zip(mr, pr)]
                 for mr, pr in zip(m, power)]
            power = linalg.mat_mul(ad, power)
        assert _dexp(alg, w, u) == linalg.mat_vec(m, u), alg.name
        assert _dexp_inverse(alg, w, _dexp(alg, w, u)) == u, alg.name


def test_dexp_at_zero_is_identity():
    alg = h3()
    u = fr(4, -5, 6)
    assert _dexp(alg, fr(0, 0, 0), u) == u


def test_adjoint_inverse_undoes_adjoint():
    alg = free_23()
    w = fr(1, 2, 0, -1, 1)
    u = fr(0, 1, 1, 0, 2)
    # Ad(exp w) u = u + [w,u] + [w,[w,u]]/2 in a 3-step algebra
    wu = alg.bracket(w, u)
    wwu = alg.bracket(w, wu)
    ad_u = [u[i] + wu[i] + Fraction(1, 2) * wwu[i] for i in range(5)]
    back = adjoint_inverse(alg, w)
    res = [sum(back[i][j] * ad_u[j] for j in range(5)) for i in range(5)]
    assert res == u
