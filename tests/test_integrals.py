import math
from fractions import Fraction

import pytest

from helpers import free_23, h3
from nilflow import catalog
from nilflow.integrals import (
    MAX_SPEC_DEPTH,
    Butler,
    DerivationIntegral,
    Energy,
    Linear,
    NonPolynomialVariant,
    NotADerivation,
    Quadratic,
    QuotientInduced,
    RightInvariant,
    parse_integral,
    validate_derivation,
)
from polytext import parse

FD_STEP = 1e-6
FD_TOL = 1e-7


def _fd_partials(f, w, y):
    """Central finite differences of f.value in every w and y slot."""
    n = len(w)
    gw, gy = [], []
    for i in range(n):
        wp = list(w); wp[i] += FD_STEP
        wm = list(w); wm[i] -= FD_STEP
        gw.append((float(f.value((wp, y))) - float(f.value((wm, y)))) / (2 * FD_STEP))
    for i in range(n):
        yp = list(y); yp[i] += FD_STEP
        ym = list(y); ym[i] -= FD_STEP
        gy.append((float(f.value((w, yp))) - float(f.value((w, ym)))) / (2 * FD_STEP))
    return gw, gy


def _transport(alg, w, fw, fy):
    """Expected (U, V) from raw partials: U = G^-1 M^T fw, V = G^-1 fy.

    M = I + ad_w/2 + ad_w^2/12 is exact for step <= 3 (higher powers vanish).
    """
    n = alg.dim
    a = [[float(c) for c in row] for row in alg.ad([frac for frac in w])]
    a2 = [[sum(a[i][k] * a[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    m = [[(1.0 if i == j else 0.0) + a[i][j] / 2.0 + a2[i][j] / 12.0
          for j in range(n)] for i in range(n)]
    gi = [[float(c) for c in row] for row in alg.gram_inverse()]
    mt_fw = [sum(m[j][i] * fw[j] for j in range(n)) for i in range(n)]
    u = [sum(gi[i][j] * mt_fw[j] for j in range(n)) for i in range(n)]
    v = [sum(gi[i][j] * fy[j] for j in range(n)) for i in range(n)]
    return u, v


def _assert_gradient_matches(f, w, y):
    gw, gy = f.gradient((w, y))
    fw, fy = _fd_partials(f, w, y)
    u, v = _transport(f.alg, w, fw, fy)
    scale = 1.0 + max(abs(val) for val in u + v)
    for a, b in zip(list(gw) + list(gy), u + v):
        assert abs(float(a) - b) < FD_TOL * scale


W5 = [0.3, -1.1, 0.7, 0.2, -0.5]
Y5 = [1.2, 0.4, -0.9, 0.6, 1.5]


def test_energy_gradient():
    _assert_gradient_matches(Energy(free_23()), W5, Y5)


def test_energy_value_with_metric():
    g = [[Fraction(1), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(2), Fraction(1)],
         [Fraction(0), Fraction(1), Fraction(3)]]
    alg = h3(metric=g)
    e = Energy(alg)
    y = [Fraction(1), Fraction(-1), Fraction(2)]
    # (1/2) y^T G y
    expect = Fraction(1, 2) * sum(y[i] * g[i][j] * y[j]
                                  for i in range(3) for j in range(3))
    assert e.value(([Fraction(0)] * 3, y)) == expect
    _assert_gradient_matches(e, [0.1, 0.2, -0.3], [1.2, 0.4, -0.9])


def test_linear_value_and_gradient():
    alg = free_23()
    f = Linear(alg, [Fraction(0), Fraction(0), Fraction(0), Fraction(2), Fraction(-1)])
    assert f.value((W5, Y5)) == pytest.approx(2 * Y5[3] - Y5[4])
    _assert_gradient_matches(f, W5, Y5)


def test_linear_rejects_wrong_length():
    with pytest.raises(ValueError):
        Linear(h3(), [Fraction(1)])
    with pytest.raises(ValueError):
        RightInvariant(h3(), [Fraction(1)] * 4)


def test_right_invariant_gradient():
    alg = free_23()
    f = RightInvariant(alg, [Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)])
    _assert_gradient_matches(f, W5, Y5)


def test_right_invariant_reduces_to_linear_at_identity():
    alg = free_23()
    x = [Fraction(1), Fraction(2), Fraction(0), Fraction(0), Fraction(1)]
    r = RightInvariant(alg, x)
    l = Linear(alg, x)
    origin = [Fraction(0)] * 5
    y = [Fraction(3), Fraction(-1), Fraction(2), Fraction(1), Fraction(0)]
    assert r.value((origin, y)) == l.value((origin, y))


def test_quadratic_value_and_gradient():
    alg = free_23()
    s = [[Fraction(0)] * 5 for _ in range(5)]
    s[0][4] = s[4][0] = Fraction(1)
    s[2][2] = Fraction(1)
    s[1][3] = s[3][1] = Fraction(-1)
    f = Quadratic(alg, s)
    got = float(f.value((W5, Y5)))
    # convention: (1/2) <Y, S Y>, matching Energy = Quadratic(Id)
    expect = 0.5 * sum(Y5[i] * float(s[i][j]) * Y5[j]
                       for i in range(5) for j in range(5))
    assert abs(got - expect) < 1e-12
    _assert_gradient_matches(f, W5, Y5)


def test_quadratic_rejects_asymmetric():
    s = [[Fraction(0)] * 3 for _ in range(3)]
    s[0][1] = Fraction(1)
    with pytest.raises(ValueError):
        Quadratic(h3(), s)


def test_derivation_integral_gradient():
    alg = h3()
    d = [[Fraction(0), Fraction(-1), Fraction(0)],
         [Fraction(1), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(0)]]
    f = DerivationIntegral(alg, d)
    _assert_gradient_matches(f, [0.4, -0.2, 0.9], [1.1, 0.3, -0.7])
    # n1 ships an unchecked matrix that is not a derivation; its gradient
    # must still be the gradient of its own value
    unchecked = catalog.get("n1").parse("der:D")
    with pytest.raises(NotADerivation):
        validate_derivation(unchecked.alg, unchecked.d)
    _assert_gradient_matches(unchecked, W5, Y5)


def test_non_derivation_rejected():
    alg = h3()
    # rotation in the (e1, e3) plane breaks the Leibniz rule on [e1, e2]
    d = [[Fraction(0), Fraction(0), Fraction(-1)],
         [Fraction(0), Fraction(0), Fraction(0)],
         [Fraction(1), Fraction(0), Fraction(0)]]
    with pytest.raises(NotADerivation) as err:
        DerivationIntegral(alg, d)
    assert err.value.pair == (1, 2)
    # check=False skips validation on purpose (defective published candidates)
    unchecked = DerivationIntegral(alg, d, check=False)
    assert unchecked.d == d


def test_butler_family_h3():
    alg = h3()
    g0 = Butler(alg, 0).as_polynomial()
    g1 = Butler(alg, 1).as_polynomial()
    # g0 = y1^2 + y2^2, and each step multiplies by -y3^2
    minus_z2 = parse("(-1) y3^2", 6)
    assert g1 == g0 * minus_z2
    assert Butler(alg, 2).as_polynomial() == g1 * minus_z2


def test_butler_gradient():
    _assert_gradient_matches(Butler(h3(), 1), [0.2, 0.1, -0.4],
                             [0.8, -0.5, 1.3])


def test_quotient_induced_law_and_gradient():
    alg = h3()
    num = RightInvariant(alg, [Fraction(1), Fraction(0), Fraction(0)])
    den = Linear(alg, [Fraction(0), Fraction(0), Fraction(1)])
    q = QuotientInduced(num, den)
    w = [0.3, -0.2, 0.5]
    y = [0.7, 1.1, 0.9]
    d = float(den.value((w, y)))
    ratio = float(num.value((w, y))) / d
    expect = math.exp(-1.0 / d ** 2) * math.sin(2 * math.pi * ratio)
    assert abs(float(q.value((w, y))) - expect) < 1e-12
    _assert_gradient_matches(q, w, y)


def test_quotient_induced_not_polynomial():
    alg = h3()
    q = QuotientInduced(RightInvariant(alg, [Fraction(1), Fraction(0), Fraction(0)]),
                        Linear(alg, [Fraction(0), Fraction(0), Fraction(1)]))
    with pytest.raises(NonPolynomialVariant):
        q.as_polynomial()


def test_parse_round_trip():
    alg = free_23()
    d = [[Fraction(0), Fraction(-1), Fraction(0), Fraction(0), Fraction(0)],
         [Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(-1)],
         [Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(0)]]
    s = [[Fraction(0)] * 5 for _ in range(5)]
    s[0][4] = s[4][0] = Fraction(1)
    s[2][2] = Fraction(1)
    quad_refs = {"S": s}
    der_refs = {"D": d}
    texts = ["E", "lin:e5", "right:e1", "quad:S", "der:D"]
    for text in texts:
        f = parse_integral(alg, text, quad_refs=quad_refs, der_refs=der_refs)
        again = parse_integral(alg, f.spec_string(), quad_refs=quad_refs,
                               der_refs=der_refs)
        assert type(f) is type(again)
        assert f.as_polynomial() == again.as_polynomial()


def test_parse_bounds_the_spec_nesting():
    alg = h3()
    spec = "E"
    for _ in range(MAX_SPEC_DEPTH):
        spec = "quot(E / %s)" % spec
    f = parse_integral(alg, spec)
    assert f.spec_string() == spec
    with pytest.raises(ValueError, match="nests deeper than %d levels"
                       % MAX_SPEC_DEPTH):
        parse_integral(alg, "quot(E / %s)" % spec)


def test_parse_rejects_unknown():
    alg = h3()
    with pytest.raises(ValueError):
        parse_integral(alg, "lin:e9")
    with pytest.raises(ValueError):
        parse_integral(alg, "nope:e1")
    with pytest.raises(ValueError):
        parse_integral(alg, "quad:missing")
