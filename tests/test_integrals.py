import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import filiform6, fr, free_23, h3, tridiagonal
from nilflow import catalog, linalg
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
    _psi_columns,
    is_metric_skew,
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


def _gram_skew(alg, m):
    """The Gram-product test of skewness: (G m)^T == -(G m)."""
    gm = linalg.mat_mul(alg.gram(), m)
    return linalg.transpose(gm) == linalg.mat_scale(gm, Fraction(-1))


def _gram_symmetric(alg, s):
    """The Gram-product test of symmetry: (G s)^T == G s."""
    gs = linalg.mat_mul(alg.gram(), s)
    return linalg.transpose(gs) == gs


def _accepted_as_quadratic(alg, s):
    try:
        Quadratic(alg, s)
    except ValueError:
        return False
    return True


@settings(max_examples=40)
@given(st.data())
def test_skew_and_symmetry_checks_match_the_gram_products(data):
    alg = data.draw(st.sampled_from([h3(), h3(tridiagonal(3))]))
    n = alg.dim
    entry = st.integers(min_value=-2, max_value=2).map(Fraction)
    a = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                           min_size=n, max_size=n))
    # G^{-1} times an antisymmetric and a symmetric matrix pass the checks
    ginv = alg.gram_inverse()
    skew = linalg.mat_mul(ginv, [[a[i][j] - a[j][i] for j in range(n)]
                                 for i in range(n)])
    sym = linalg.mat_mul(ginv, [[a[i][j] + a[j][i] for j in range(n)]
                                for i in range(n)])
    assert is_metric_skew(alg, skew) and _accepted_as_quadratic(alg, sym)
    for m in (a, skew, sym):
        assert is_metric_skew(alg, m) == _gram_skew(alg, m)
        assert _accepted_as_quadratic(alg, m) == _gram_symmetric(alg, m)


def test_quadratic_rejects_a_matrix_of_the_wrong_size():
    with pytest.raises(ValueError, match="not symmetric for the metric"):
        Quadratic(h3(), [[Fraction(1)]])


def _psi_route(f):
    """(U, V) with the Psi sums and the G^{-1} products always formed."""
    alg, fp, n = f.alg, f.as_polynomial(), f.alg.dim
    grad_w = [fp.partial(i) for i in range(n)]
    grad_y = [fp.partial(n + i) for i in range(n)]
    u = [linalg.inner(col, grad_w) for col in _psi_columns(alg)]
    ginv = alg.gram_inverse()
    return linalg.mat_vec(ginv, u), linalg.mat_vec(ginv, grad_y)


@pytest.mark.parametrize("alg", [h3(tridiagonal(3)), free_23(tridiagonal(5)),
                                 filiform6()], ids=["h3", "free23", "fil6"])
def test_gradient_polys_match_the_psi_route(alg):
    n = alg.dim
    sym = [[Fraction((i + 1) * (j + 1) % 5 - 2) for j in range(n)]
           for i in range(n)]
    x = fr(*[(-1) ** i * (i + 1) for i in range(n)])
    fs = [Energy(alg), Linear(alg, x),
          Quadratic(alg, linalg.mat_mul(alg.gram_inverse(), sym)),
          RightInvariant(alg, x)]
    for f in fs:
        assert f.gradient_polys() == _psi_route(f)
    # the first three have a zero grad_w f, so a zero U
    assert all(not any(f.gradient_polys()[0]) for f in fs[:3])


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


def test_spec_indices_are_bounded_canonical_decimals():
    alg = h3()
    for ref in ("e01", "e+3", "e 3", "e0_1", "e\u0663", "e0", "e4",
                "e" + "9" * 5000, "e" + "0" * 5000 + "1"):
        for head in ("lin", "right"):
            with pytest.raises(ValueError) as err:
                parse_integral(alg, "%s:%s" % (head, ref))
            assert str(err.value) == "unknown basis reference %r" % ref
    assert parse_integral(alg, "lin:e3").x == [0, 0, 1]
    n6 = catalog.get("n6_22(0)").descriptor
    for ref in ("x", "-1", "+1", "01", " 1", "1_0", "\u0663", "7", "80",
                "9" * 5000):
        with pytest.raises(ValueError) as err:
            parse_integral(n6, "butler:" + ref)
        assert str(err.value) == ("Butler index %r is not a decimal from 0 "
                                  "to 6" % ref)
    for k in (0, 6):
        assert parse_integral(n6, "butler:%d" % k).index == k
    # the constructor keeps taking any index >= 0
    assert Butler(n6, 7).index == 7


def _old_quotient_split(text):
    """The top-level " / " of quot(...) as the parser found it with its
    own second depth loop: (num text, den text), or None."""
    inner_text = text[5:-1]
    depth = 0
    for pos in range(len(inner_text) - 2):
        ch = inner_text[pos]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and inner_text[pos:pos + 3] == " / ":
            return inner_text[:pos], inner_text[pos + 3:]
    return None


def _parsed(alg, text):
    try:
        f = parse_integral(alg, text)
    except ValueError as err:
        return str(err)
    return f.spec_string()


def _check_quotient_split(alg, spec):
    split = _old_quotient_split(spec)
    try:
        f = parse_integral(alg, spec)
        got = (f.num.spec_string(), f.den.spec_string())
    except ValueError as err:
        got = str(err)
    if split is None:
        assert got == "malformed quotient spec %r" % spec
    else:
        parts = [_parsed(alg, part) for part in split]
        bad = [p for p, part in zip(parts, split) if p != part.strip()]
        assert got == (bad[0] if bad else tuple(parts))


def test_quotient_split_matches_the_old_depth_loop():
    alg = h3()
    for spec in ("quot(E / E)", "quot( E / lin:e3 )",
                 "quot(quot(E / lin:e3) / lin:e3)",
                 "quot(lin:e3 / quot(E / quot(E / lin:e3)))",
                 "quot(E) / (E)", "quot(E / E) / (E)", "quot((E / E))",
                 "quot(E / E / E)", "quot(E / )", "quot( / E)",
                 "quot(E /E)", "quot(E)) / ((E)", "quot(E / (E)",
                 "quot(E / E))", "quot()"):
        _check_quotient_split(alg, spec)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="()/ E", max_size=16))
def test_quotient_split_matches_the_old_depth_loop_on_any_text(body):
    _check_quotient_split(h3(), "quot(%s)" % body)


def test_parse_rejects_unknown():
    alg = h3()
    with pytest.raises(ValueError):
        parse_integral(alg, "lin:e9")
    with pytest.raises(ValueError):
        parse_integral(alg, "nope:e1")
    with pytest.raises(ValueError):
        parse_integral(alg, "quad:missing")
