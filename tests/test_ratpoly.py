from fractions import Fraction

import numpy as np
import pytest

from nilflow import linalg
from nilflow.ratpoly import Evaluator, RationalPolynomial, phase_names
from polytext import parse


def _p(nvars, text):
    return parse(text, nvars)


def _at(p, x):
    return Evaluator([p])(x)[0]


def test_zero_and_constant():
    z = RationalPolynomial.constant(4, 0)
    assert z.is_zero
    assert not z
    c = RationalPolynomial.constant(4, Fraction(3, 2))
    assert _at(c, [0, 0, 0, 0]) == Fraction(3, 2)
    assert (c - c).is_zero


def test_arithmetic_exact():
    x = RationalPolynomial.variable(4, 0)
    y = RationalPolynomial.variable(4, 2)
    p = (x + y) * (x - y)
    q = x * x - y * y
    assert p == q
    assert (p - q).is_zero
    r = p * Fraction(1, 3) + 2
    assert _at(r, [Fraction(1), 0, Fraction(2), 0]) == Fraction(-1) + 2


def test_arithmetic_with_a_float_is_a_type_error():
    x = RationalPolynomial.variable(2, 0)
    for op in (lambda: x + 1.5, lambda: 1.5 + x, lambda: x - 1.5,
               lambda: 1.5 - x, lambda: x * 1.5, lambda: 1.5 * x,
               lambda: x * np.float64(2), lambda: np.float64(2) * x):
        with pytest.raises(TypeError):
            op()


def test_arithmetic_across_variable_counts_is_a_value_error():
    small = RationalPolynomial.variable(2, 0)
    big = RationalPolynomial.variable(4, 3)
    for op in (lambda: small + big, lambda: big + small, lambda: small - big,
               lambda: big - small, lambda: small * big, lambda: big * small):
        with pytest.raises(ValueError, match="2 and 4|4 and 2"):
            op()
    # scalars still combine with a polynomial of any size
    assert (big + 1) * Fraction(1, 2) - 1 == _p(
        4, "(1/2) y2 + (-1/2)")


def test_pow_matches_repeated_mul():
    x = RationalPolynomial.variable(2, 0)
    y = RationalPolynomial.variable(2, 1)
    p = x + 2 * y
    assert p ** 3 == p * p * p
    assert p ** 0 == RationalPolynomial.constant(2, 1)


def test_partial_derivative():
    # d/dw1 of (1/2) w1^2 y1 is w1 y1
    w1 = RationalPolynomial.variable(2, 0)
    y1 = RationalPolynomial.variable(2, 1)
    p = Fraction(1, 2) * w1 * w1 * y1
    assert p.partial(0) == w1 * y1
    assert p.partial(1) == Fraction(1, 2) * w1 * w1


def test_substitute_is_composition():
    # evaluating at a point of polynomials substitutes them
    x = RationalPolynomial.variable(2, 0)
    y = RationalPolynomial.variable(2, 1)
    p = x * x + y
    sub = _at(p, [y + 1, y])
    assert sub == (y + 1) * (y + 1) + y
    assert _at(sub, [Fraction(5), Fraction(2)]) == 9 + 2
    # unmoved variables and a mixed point of polynomials and Fractions
    assert _at(p, [x, y]) == p
    assert _at(p, [x + y, Fraction(3)]) == (x + y) * (x + y) + 3


def test_total_degree_and_degree_in():
    nvars = 6
    p = _p(nvars, "(1) w1^2 y3 + (-2) y1")
    assert p.degree_in(range(6)) == 3          # total degree
    assert p.degree_in(range(3)) == 2          # w variables
    assert p.degree_in(range(3, 6)) == 1       # y variables


def test_render_parse_round_trip():
    nvars = 6
    for text in ["(0)", "(1) y3", "(1/2) w1^2 y3 + (-1) w1 y2 + (1) w2 y1",
                 "(-3/7) w3 y1 y3 + (2) y2^4"]:
        p = _p(nvars, text)
        assert p.render() == text or _p(nvars, p.render()) == p
        assert _p(nvars, p.render()) == p


def test_parse_rejects_malformed_text():
    for text in ["", "(1) w1 +  + (2) y1", "1 w1", "(1) z9", "(x) w1"]:
        with pytest.raises(ValueError):
            _p(4, text)


def test_render_order_is_graded():
    nvars = 4
    p = _p(nvars, "(1) y1 + (1) w1^2 y2")
    # higher total degree first
    assert p.render().index("w1^2") < p.render().index("(1) y1")


def test_phase_names():
    assert phase_names(6) == ["w1", "w2", "w3", "y1", "y2", "y3"]
    with pytest.raises(ValueError):
        phase_names(5)


def test_poly_vector_dot_with_gram():
    # linalg.inner on vectors of polynomials
    g = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    a = [RationalPolynomial.variable(2, 0), RationalPolynomial.constant(2, 1)]
    b = [RationalPolynomial.constant(2, 1), RationalPolynomial.variable(2, 1)]
    plain = linalg.inner(a, b)
    weighted = linalg.inner(a, b, g)
    x = [Fraction(2), Fraction(5)]
    assert _at(plain, x) == 2 + 5
    # a = (w, 1), b = (1, y) at w=2, y=5: a^T G b = (2*1 + 1*5)*... computed directly
    av = [Fraction(2), Fraction(1)]
    bv = [Fraction(1), Fraction(5)]
    expect = sum(av[i] * g[i][j] * bv[j] for i in range(2) for j in range(2))
    assert _at(weighted, x) == expect


def test_hash_consistency():
    p1 = _p(4, "(1) w1 y1")
    p2 = _p(4, "(1) w1 y1")
    assert p1 == p2 and hash(p1) == hash(p2)


def test_rows_checks_the_width_of_every_new_shape():
    # rows binds its arrays to the first shape it meets; a call at another
    # shape checks the width again and leaves the bound shape working
    text = "(1/2) w1^2 y2 + (-1) w2 y1 + (3)"
    ev = Evaluator([_p(4, text)])
    x = np.random.default_rng(0).uniform(-2.0, 2.0, (5, 4))
    first = ev.rows(x).copy()
    for bad in (np.ones((5, 3)), np.ones((2, 5)), np.ones((1, 0))):
        with pytest.raises(ValueError, match="^expected 4 columns$"):
            ev.rows(bad)
    assert np.array_equal(ev.rows(x), first)
    assert np.array_equal(first, Evaluator([_p(4, text)]).rows(x))
