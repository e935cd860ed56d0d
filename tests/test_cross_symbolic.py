"""Recompute brackets with an independent sympy implementation and compare."""

from fractions import Fraction

import numpy as np
import sympy

from helpers import filiform6, free_23, h3, unit
from nilflow import catalog
from nilflow.geodesic import GeodesicField
from nilflow.integrals import (
    Coordinate,
    DerivationIntegral,
    Energy,
    Linear,
    Quadratic,
    RightInvariant,
)
from nilflow.poisson import PoissonEngine
from nilflow.solvers import killing2_tensors


def _symbols(n):
    ws = sympy.symbols("w1:%d" % (n + 1))
    ys = sympy.symbols("y1:%d" % (n + 1))
    return list(ws), list(ys)


def _to_sympy(poly, ws, ys):
    syms = ws + ys
    expr = sympy.Integer(0)
    for exps, coeff in poly.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for var, k in enumerate(exps):
            if k:
                term *= syms[var] ** k
        expr += term
    return sympy.expand(expr)


def _sym_ad(alg, vec):
    n = alg.dim
    m = sympy.zeros(n, n)
    for j in range(n):
        basis = [Fraction(int(k == j)) for k in range(n)]
        col = alg.bracket(vec, basis)
        for i in range(n):
            m[i, j] += _scalar(col[i])
    return m


def _scalar(x):
    if isinstance(x, Fraction):
        return sympy.Rational(x.numerator, x.denominator)
    return x


def _sym_bracket_vec(alg, a, b):
    """[a, b] for sympy coefficient vectors."""
    n = alg.dim
    out = [sympy.Integer(0)] * n
    for (i, j), targets in alg.structure.items():
        c = a[i - 1] * b[j - 1] - a[j - 1] * b[i - 1]
        for k, coeff in targets.items():
            out[k - 1] += _scalar(coeff) * c
    return out


def _independent_bracket(alg, f, g):
    """{f, g} assembled from scratch with sympy matrices."""
    n = alg.dim
    ws, ys = _symbols(n)
    gram = sympy.Matrix([[_scalar(c) for c in row] for row in alg.gram()])
    ginv = gram.inv()
    adw = _sym_ad(alg, ws)
    # Phi = sum (-ad w)^k / (k+1)!; nilpotent, so the series terminates
    phi = sympy.zeros(n, n)
    power = sympy.eye(n)
    k = 0
    while not power.is_zero_matrix:
        phi += power / sympy.factorial(k + 1)
        power = (-adw) * power
        k += 1
    psi = phi.inv()

    def grads(h):
        expr = _to_sympy(h.as_polynomial(), ws, ys)
        dw = sympy.Matrix([sympy.diff(expr, s) for s in ws])
        dy = sympy.Matrix([sympy.diff(expr, s) for s in ys])
        u = ginv * psi.T * dw
        v = ginv * dy
        return u, v

    uf, vf = grads(f)
    ug, vg = grads(g)
    yvec = sympy.Matrix(ys)
    comm = sympy.Matrix(_sym_bracket_vec(alg, list(vf), list(vg)))
    expr = (uf.T * gram * vg - ug.T * gram * vf - yvec.T * gram * comm)[0, 0]
    return sympy.expand(expr)


def _engine_bracket_sympy(alg, f, g):
    poly = PoissonEngine(alg).bracket(f, g).poly
    ws, ys = _symbols(alg.dim)
    return _to_sympy(poly, ws, ys)


def test_right_invariant_pair_three_step():
    alg = free_23()
    f = RightInvariant(alg, unit(5, 1))
    g = RightInvariant(alg, unit(5, 2))
    assert sympy.simplify(_engine_bracket_sympy(alg, f, g)
                          - _independent_bracket(alg, f, g)) == 0


def test_five_step_pairs():
    # only a function of the central w6 sees the ad(w)^4 term of Psi
    alg = filiform6()
    for f, g in ((RightInvariant(alg, unit(6, 1)),
                  RightInvariant(alg, unit(6, 2))),
                 (Energy(alg), RightInvariant(alg, unit(6, 3))),
                 (Coordinate(alg, 5), Energy(alg))):
        assert sympy.simplify(_engine_bracket_sympy(alg, f, g)
                              - _independent_bracket(alg, f, g)) == 0


def test_derivation_linear_pair():
    alg = h3()
    d = [[Fraction(0), Fraction(1), Fraction(0)],
         [Fraction(-1), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(0)]]
    f = DerivationIntegral(alg, d)
    g = Linear(alg, [Fraction(0), Fraction(2), Fraction(-3)])
    assert sympy.simplify(_engine_bracket_sympy(alg, f, g)
                          - _independent_bracket(alg, f, g)) == 0


def test_energy_right_invariant_with_metric():
    g = [[Fraction(1), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(2), Fraction(1)],
         [Fraction(0), Fraction(1), Fraction(3)]]
    alg = h3(metric=g)
    f = Energy(alg)
    h = RightInvariant(alg, unit(3, 1))
    assert sympy.simplify(_engine_bracket_sympy(alg, f, h)
                          - _independent_bracket(alg, f, h)) == 0


def test_killing_tensors_commute_with_energy_symbolically():
    alg = h3()
    e = Energy(alg)
    for s in killing2_tensors(alg):
        gs = Quadratic(alg, s)
        assert sympy.simplify(_independent_bracket(alg, e, gs)) == 0


def test_flow_field_is_hamiltonian():
    # the field rows equal the independently assembled {x_i, E}, on
    # algebras of step 2, 3 and 5, with and without a metric
    cases = (
        (h3(), 1),
        (free_23(), 1),
        (h3([[2, 1, 0], [1, 2, 1], [0, 1, 2]]), 3),
        (free_23([[2, 1, 0, 0, 0], [1, 2, 0, 0, 0], [0, 0, 3, 0, 0],
                   [0, 0, 0, 2, 1], [0, 0, 0, 1, 2]]), 3),
        (catalog.get("n6_25").descriptor, 3),
        (filiform6(), 2),
    )
    base = [0.31, -0.42, 0.55, 0.12, -0.73, 0.26,
            1.21, 0.44, -0.95, 0.61, 1.52, -0.38]
    for alg, rows in cases:
        n = alg.dim
        e = Energy(alg)
        states = [[(k + 1) * x - 0.1 * k for x in base[:n] + base[6:6 + n]]
                  for k in range(rows)]
        rhs = GeodesicField(alg)(np.array(states))
        assert rhs.shape == (rows, 2 * n)
        syms = sum(_symbols(n), [])
        for i in range(2 * n):
            br = _independent_bracket(alg, Coordinate(alg, i), e)
            for row, state in zip(rhs, states):
                point = {s: sympy.Rational(v) for s, v in zip(syms, state)}
                val = float(br.subs(point))
                assert abs(val - row[i]) < 1e-12, "slot %d" % i
