from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ROOT, free_23, h3
from nilflow.algebra import (
    JacobiViolation,
    LieAlgebraDescriptor,
    NotNilpotent,
    dump_algebra,
    from_definition,
    load_algebra,
    to_definition,
)
from nilflow.integrals import Butler


def test_bracket_bilinear_antisymmetric():
    alg = h3()
    e1 = [Fraction(1), Fraction(0), Fraction(0)]
    e2 = [Fraction(0), Fraction(1), Fraction(0)]
    b = alg.bracket(e1, e2)
    assert b == [Fraction(0), Fraction(0), Fraction(1)]
    assert alg.bracket(e2, e1) == [Fraction(0), Fraction(0), Fraction(-1)]
    u = [Fraction(2), Fraction(-1), Fraction(5)]
    assert alg.bracket(u, u) == [Fraction(0)] * 3


def test_jacobi_rejected():
    # [[e3,e1],e2] = -[e4,e2] = e5 is the lone nonzero cyclic term
    bad = {
        (1, 2): {3: Fraction(1)},
        (1, 3): {4: Fraction(1)},
        (2, 4): {5: Fraction(1)},
    }
    with pytest.raises(JacobiViolation) as err:
        LieAlgebraDescriptor(5, bad)
    assert err.value.triple == (1, 2, 3)
    assert err.value.defect == [0, 0, 0, 0, 1]


def _first_jacobi_defect(n, structure):
    """Reference: scan every basis triple i < j < k in order."""
    def br(u, v):
        out = [Fraction(0)] * n
        for (i, j), targets in structure.items():
            c = u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]
            for k, coeff in targets.items():
                out[k - 1] += c * coeff
        return out

    e = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                defect = [a + b + c for a, b, c in zip(
                    br(br(e[i], e[j]), e[k]), br(br(e[j], e[k]), e[i]),
                    br(br(e[k], e[i]), e[j]))]
                if any(defect):
                    return (i + 1, j + 1, k + 1), defect
    return None


@settings(max_examples=80)
@given(st.dictionaries(
    st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(lambda p: p[0] < p[1]),
    st.dictionaries(st.integers(1, 5), st.integers(-2, 2).map(Fraction),
                    max_size=2),
    max_size=4))
def test_jacobi_check_reports_the_first_defective_triple(structure):
    expected = _first_jacobi_defect(5, structure)
    if expected is None:
        LieAlgebraDescriptor(5, structure)
        return
    with pytest.raises(JacobiViolation) as err:
        LieAlgebraDescriptor(5, structure)
    assert (err.value.triple, err.value.defect) == expected


def test_jacobi_check_skips_unbracketed_triples(monkeypatch):
    calls = []
    original = LieAlgebraDescriptor.bracket

    def counting(self, u, v):
        calls.append((u, v))
        return original(self, u, v)

    monkeypatch.setattr(LieAlgebraDescriptor, "bracket", counting)
    from_definition({"dim": 60, "brackets": []})
    assert calls == []


def test_not_nilpotent_rejected():
    # [e1,e2]=e2 is solvable but not nilpotent; detected at analysis time
    alg = LieAlgebraDescriptor(2, {(1, 2): {2: Fraction(1)}})
    with pytest.raises(NotNilpotent):
        alg.analyze()


def test_analysis_h3():
    an = h3().analyze()
    assert an.step == 2
    assert len(an.center_basis) == 1
    assert an.center_basis[0] == [Fraction(0), Fraction(0), Fraction(1)]
    assert len(an.v_complement) == 2


def test_analysis_free_23():
    an = free_23().analyze()
    assert an.step == 3
    # center is span(e4, e5); the complement is taken against [g, g]
    assert len(an.center_basis) == 2
    assert len(an.v_complement) == 2


def test_is_central():
    alg = h3()
    assert alg.is_central([Fraction(0), Fraction(0), Fraction(7)])
    assert not alg.is_central([Fraction(1), Fraction(0), Fraction(0)])


def test_metric_inner_and_gram_inverse():
    g = [[Fraction(2), Fraction(1), Fraction(0)],
         [Fraction(1), Fraction(2), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(1)]]
    alg = LieAlgebraDescriptor(3, {(1, 2): {3: Fraction(1)}}, metric=g)
    u = [Fraction(1), Fraction(0), Fraction(0)]
    v = [Fraction(0), Fraction(1), Fraction(0)]
    assert alg.inner(u, v) == Fraction(1)
    gi = alg.gram_inverse()
    prod = [[sum(g[i][k] * gi[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]
    assert prod == [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]


def test_metric_must_be_positive_definite():
    g = [[Fraction(1), Fraction(2), Fraction(0)],
         [Fraction(2), Fraction(1), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(1)]]
    with pytest.raises(ValueError):
        LieAlgebraDescriptor(3, {(1, 2): {3: Fraction(1)}}, metric=g)


def _cofactor_det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return Fraction(1)
    return sum((-1) ** j * m[0][j]
               * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


@st.composite
def _symmetric_matrix(draw):
    """A symmetric rational matrix; the diagonal shift makes positive
    definite matrices common, so both outcomes are exercised."""
    n = draw(st.integers(1, 4))
    shift = draw(st.sampled_from([0, 1, 3, 8]))
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(entries)
        g[i][i] += shift
    return g


@settings(max_examples=200)
@given(_symmetric_matrix())
def test_metric_check_names_the_first_nonpositive_leading_minor(g):
    n = len(g)
    bad = [k for k in range(1, n + 1)
           if _cofactor_det([row[:k] for row in g[:k]]) <= 0]
    if not bad:
        assert LieAlgebraDescriptor(n, {}, metric=g).metric == g
    else:
        with pytest.raises(ValueError,
                           match=r"\(leading minor %d\)$" % bad[0]):
            LieAlgebraDescriptor(n, {}, metric=g)


def test_j_map_identity():
    alg = h3()
    z = [Fraction(0), Fraction(0), Fraction(1)]
    jz, vbasis = alg.j_map(z), alg.analyze().v_complement
    nv = len(vbasis)
    # columns: j(z) v_b = sum_a J[a][b] v_a, and <j(z) v, w> = <z, [v, w]>
    for b in range(nv):
        jvb = [sum(jz[a][b] * vbasis[a][i] for a in range(nv)) for i in range(3)]
        for c in range(nv):
            lhs = alg.inner(jvb, vbasis[c])
            rhs = alg.inner(z, alg.bracket(vbasis[b], vbasis[c]))
            assert lhs == rhs
    # and it is skew on the complement for the flat metric here
    assert jz[0][0] == 0 and jz[1][1] == 0 and jz[0][1] == -jz[1][0]


def test_butler_on_a_non_orthogonal_complement_basis():
    # under this metric the complement basis e1, e2 is not orthogonal
    # (<e1, e2> = 1); each g_k is the one recorded with an orthogonalized
    # basis, since Butler and j_map read the basis through its Gram matrix
    alg = load_algebra(ROOT + "/tests/data/h3_metric.json")
    assert alg.inner(*alg.analyze().v_complement) == 1
    assert [Butler(alg, k).as_polynomial().render() for k in range(3)] == [
        "(2) y1^2 + (2) y1 y2 + (2) y2^2",
        "(-6) y1^2 y3^2 + (-6) y1 y2 y3^2 + (-6) y2^2 y3^2",
        "(18) y1^2 y3^4 + (18) y1 y2 y3^4 + (18) y2^2 y3^4"]


def test_definition_round_trip(tmp_path):
    alg = free_23()
    data = to_definition(alg)
    back = from_definition(data)
    assert back.dim == alg.dim
    assert back.structure == alg.structure
    path = tmp_path / "free23.alg"
    dump_algebra(alg, path)
    loaded = load_algebra(path)
    assert loaded.dim == 5
    assert loaded.structure == alg.structure
    assert loaded.name == "free23"


def test_rational_coefficients_survive_serialization(tmp_path):
    alg = LieAlgebraDescriptor(3, {(1, 2): {3: Fraction(5, 3)}})
    path = tmp_path / "frac.alg"
    dump_algebra(alg, path)
    loaded = load_algebra(path)
    assert loaded.structure[(1, 2)][3] == Fraction(5, 3)


def test_definition_numbers_are_plain():
    # int() and Fraction() read each of these spellings as a number
    for dim in ("1_0", " 3 ", "\u0663", "3.0"):
        with pytest.raises(ValueError, match="^dim: expected an integer"):
            from_definition({"dim": dim, "brackets": []})
    for coeff in ("1_0", " 1", "\u0661"):
        with pytest.raises(ValueError, match="^brackets: expected an exact"):
            from_definition({"dim": 3, "brackets": [[1, 2, 3, coeff]]})
    alg = from_definition({"dim": "3", "brackets": [[1, 2, 3, "-1/2"]]})
    assert alg.dim == 3
    assert alg.structure == {(1, 2): {3: Fraction(-1, 2)}}
