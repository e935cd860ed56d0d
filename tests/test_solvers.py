import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import free_23, h3, in_span, tridiagonal
from nilflow import catalog, linalg
from nilflow.algebra import LieAlgebraDescriptor
from nilflow.integrals import (
    Energy,
    Linear,
    NonPolynomialVariant,
    NotADerivation,
    NotGramSkew,
    Quadratic,
    RightInvariant,
    derivation_defects,
    parse_integral,
    validate_derivation,
)
from nilflow import solvers
from nilflow.poisson import PoissonEngine
from nilflow.solvers import (
    NoSampleAccepted,
    independence_scan,
    killing2_structured,
    killing2_tensors,
    skew_derivations,
)

MIN_FULL_RANK_FRACTION = 0.99


def _plain_and_metric():
    """h3 and free23, each also with a non-diagonal positive-definite
    metric, so the G^{-1} A / G^{-1} B parameter path is exercised; both
    metrics leave a nonzero space of skew derivations."""
    return (h3(), free_23(),
            h3([[2, 1, 0], [1, 2, 1], [0, 1, 2]]),
            free_23([[2, 1, 0, 0, 0], [1, 2, 0, 0, 0], [0, 0, 3, 0, 0],
                      [0, 0, 0, 2, 1], [0, 0, 0, 1, 2]]))


def _abelian(n):
    return LieAlgebraDescriptor(n, {})


def _defects(alg, d):
    """Yield (pair, D[e_i, e_j] - [D e_i, e_j] - [e_i, D e_j]) over the
    basis pairs i < j (1-based, in order), from brackets of basis vectors."""
    n = alg.dim
    for i in range(n):
        for j in range(i + 1, n):
            ei = [Fraction(int(k == i)) for k in range(n)]
            ej = [Fraction(int(k == j)) for k in range(n)]
            d_ei = [sum(d[a][b] * ei[b] for b in range(n)) for a in range(n)]
            d_ej = [sum(d[a][b] * ej[b] for b in range(n)) for a in range(n)]
            br = alg.bracket(ei, ej)
            d_br = [sum(d[a][b] * br[b] for b in range(n)) for a in range(n)]
            leib = [x + y for x, y in zip(alg.bracket(d_ei, ej),
                                          alg.bracket(ei, d_ej))]
            yield (i + 1, j + 1), [x - y for x, y in zip(d_br, leib)]


def _first_defect(alg, d):
    """(pair, defect) of the first basis pair breaking the Leibniz rule, or
    None for a derivation."""
    return next(((pair, defect) for pair, defect in _defects(alg, d)
                 if any(defect)), None)


def _defect_message(pair, defect):
    return ("matrix fails the derivation identity on basis pair (e%d, e%d): "
            "defect %s" % (pair[0], pair[1], defect))


def _is_derivation(alg, d):
    return _first_defect(alg, d) is None


def _is_metric_skew(alg, d):
    n = alg.dim
    g = alg.gram()
    gd = [[sum(g[i][k] * d[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return all(gd[i][j] == -gd[j][i] for i in range(n) for j in range(n))


def test_h3_dimensions():
    alg = h3()
    assert len(skew_derivations(alg)) == 1
    assert len(killing2_tensors(alg)) == 2


def test_free23_dimensions():
    alg = free_23()
    assert len(skew_derivations(alg)) == 1
    assert len(killing2_tensors(alg)) == 5


def test_abelian_dimensions():
    for n in (3, 4):
        alg = _abelian(n)
        assert len(skew_derivations(alg)) == n * (n - 1) // 2
        assert len(killing2_tensors(alg)) == n * (n + 1) // 2


def test_skew_derivations_really_are():
    for alg in _plain_and_metric():
        ders = skew_derivations(alg)
        assert ders
        for d in ders:
            assert _is_derivation(alg, d)
            assert _is_metric_skew(alg, d)


def test_validate_derivation_reports_first_defective_pair():
    for alg in _plain_and_metric():
        n = alg.dim
        for d in skew_derivations(alg):
            for r in range(n):
                for c in range(n):
                    bad = [row[:] for row in d]
                    bad[r][c] += 1
                    expected = _first_defect(alg, bad)
                    if expected is None:
                        continue
                    with pytest.raises(NotADerivation) as err:
                        validate_derivation(alg, bad)
                    assert err.value.pair == expected[0]
                    assert err.value.defect == expected[1]
                    assert str(err.value) == _defect_message(*expected)


def test_derivation_defects_are_in_the_ring_of_the_matrix():
    # a component no term reaches is the zero of D's entries
    alg = free_23()
    for one in (1, Fraction(1)):
        d = [[0 * one] * 5 for _ in range(5)]
        d[1][0] = one  # e1 -> e2 fails the product rule
        defects = [c for _, defect in derivation_defects(alg, d)
                   for c in defect]
        zeros = [c for c in defects if c == 0]
        assert zeros and {type(c) for c in zeros} == {type(one)}
        assert any(defects)


_ORACLE_ALGEBRAS = (h3(), free_23(), _plain_and_metric()[3])
_ALL_DERIVATIONS = {}


def _all_derivations(alg):
    """Basis of every derivation, skew or not, from the oracle's defects of
    the n^2 matrix units."""
    if alg not in _ALL_DERIVATIONS:
        n = alg.dim
        cols = []
        for p in range(n * n):
            unit = linalg.zeros(n, n)
            unit[p // n][p % n] = Fraction(1)
            cols.append([c for _, defect in _defects(alg, unit)
                         for c in defect])
        _ALL_DERIVATIONS[alg] = [[v[r * n:(r + 1) * n] for r in range(n)]
                                 for v in linalg.nullspace(
                                     linalg.transpose(cols), ncols=n * n)]
    return _ALL_DERIVATIONS[alg]


_SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def _candidate_derivations(draw):
    """(alg, D): a random combination of skew derivations, of derivations,
    or of derivations plus a few random entries."""
    alg = draw(st.sampled_from(_ORACLE_ALGEBRAS))
    kind = draw(st.sampled_from(["skew", "derivation", "perturbed"]))
    n = alg.dim
    d = linalg.zeros(n, n)
    basis = skew_derivations(alg) if kind == "skew" else _all_derivations(alg)
    for m in basis:
        d = linalg.mat_add(d, linalg.mat_scale(m, draw(_SMALL)))
    if kind == "perturbed":
        for _ in range(draw(st.integers(1, 3))):
            r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            d[r][c] += draw(_SMALL)
    return alg, d


@settings(max_examples=80)
@given(_candidate_derivations())
def test_validate_derivation_agrees_with_the_bracket_oracle(candidate):
    alg, d = candidate
    expected = _first_defect(alg, d)
    if expected is not None:
        with pytest.raises(NotADerivation) as err:
            validate_derivation(alg, d)
        assert (err.value.pair, err.value.defect) == expected
        assert str(err.value) == _defect_message(*expected)
    elif not _is_metric_skew(alg, d):
        with pytest.raises(NotGramSkew):
            validate_derivation(alg, d)
    else:
        validate_derivation(alg, d)


def test_the_oracle_sees_every_outcome():
    """The candidates above reach all three outcomes: on h3, diag(1, 0, 1)
    is a derivation that is not skew."""
    alg = h3()
    assert _all_derivations(alg)
    d = [[Fraction(int(i == j != 1)) for j in range(3)] for i in range(3)]
    assert _first_defect(alg, d) is None and not _is_metric_skew(alg, d)
    with pytest.raises(NotGramSkew):
        validate_derivation(alg, d)
    for d in skew_derivations(alg):
        assert _first_defect(alg, d) is None and _is_metric_skew(alg, d)
        validate_derivation(alg, d)


# sha256 of the rendered bases of the three symmetry solvers on every
# catalog structure, without a metric and under a tridiagonal one; a
# step > 3 ValueError of the structured solver counts as its message.  As
# with the expansion digest in test_catalog.py, the bases are a regression
# gate: any change to them is a change of results, not of speed or
# structure.
SOLVER_DIGEST = (
    "e0702d9bec3e5c947f04064c65e1d793b4b29de7cbffa267fb45a3e070a46c6f")


def test_solver_bases_match_the_recorded_digest():
    lines = []
    for name in catalog.names():
        alg = catalog.get(name).descriptor
        for metric in (None, tridiagonal(alg.dim)):
            variant = LieAlgebraDescriptor(alg.dim, alg.structure,
                                           metric=metric)
            for solve in (skew_derivations, killing2_tensors,
                          killing2_structured):
                try:
                    out = " ; ".join(
                        " | ".join(" ".join(str(x) for x in row) for row in m)
                        for m in solve(variant))
                except ValueError as exc:
                    out = "ValueError: %s" % exc
                lines.append("%s %s %s %s" % (name, metric is not None,
                                              solve.__name__, out))
    assert len(lines) == 156
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SOLVER_DIGEST


def _reference_parameter_basis(alg, sign):
    """G^{-1} B over B with B^T = sign * B, in Fractions: the metric-skew
    matrices for sign -1, the metric-symmetric ones for sign +1."""
    n = alg.dim
    ginv = alg.gram_inverse()
    out = []
    for i in range(n):
        for j in range(i if sign > 0 else i + 1, n):
            b = linalg.zeros(n, n)
            b[i][j] = Fraction(1)
            b[j][i] = Fraction(sign)
            out.append(linalg.mat_mul(ginv, b) if alg.metric is not None else b)
    return out


def _reference_solve(parameter_basis, per_param):
    """Nullspace coordinates of the equations -> sum_p c_p P_p."""
    if not parameter_basis:
        return []
    coeffs = linalg.nullspace(linalg.transpose(per_param),
                              ncols=len(parameter_basis))
    n = len(parameter_basis[0])
    flat = linalg.mat_mul(coeffs, [sum(m, []) for m in parameter_basis])
    return [[v[r * n:(r + 1) * n] for r in range(n)] for v in flat]


def _reference_skew_derivations(alg):
    params = _reference_parameter_basis(alg, -1)
    return _reference_solve(params, [
        [c for _, defect in derivation_defects(alg, d) for c in defect]
        for d in params])


def _reference_killing2_tensors(alg):
    params = _reference_parameter_basis(alg, 1)
    return _reference_solve(params, solvers._cubic_columns(
        alg, params, linalg.identity(alg.dim)))


def _reference_killing2_structured(alg):
    """The splitting conditions on the Fraction vectors of ``analyze`` and
    the Fraction Gram matrix, one parameter at a time."""
    analysis = alg.analyze()
    step = analysis.step
    params = _reference_parameter_basis(alg, 1)
    vb = analysis.v_complement
    wb = analysis.center_basis if step <= 2 else analysis.commutator_chain[0]
    gw = [linalg.mat_vec(alg.gram(), w) for w in wb]
    per_param = []
    for s in params:
        sv = [linalg.mat_vec(s, v) for v in vb]
        sw = [linalg.mat_vec(s, w) for w in wb]
        block = []
        for a in range(len(vb)):
            for b in range(a, len(vb)):
                block.extend(linalg.vec_sub(alg.bracket(sv[a], vb[b]),
                                            alg.bracket(vb[a], sv[b])))
        for x, sx in zip(vb, sv):
            t = [alg.bracket(x, swc) for swc in sw]
            if step == 3:
                t = [linalg.vec_sub(tc, alg.bracket(sx, wc))
                     for tc, wc in zip(t, wb)]
            for c in range(len(wb)):
                for d in range(c, len(wb)):
                    block.append(linalg.inner(t[c], gw[d])
                                 + linalg.inner(t[d], gw[c]))
        per_param.append(block)
    if step == 3:
        per_param = [block + cubic for block, cubic
                     in zip(per_param, solvers._cubic_columns(alg, params, wb))]
    return _reference_solve(params, per_param)


_REFERENCES = ((skew_derivations, _reference_skew_derivations),
               (killing2_tensors, _reference_killing2_tensors),
               (killing2_structured, _reference_killing2_structured))


def _typed(basis):
    return [[[(type(x), x) for x in row] for row in m] for m in basis]


@st.composite
def _rational_metrics(draw, n):
    """A symmetric, strictly diagonally dominant metric with off-diagonal
    entries in (-1, 1) and diagonal entries n + k/d, 0 < k < d: positive
    definite, denominators up to 12, and no diagonal entry an integer."""
    entry = st.fractions(min_value=-1, max_value=1, max_denominator=12)
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d = draw(st.integers(2, 12))
        g[i][i] = n + Fraction(draw(st.integers(1, d - 1)), d)
        for j in range(i):
            x = draw(entry.filter(lambda x: abs(x) < 1))
            g[i][j] = g[j][i] = x
    return g


_REFERENCE_STRUCTURES = (h3(), free_23(), catalog.get("n6_10").descriptor,
                         catalog.get("n6_25").descriptor)


@st.composite
def _algebras_under_rational_metrics(draw):
    alg = draw(st.sampled_from(_REFERENCE_STRUCTURES))
    return LieAlgebraDescriptor(alg.dim, alg.structure,
                                metric=draw(_rational_metrics(alg.dim)))


@settings(max_examples=30, deadline=None)
@given(_algebras_under_rational_metrics())
def test_solvers_match_the_fraction_reference(alg):
    """The int parameter basis over a common scale gives the bases of the
    Fraction one, entry types included.  Integer metrics (the digest's)
    cannot tell a per-row scale of G from a uniform one; these can."""
    for solve, reference in _REFERENCES:
        assert _typed(solve(alg)) == _typed(reference(alg))


@pytest.mark.parametrize("name", ["h3", "n23free", "n6_10", "n6_25", "r+n2"])
def test_solvers_match_the_reference_without_a_metric(name):
    alg = catalog.get(name).descriptor
    for solve, reference in _REFERENCES:
        assert _typed(solve(alg)) == _typed(reference(alg))


@pytest.mark.parametrize("n", [1, 4])
def test_structured_solver_on_an_abelian_algebra(n):
    """The complement is empty, so no condition remains: the full space of
    symmetric matrices."""
    alg = _abelian(n)
    out = killing2_structured(alg)
    assert len(out) == n * (n + 1) // 2
    assert _typed(out) == _typed(_reference_killing2_structured(alg))
    assert out == killing2_tensors(alg)


def test_structured_solver_rejects_step_four():
    alg = LieAlgebraDescriptor(5, {(1, 2): {3: 1}, (1, 3): {4: 1},
                                   (1, 4): {5: 1}})
    assert alg.analyze().step == 4
    with pytest.raises(ValueError) as err:
        killing2_structured(alg)
    assert str(err.value) == "structured conditions implemented for step <= 3"


def test_killing_tensors_are_integrals():
    for alg in _plain_and_metric():
        eng = PoissonEngine(alg)
        for s in killing2_tensors(alg):
            assert eng.is_first_integral(Quadratic(alg, s)).ok


def test_identity_always_killing():
    for alg in (h3(), free_23(), _abelian(4)):
        n = alg.dim
        ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert in_span(killing2_tensors(alg), ident)


def test_structured_solver_spans_same_space():
    for alg in _plain_and_metric():
        full = killing2_tensors(alg)
        structured = killing2_structured(alg)
        assert len(full) == len(structured)
        for s in structured:
            assert in_span(full, s)
        for s in full:
            assert in_span(structured, s)


@pytest.mark.parametrize("solve", [skew_derivations, killing2_tensors])
def test_symmetry_space_solved_once_per_descriptor(solve, monkeypatch):
    solves = []
    inner = solvers._solve_in_parameter_space
    monkeypatch.setattr(solvers, "_solve_in_parameter_space",
                        lambda *a: solves.append(1) or inner(*a))
    alg = h3()
    first = solve(alg)
    expected = [[list(row) for row in m] for m in first]
    first[0][0][0] = Fraction(99)
    first[0].append([])
    first.append(first[0])
    assert solve(alg) == expected
    assert len(solves) == 1
    other = solve(h3([[2, 1, 0], [1, 2, 1], [0, 1, 2]]))
    assert len(solves) == 2
    assert other != expected


def test_independence_exact_full_rank():
    alg = h3()
    fs = [Linear(alg, [Fraction(0), Fraction(0), Fraction(1)]),
          Energy(alg),
          RightInvariant(alg, [Fraction(1), Fraction(0), Fraction(0)])]
    rep = independence_scan(alg, fs, nsamples=40, seed=3, exact=True)
    assert rep.target_rank == 3
    assert rep.accepted == 40
    assert rep.fraction == 1.0


def test_independence_float_path():
    alg = h3()
    fs = [Linear(alg, [Fraction(0), Fraction(0), Fraction(1)]),
          Energy(alg),
          RightInvariant(alg, [Fraction(1), Fraction(0), Fraction(0)])]
    rep = independence_scan(alg, fs, nsamples=100, seed=5)
    assert rep.fraction >= MIN_FULL_RANK_FRACTION


def test_dependent_family_never_full_rank():
    alg = h3()
    z = [Fraction(0), Fraction(0), Fraction(1)]
    z2 = [Fraction(0), Fraction(0), Fraction(2)]
    rep = independence_scan(alg, [Linear(alg, z), Linear(alg, z2)],
                            nsamples=30, seed=1, exact=True)
    assert rep.target_rank == 2
    assert rep.full_rank == 0
    assert rep.fraction == 0.0


def test_predicate_filters_samples():
    alg = h3()
    fs = [Energy(alg)]
    hits = []

    def pred(w, y):
        hits.append(1)
        return float(y[0]) > 0

    rep = independence_scan(alg, fs, predicate=pred, nsamples=60, seed=2)
    # rejected draws are replaced, so the accepted count always reaches nsamples
    assert rep.accepted == 60
    assert rep.accepted == rep.full_rank  # energy alone is rank 1 off its zeros
    assert len(hits) > 60  # some draws were filtered out and redrawn


def test_scan_that_accepts_nothing_raises():
    # the denominator quot(E / E) = exp(-1) sin(2 pi) is below den_min
    # everywhere, so no draw is ever accepted
    alg = h3()
    nested = parse_integral(alg, "quot(E / quot(E / E))")
    with pytest.raises(NoSampleAccepted, match="1000 draws"):
        independence_scan(alg, [nested], nsamples=5)


def test_sample_points_stops_at_the_draw_budget():
    draws = []

    def first_only(w, y):
        draws.append((w, y))
        return "hit" if len(draws) == 1 else None

    got = list(solvers.sample_points(h3(), 3, 0, first_only))
    assert got == ["hit"]
    assert len(draws) == 3 * solvers.DRAWS_PER_SAMPLE
    assert all(len(w) == len(y) == 3 for w, y in draws)


def test_exact_scan_refuses_a_quotient_before_any_draw():
    entry = catalog.get("h3")
    alg = entry.descriptor
    quot = entry.parse("quot(right:X1 / lin:Z)")

    def pred(w, y):
        raise AssertionError("a sample was drawn")

    with pytest.raises(NonPolynomialVariant, match="not polynomial"):
        independence_scan(alg, [Energy(alg), quot], predicate=pred,
                          nsamples=3, exact=True)


def test_exact_scan_sees_the_float_draws_rounded_to_32nds():
    alg = h3()
    seen = []

    def record(w, y):
        seen.append(w + y)
        return True

    rep = independence_scan(alg, [Energy(alg)], predicate=record, nsamples=4,
                            seed=7, exact=True)
    assert (rep.accepted, rep.full_rank, len(seen)) == (4, 4, 4)
    rng = np.random.default_rng(7)
    for point in seen:
        draw = rng.uniform(-2.0, 2.0, 6)
        assert len(point) == 6
        for x, f in zip(point, draw):
            assert isinstance(x, Fraction) and 32 % x.denominator == 0
            assert -2 <= x <= 2 and abs(x - Fraction(f)) <= Fraction(1, 64)
            assert x == Fraction(round(f * 32), 32)
