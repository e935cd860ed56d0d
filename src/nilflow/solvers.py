"""Linear solvers for symmetry spaces and rank scans for independence.

The two symmetry spaces are computed exactly as nullspaces:

* metric-skew derivations: D = G^{-1} A with A antisymmetric, subject to
  the product rule on basis pairs;
* degree-2 Killing tensors: symmetric S with <Y, [S Y, Y]> identically
  zero, obtained by collecting the coefficients of the cubic.

``killing2_structured`` solves the same problem through the splitting
conditions of the 2- and 3-step normal forms, which gives an independent
route whose span must agree with the direct cubic computation.  It forms
its conditions from brackets of vectors and shares only the step-3 cubic
builder, ``_cubic_columns``, with ``killing2_tensors``.

The product rule is linear in D, so ``integrals.derivation_rows`` writes
it once per descriptor as equation rows over the entries of D, and
``skew_derivations`` applies them to each parameter matrix.  A returned
basis depends only on the parameter basis, the column order and the row
space of the equations, because the RREF of a matrix is determined by
its row space; so how the rows are assembled cannot change a result.

All three solvers work over one integer parameter basis:
``_parameter_basis`` gives L G^{-1} B as int matrices, with L > 0 the
lcm of the denominators of G^{-1}, and ``_solve_in_parameter_space``
divides the basis matrices it forms by L once (L is 1 without a metric).
``killing2_structured`` also takes the complement and ideal vectors as
coprime-int multiples (``linalg.integer_rows``) and G times one common
positive scale, so ``mat_vec``, ``inner`` and the products of vector
entries inside each bracket run on Python ints; only the structure
constants stay Fractions.  Neither scaling can change a basis.  Every equation is linear in
the parameter, so the common scale L multiplies the whole equation
matrix by L.  The conditions are bilinear in the vectors and linear in
G, so a vector scale or the common scale of G multiplies whole equation
rows by nonzero constants.  The row space, its unique RREF and every
returned basis stay the same.  A per-row scale of G would not: it
weights the two terms <t_c, G w_d> and <t_d, G w_c> of one equation
differently.

``skew_derivations`` and ``killing2_tensors`` depend only on the
descriptor, so each is solved once per descriptor and memoized on it, as
``analyze()`` is; every call returns fresh nested lists, so a caller that
mutates a basis cannot change what the next caller gets.

The checks that sample, the independence scan here and the lattice
invariance check in ``quotients``, draw their points through the one
generator ``sample_points``: one float stream per seed, one acceptance
callback per draw, one draw budget, and one denominator rule,
``denominators_clear``, over what each integral's ``denominators`` yields.
The exact scan expands each exact gradient before its first draw, which
a quotient-induced integral refuses, and rounds each draw to 1/32nds.
"""

import functools
from math import lcm

import numpy as np

from fractions import Fraction

from . import linalg
from .algebra import per_descriptor
from .integrals import derivation_defects
from .ratpoly import RationalPolynomial, coefficient_rows


DEFAULT_SAMPLES = 200
DRAWS_PER_SAMPLE = 1000
SINGULAR_THRESHOLD = 1e-10
DEN_MIN = 0.1
INDEPENDENCE_FRACTION = 0.99


class NoSampleAccepted(ValueError):
    """A scan rejected all of its first DRAWS_PER_SAMPLE draws, so it
    would test nothing."""


def sample_points(alg, nsamples, seed, accept):
    """Yield ``accept(w, y)`` at random phase-space points, skipping None.

    Points are uniform in [-2, 2]^{2n}, drawn from one ``default_rng(seed)``
    stream.  ``accept`` is called once per draw.  The generator stops
    after ``nsamples`` accepted draws (DEFAULT_SAMPLES when None) or
    DRAWS_PER_SAMPLE draws per sample, and raises NoSampleAccepted when
    the first DRAWS_PER_SAMPLE draws are all rejected.  A count below 1 raises
    ValueError: a scan over no samples would report a vacuous pass.
    """
    n = alg.dim
    count = DEFAULT_SAMPLES if nsamples is None else int(nsamples)
    if count < 1:
        raise ValueError("sample count must be at least 1, got %d" % count)
    rng = np.random.default_rng(seed)
    accepted = 0
    for draws in range(1, DRAWS_PER_SAMPLE * count + 1):
        pt = rng.uniform(-2.0, 2.0, 2 * n)
        out = accept(list(pt[:n]), list(pt[n:]))
        if out is not None:
            yield out
            accepted += 1
            if accepted == count:
                return
        elif not accepted and draws == DRAWS_PER_SAMPLE:
            raise NoSampleAccepted("no sample point accepted in %d draws"
                                   % draws)


def denominators_clear(integrals, points):
    """True unless an integral's ``denominators`` at one of the points
    include one below DEN_MIN in absolute value; the test stops at the
    first, so no denominator is evaluated that divides by a failed one."""
    return not any(abs(float(d)) < DEN_MIN for f in integrals
                   for p in points for d in f.denominators(p))


def _common_scale(mat):
    """(L, L * mat as ints), with L > 0 the lcm of mat's denominators."""
    scale = lcm(*[x.denominator for row in mat for x in row])
    return scale, [[x.numerator * (scale // x.denominator) for x in row]
                   for row in mat]


def _parameter_basis(alg, sign):
    """(L, [L G^{-1} B]) over B = E_ij + sign E_ji, i <= j, in int matrices,
    with L the lcm of the denominators of G^{-1}: the metric-skew
    matrices for sign -1, the metric-symmetric ones for sign +1."""
    n = alg.dim
    scale, ginv = _common_scale(alg.gram_inverse())
    out = []
    for i in range(n):
        for j in range(i if sign > 0 else i + 1, n):
            b = [[0] * n for _ in range(n)]
            b[i][j] = 1
            b[j][i] = sign
            out.append(linalg.mat_mul(ginv, b) if alg.metric is not None else b)
    return scale, out


def _solve_in_parameter_space(scale, basis, per_param):
    """Nullspace coordinates -> concrete matrices.

    ``scale`` and ``basis`` are ``_parameter_basis``'s L and matrices P_p,
    and ``per_param[p]`` holds P_p's coefficient in every equation, so
    the equation rows are its transpose.  A basis matrix is
    sum_p c_p P_p / L, with Fraction entries: the coordinates c_p are
    Fractions, so the sums are too.
    """
    if not basis:
        return []
    coeffs = linalg.nullspace(linalg.transpose(per_param), ncols=len(basis))
    n = len(basis[0])
    # sum_p c_p P_p: coordinate rows times the flattened P_p
    flat = linalg.mat_mul(coeffs, [sum(m, []) for m in basis])
    if scale != 1:
        flat = linalg.mat_scale(flat, Fraction(1, scale))
    return [[v[r * n:(r + 1) * n] for r in range(n)] for v in flat]


def _once_per_algebra(solve):
    """Memoize ``solve(alg)`` on the descriptor; return a copy each call."""
    solve_once = per_descriptor(solve)
    @functools.wraps(solve)
    def fresh(alg):
        return [[list(row) for row in m] for m in solve_once(alg)]
    return fresh


@_once_per_algebra
def skew_derivations(alg):
    """Basis of the space of metric-skew derivations."""
    scale, params = _parameter_basis(alg, -1)
    per_param = [[c for _, defect in derivation_defects(alg, d)
                  for c in defect] for d in params]
    return _solve_in_parameter_space(scale, params, per_param)


def _cubic_columns(alg, params, vectors):
    """Per parameter S, the coefficients of <X, [S X, X]> over X in
    span(vectors), listed in one monomial order shared by all S."""
    nv = len(vectors)  # polynomial in the span coordinates
    coords = [RationalPolynomial.variable(nv, i) for i in range(nv)]
    x = linalg.mat_vec(linalg.transpose(vectors), coords)
    return coefficient_rows([alg.inner(x, alg.bracket(linalg.mat_vec(s, x), x))
                             for s in params])


@_once_per_algebra
def killing2_tensors(alg):
    """Basis of symmetric S with <Y, [S Y, Y]> identically zero."""
    scale, params = _parameter_basis(alg, 1)
    return _solve_in_parameter_space(
        scale, params, _cubic_columns(alg, params, linalg.identity(alg.dim)))


def killing2_structured(alg):
    """Same space through the splitting conditions of steps 1-3."""
    analysis = alg.analyze()
    step = analysis.step
    if step > 3:
        raise ValueError("structured conditions implemented for step <= 3")
    n = alg.dim
    scale, params = _parameter_basis(alg, 1)
    # the conditions are bilinear in the vectors and linear in G, so
    # coprime-int vectors and one common scale of G only rescale equation
    # rows; for step 1 the complement vb is empty, so no condition remains
    vb = linalg.integer_rows(analysis.v_complement, n)
    wb = linalg.integer_rows(analysis.center_basis if step <= 2
                             else analysis.commutator_chain[0], n)
    gram = _common_scale(alg.gram())[1]
    gw = [linalg.mat_vec(gram, w) for w in wb]  # <t, w> = t . (G w)

    per_param = []
    for s in params:
        # v, w and the brackets t below are mostly zero: mat_vec and inner
        # skip the products with their zero entries
        sv = [linalg.mat_vec(s, v) for v in vb]
        sw = [linalg.mat_vec(s, w) for w in wb]
        block = []
        # (i) [S X, X'] = [X, S X'] on the complement, diagonal included
        # (at a == b the defect is 2 [S v_a, v_a])
        for a in range(len(vb)):
            for b in range(a, len(vb)):
                block.extend(linalg.vec_sub(alg.bracket(sv[a], vb[b]),
                                            alg.bracket(vb[a], sv[b])))
        # (ii) the induced operator on the distinguished ideal is skew:
        # <t_c, w_d> + <t_d, w_c> = 0 with t_c = [x, S w_c] - [S x, w_c]
        # (the second term vanishes for step 2, where w_c is central)
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
    # (iii) for step 3: the cubic restricted to the distinguished ideal
    if step == 3:
        per_param = [block + cubic for block, cubic
                     in zip(per_param, _cubic_columns(alg, params, wb))]
    return _solve_in_parameter_space(scale, params, per_param)


def killing2_same_span(alg):
    """Whether both solvers agree, or None above step 3."""
    if alg.analyze().step > 3:
        return None
    direct = [sum(m, []) for m in killing2_tensors(alg)]
    struct = [sum(m, []) for m in killing2_structured(alg)]
    return linalg.span_equal(direct, struct)


# -- independence scans -------------------------------------------------

class ScanReport:
    def __init__(self, accepted, full_rank, target_rank):
        self.accepted = accepted
        self.full_rank = full_rank
        self.target_rank = target_rank

    @property
    def fraction(self):
        return self.full_rank / self.accepted if self.accepted else 0.0

    @property
    def ok(self):
        """Full rank on INDEPENDENCE_FRACTION of some accepted draws."""
        return self.accepted > 0 and self.fraction >= INDEPENDENCE_FRACTION

    def __repr__(self):
        return ("<ScanReport %d/%d full rank (%d)>"
                % (self.full_rank, self.accepted, self.target_rank))


def independence_scan(alg, integrals, predicate=None, nsamples=None, seed=0,
                      exact=False):
    """Rank of the stacked gradients at the points ``sample_points`` accepts.

    A draw is accepted when ``predicate`` holds there and every quotient
    denominator clears DEN_MIN.  Float path: numpy singular values with
    the relative cutoff SINGULAR_THRESHOLD.  Exact path: each draw rounded
    to a multiple of 1/32 before ``predicate`` sees it, and exact row
    reduction, so the rank statement carries no floating error; it
    expands every integral's exact gradient before any sample is drawn,
    so a quotient-induced one raises NonPolynomialVariant there.
    """
    if exact:  # NonPolynomialVariant for a quotient-induced integral
        for f in integrals:
            f.gradient_polys()

    def rank_at(w, y):
        if exact:  # the float draw rounded to a multiple of 1/32
            w, y = ([Fraction(int(round(x * 32)), 32) for x in v]
                    for v in (w, y))
        if predicate is not None and not predicate(w, y):
            return None
        if not denominators_clear(integrals, [(w, y)]):
            return None
        rows = [u + v for u, v in (f.gradient((w, y)) for f in integrals)]
        if exact:
            return linalg.rank(rows)
        mat = np.array([[float(x) for x in row] for row in rows])
        sv = np.linalg.svd(mat, compute_uv=False)
        return int(np.sum(sv > SINGULAR_THRESHOLD * sv[0])) if sv[0] > 0 else 0

    target = len(integrals)
    ranks = list(sample_points(alg, nsamples, seed, rank_at))
    return ScanReport(len(ranks), ranks.count(target), target)
