"""Nilpotent Lie algebras: structure constants, metrics, derived data.

A descriptor stores the bracket table relative to a fixed basis e1..en
(1-based in files and the CLI) together with an optional inner product.
The Jacobi identity is checked at construction; nilpotency is checked by
``analyze``, which also produces the descending central series, the
center, and the metric complement used by the 2- and 3-step splittings.
"""

import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .linalg import frac, plain


class JacobiViolation(ValueError):
    """The bracket table fails the Jacobi identity on some basis triple."""

    def __init__(self, triple, defect):
        self.triple = triple
        self.defect = defect
        super().__init__(
            "Jacobi identity fails on basis triple (e%d, e%d, e%d): defect %s"
            % (triple[0], triple[1], triple[2], defect))


class NotNilpotent(ValueError):
    """The descending central series does not terminate."""


class StepMismatch(ValueError):
    """An operation needs a different nilpotency step than the algebra has."""


class NotCentral(ValueError):
    """A vector expected to lie in the center does not."""


def per_descriptor(compute):
    """Compute ``compute(alg)`` once per descriptor, in ``alg._memo``."""
    @functools.wraps(compute)
    def memoized(alg):
        if compute not in alg._memo:
            alg._memo[compute] = compute(alg)
        return alg._memo[compute]
    return memoized


@dataclass
class AlgebraAnalysis:
    """Derived structural data; bases are lists of coefficient vectors."""

    step: int
    center_basis: list
    commutator_chain: list  # [basis(C^2), basis(C^3), ...], last one nonzero
    v_complement: list      # metric complement of the splitting subspace


class LieAlgebraDescriptor:
    """A finite-dimensional Lie algebra given by structure constants.

    ``structure`` maps (i, j) with 1 <= i < j <= dim to {k: coefficient};
    storing both (i, j) and (j, i) is rejected.  ``metric`` defaults to
    the identity and must be symmetric with positive leading principal
    minors.
    """

    def __init__(self, dim, structure, metric=None, name="", params=None):
        self.dim = int(dim)
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        self.name = name
        self.params = dict(params) if params else {}
        self.structure = self._validate_structure(structure)
        # 0-based (i, j, [(k, c), ...]) in the order of ``structure``
        self._pairs = [(i - 1, j - 1, [(k - 1, c) for k, c in targets.items()])
                       for (i, j), targets in self.structure.items()]
        self.metric = self._validate_metric(metric)
        self._check_jacobi()
        self._memo = {}  # filled by ``per_descriptor``

    # -- validation -----------------------------------------------------

    def _validate_structure(self, structure):
        n = self.dim
        clean = {}
        for key, val in structure.items():
            i, j = int(key[0]), int(key[1])
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError("bracket index out of range: (%d, %d)" % (i, j))
            if i >= j:
                raise ValueError(
                    "store brackets with i < j only, got (%d, %d)" % (i, j))
            entry = {}
            for k, c in val.items():
                k = int(k)
                if not (1 <= k <= n):
                    raise ValueError("bracket target out of range: %d" % k)
                c = frac(c)
                if c != 0:
                    entry[k] = c
            if entry:
                clean[(i, j)] = entry
        return clean

    def _validate_metric(self, metric):
        if metric is None:
            return None
        n = self.dim
        g = [[frac(x) for x in row] for row in metric]
        if len(g) != n or any(len(row) != n for row in g):
            raise ValueError("metric must be %d x %d" % (n, n))
        for i in range(n):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError("metric must be symmetric")
        # Sylvester's criterion by one elimination without row swaps: while
        # the leading minors D_1..D_{k-1} are positive, pivot k is
        # D_k / D_{k-1}, so the first pivot <= 0 names the first minor <= 0
        rows = [list(row) for row in g]
        for k in range(n):
            pivot = rows[k][k]
            if pivot <= 0:
                raise ValueError("metric is not positive definite "
                                 "(leading minor %d)" % (k + 1))
            for i in range(k + 1, n):
                f = rows[i][k] / pivot
                if f:
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
        return g

    def _check_jacobi(self):
        """Raise on the first basis triple i < j < k, in lexicographic
        order, with a nonzero Jacobi sum.  A triple whose three pair
        brackets all vanish has a zero sum, so only triples containing a
        bracketed pair are tried."""
        n = self.dim
        basis = linalg.identity(n)
        triples = sorted({tuple(sorted((i, j, k))) for i, j in self.structure
                          for k in range(1, n + 1) if k != i and k != j})
        for i, j, k in triples:
            a, b, c = basis[i - 1], basis[j - 1], basis[k - 1]
            term1 = self.bracket(self.bracket(a, b), c)
            term2 = self.bracket(self.bracket(b, c), a)
            term3 = self.bracket(self.bracket(c, a), b)
            defect = linalg.vec_add(term1, linalg.vec_add(term2, term3))
            if not linalg.is_zero_vec(defect):
                raise JacobiViolation((i, j, k), defect)

    # -- basic operations ----------------------------------------------

    def bracket(self, u, v):
        """[u, v] for coefficient vectors over any ring the structure
        constants multiply into: Fractions, floats, polynomials or a mix.

        Zero entries are the zero of the inputs' ring, so the result is
        exact if the inputs are exact.  Only products of two nonzero
        factors are formed, added in the order of the full formula, so a
        float result (finite inputs) is bit for bit the formula's.
        """
        zero = 0 * u[0] + 0 * v[0]
        out = [zero] * self.dim
        for i, j, targets in self._pairs:
            ui, uj = u[i], u[j]
            if not (ui or uj):
                continue
            vi, vj = v[i], v[j]
            if ui and vj:
                c = ui * vj
                if uj and vi:
                    c = c - uj * vi
            elif uj and vi:
                c = -(uj * vi)
            else:
                continue
            if c:
                for k, coeff in targets:
                    out[k] = out[k] + coeff * c
        return out

    def ad(self, x):
        """Matrix of ad(x) = [x, .] in the fixed basis, read off the pair
        table: c_ij^k adds x_i c_ij^k to entry (k, j) and -x_j c_ij^k to
        entry (k, i).  Each entry sums its terms in the order ``bracket``
        sums column j of [x, e_j], so a float matrix is bit for bit the
        bracket's."""
        zero = 0 * x[0] + Fraction(0)
        out = [[zero] * self.dim for _ in range(self.dim)]
        for i, j, targets in self._pairs:
            xi, xj = x[i], x[j]
            for k, c in targets:
                if xi:
                    out[k][j] = out[k][j] + xi * c
                if xj:
                    out[k][i] = out[k][i] - xj * c
        return out

    def gram(self):
        return self.metric if self.metric is not None else linalg.identity(self.dim)

    @per_descriptor
    def gram_inverse(self):
        return (linalg.identity(self.dim) if self.metric is None
                else linalg.inverse(self.metric))

    def inner(self, u, v):
        return linalg.inner(u, v, self.metric)

    # -- structural analysis -------------------------------------------

    @per_descriptor
    def analyze(self):
        """Step, center, descending central series, and the splitting."""
        n = self.dim
        basis = linalg.identity(n)

        # center: z with [e_i, z] = 0 for all i, the common kernel of ad(e_i)
        center = linalg.nullspace([row for b in basis for row in self.ad(b)],
                                  ncols=n)

        # descending central series C^1 = g, C^{m+1} = [g, C^m]
        chain = []
        current = basis
        for _ in range(n + 1):
            produced = []
            for b in basis:
                for c in current:
                    v = self.bracket(b, c)
                    if not linalg.is_zero_vec(v):
                        produced.append(v)
            nxt = linalg.row_space_basis(produced)
            if not nxt:
                break
            if chain and nxt == chain[-1]:
                raise NotNilpotent(
                    "descending central series stabilizes at dimension %d" % len(nxt))
            chain.append(nxt)
            current = nxt
        else:
            raise NotNilpotent("descending central series does not terminate")
        step = len(chain) + 1

        split = center if step <= 2 else chain[0] if step == 3 else None
        if split is not None:
            gram = self.gram()
            rows = [linalg.mat_vec(gram, s) for s in split]
            comp = linalg.nullspace(rows, ncols=n) if rows else basis
            comp = linalg.gram_schmidt(comp, self.metric)
        else:
            comp = None

        return AlgebraAnalysis(step=step, center_basis=center,
                               commutator_chain=chain, v_complement=comp)

    def is_central(self, z):
        return all(linalg.is_zero_vec(row) for row in self.ad(z))

    def j_map(self, z):
        """Matrix of j(z) on the complement basis of a 2-step algebra.

        j(z) is defined by <j(z) v, w> = <z, [v, w]>, on the basis
        ``analyze().v_complement``.
        """
        analysis = self.analyze()
        if analysis.step != 2:
            raise StepMismatch("j-map needs a 2-step algebra, this one has step %d"
                               % analysis.step)
        if not self.is_central(z):
            raise NotCentral("vector %s is not central" % (z,))
        vb = analysis.v_complement
        m = len(vb)
        gv = [[self.inner(a, b) for b in vb] for a in vb]
        kmat = [[self.inner(z, self.bracket(vb[b], vb[a])) for b in range(m)]
                for a in range(m)]
        return linalg.mat_mul(linalg.inverse(gv), kmat)

    def __repr__(self):
        tag = self.name or "algebra"
        return "<LieAlgebraDescriptor %s dim=%d>" % (tag, self.dim)


# -- definition files ---------------------------------------------------

# largest dim of a definition file or a catalog name: at dim 24 (free
# step 2 on 6 generators, plus 3 abelian directions) the Killing-tensor
# solve takes about 18 s
MAX_FILE_DIM = 24


def _integer(field, x):
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return int(x if isinstance(x, int) else plain(x))
        except ValueError:
            pass
    raise ValueError("%s: expected an integer, got %r" % (field, x))


def _rational(field, x):
    if not isinstance(x, bool):
        try:
            return frac(x)
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    raise ValueError("%s: expected an exact rational (an integer or a "
                     "'p/q' string), got %r" % (field, x))


def _list(field, x):
    if not isinstance(x, (list, tuple)):
        raise ValueError("%s: expected a list, got %r" % (field, x))
    return x


def from_definition(data):
    """Build a descriptor from a definition dict (see to_definition).

    A malformed field raises ValueError naming the field.
    """
    if not isinstance(data, dict):
        raise ValueError("definition must be a mapping")
    for key in ("dim", "brackets"):
        if key not in data:
            raise ValueError("definition is missing %r" % key)
    structure = {}
    for item in _list("brackets", data["brackets"]):
        if not isinstance(item, (list, tuple)) or len(item) != 4:
            raise ValueError("bracket entries are [i, j, k, coeff], got %r" % (item,))
        i, j, k = (_integer("brackets", x) for x in item[:3])
        entry = structure.setdefault((i, j), {})
        entry[k] = entry.get(k, Fraction(0)) + _rational("brackets", item[3])
    metric = data.get("metric")
    if metric is not None:
        metric = [[_rational("metric", x) for x in _list("metric", row)]
                  for row in _list("metric", metric)]
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("params: expected a mapping, got %r" % (params,))
    return LieAlgebraDescriptor(
        dim=_integer("dim", data["dim"]), structure=structure, metric=metric,
        name=data.get("name", ""),
        params={key: _rational("params", val) for key, val in params.items()})


def to_definition(alg):
    """Serializable dict; rationals become 'p/q' strings."""
    brackets = []
    for (i, j) in sorted(alg.structure):
        for k in sorted(alg.structure[(i, j)]):
            brackets.append([i, j, k, str(alg.structure[(i, j)][k])])
    out = {"name": alg.name, "dim": alg.dim, "brackets": brackets}
    if alg.metric is not None:
        out["metric"] = [[str(x) for x in row] for row in alg.metric]
    if alg.params:
        out["params"] = {k: str(v) for k, v in alg.params.items()}
    return out


def load_algebra(path):
    """Read a definition file; its dim must not exceed MAX_FILE_DIM and its
    algebra must be nilpotent (``analyze`` raises NotNilpotent)."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("definition file nests too deeply") from None
    if isinstance(data, dict) and "dim" in data:
        dim = _integer("dim", data["dim"])
        if dim > MAX_FILE_DIM:
            raise ValueError("dim: %d exceeds the limit of %d for "
                             "definition files" % (dim, MAX_FILE_DIM))
    alg = from_definition(data)
    alg.analyze()
    return alg


def dump_algebra(alg, path):
    with open(path, "w") as fh:
        json.dump(to_definition(alg), fh, indent=2, sort_keys=True)
        fh.write("\n")
