"""Candidate first integrals of the geodesic flow.

Every integral is bound to an algebra at construction.  A polynomial
integral has two exact expansions in the 2n variables (w, y): its value
``as_polynomial`` and its left-trivialized gradient ``gradient_polys``
(U, V), V = G^{-1} grad_y f and U = G^{-1} Psi(ad w)^T grad_w f.  The
numeric ``value`` and ``gradient`` at a point evaluate these expansions
through ``ratpoly.Evaluator``; only the quotient-induced functions, which
are not polynomial, keep their own chain rule.

Constructors validate what can be validated: a quadratic form must be
symmetric for the metric, a derivation must actually satisfy the product
rule, written as linear equations by ``derivation_rows``, and be skew for
the metric.  ``check=False`` on DerivationIntegral skips that check, for
defective reference data that is still to be evaluated and reported
against, and for solved derivations, which are derivations already.
"""

import math
from fractions import Fraction
from itertools import accumulate

from . import group, linalg
from .algebra import StepMismatch, per_descriptor
from .linalg import frac
from .ratpoly import Evaluator, RationalPolynomial

# the deepest nesting a spec may have; far deeper ones exhaust the recursion
MAX_SPEC_DEPTH = 100


class NonPolynomialVariant(ValueError):
    """The integral has no polynomial expansion in (w, y)."""


class NotADerivation(ValueError):
    def __init__(self, pair, defect):
        self.pair = pair
        self.defect = defect
        super().__init__(
            "matrix fails the derivation identity on basis pair (e%d, e%d): "
            "defect %s" % (pair[0], pair[1], defect))


class NotGramSkew(ValueError):
    """The matrix is not skew-adjoint for the metric."""


def _coordinates(point):
    """w1..wn, y1..yn of a (w, y) pair."""
    w, y = point
    return list(w) + list(y)


def _vector_label(x):
    hits = [i for i, c in enumerate(x) if c != 0]
    if len(hits) == 1 and x[hits[0]] == 1:
        return "e%d" % (hits[0] + 1)
    return "[" + ",".join(str(c) for c in x) + "]"


# -- polynomial helpers -------------------------------------------------

def _w_vec(alg):
    nv = 2 * alg.dim
    return [RationalPolynomial.variable(nv, i) for i in range(alg.dim)]


def _y_vec(alg):
    nv = 2 * alg.dim
    return [RationalPolynomial.variable(nv, alg.dim + i) for i in range(alg.dim)]


@per_descriptor
def _psi_columns(alg):
    """Psi(ad w) e_i for symbolic w (column i of Psi), once per descriptor."""
    w = _w_vec(alg)
    return [group.ad_series(alg, w, group.psi_coeff, e)
            for e in linalg.identity(alg.dim)]


# -- the integral family ------------------------------------------------

class FirstIntegral:
    """Base class; subclasses define ``_expand`` and ``_default_label``."""

    def __init__(self, alg, label=None):
        self.alg = alg
        self.label = label
        self._poly = None
        self._grad = None
        self._value_at = None
        self._gradient_at = None

    def value(self, point):
        """f at a point; see ``Evaluator`` for exact, float and array points."""
        if self._value_at is None:
            self._value_at = Evaluator([self.as_polynomial()])
        return self._value_at(_coordinates(point))[0]

    def gradient(self, point):
        """(U, V) at a point, the values of ``gradient_polys``."""
        if self._gradient_at is None:
            u, v = self.gradient_polys()
            self._gradient_at = Evaluator(u + v)
        uv = self._gradient_at(_coordinates(point))
        return uv[:self.alg.dim], uv[self.alg.dim:]

    def as_polynomial(self):
        if self._poly is None:
            self._poly = self._expand()
        return self._poly

    def gradient_polys(self):
        """Exact (U, V) of the value polynomial: two lists of polynomials."""
        if self._grad is None:
            alg, fp, n = self.alg, self.as_polynomial(), self.alg.dim
            grad_w = [fp.partial(i) for i in range(n)]
            grad_y = [fp.partial(n + i) for i in range(n)]
            # U_i = <Psi e_i, grad_w f>; most integrals (Energy, Linear,
            # Quadratic) have grad_w f = 0, and inner skips zero factors
            u = [linalg.inner(col, grad_w) for col in _psi_columns(alg)]
            if alg.metric is not None:
                ginv = alg.gram_inverse()
                u, grad_y = linalg.mat_vec(ginv, u), linalg.mat_vec(ginv, grad_y)
            self._grad = (u, grad_y)
        return self._grad

    def _expand(self):
        raise NotImplementedError

    def spec_string(self):
        return self.label if self.label is not None else self._default_label()

    def __repr__(self):
        return "<%s %s>" % (type(self).__name__, self.spec_string())


class Energy(FirstIntegral):
    """E = (1/2) <Y, Y>, the Hamiltonian itself."""

    def _expand(self):
        y = _y_vec(self.alg)
        return self.alg.inner(y, y) * Fraction(1, 2)

    def _default_label(self):
        return "E"


class Coordinate(FirstIntegral):
    """The phase-space coordinate x_i of (w1..wn, y1..yn), 0-based i."""

    def __init__(self, alg, index):
        super().__init__(alg, label="x%d" % index)
        self.index = index

    def _expand(self):
        return RationalPolynomial.variable(2 * self.alg.dim, self.index)


def _direction(alg, x):
    """x as a list of Fractions, of the algebra's dimension."""
    x = [frac(c) for c in x]
    if len(x) != alg.dim:
        raise ValueError("direction has length %d, algebra has dimension %d"
                         % (len(x), alg.dim))
    return x


class Linear(FirstIntegral):
    """f_X = <Y, X> for a fixed direction X (an integral when X is central)."""

    def __init__(self, alg, x, label=None):
        super().__init__(alg, label)
        self.x = _direction(alg, x)

    def _expand(self):
        return self.alg.inner(_y_vec(self.alg), self.x)

    def _default_label(self):
        return "lin:%s" % _vector_label(self.x)


class Quadratic(FirstIntegral):
    """g_S = (1/2) <Y, S Y> for a metric-symmetric operator S."""

    def __init__(self, alg, s, label=None):
        super().__init__(alg, label)
        self.s = [[frac(c) for c in row] for row in s]
        gs = linalg.mat_mul(alg.gram(), self.s)
        if linalg.transpose(gs) != gs:
            raise ValueError("quadratic operator is not symmetric for the metric")

    def _expand(self):
        y = _y_vec(self.alg)
        return self.alg.inner(y, linalg.mat_vec(self.s, y)) * Fraction(1, 2)

    def _default_label(self):
        return "quad:S"


class RightInvariant(FirstIntegral):
    """f_{X*} = <Ad(p^{-1}) X, Y>, the momentum of right translation."""

    def __init__(self, alg, x, label=None):
        super().__init__(alg, label)
        self.x = _direction(alg, x)

    def _expand(self):
        a = group.ad_series(self.alg, _w_vec(self.alg), group.exp_neg_coeff,
                            self.x)
        return self.alg.inner(a, _y_vec(self.alg))

    def _default_label(self):
        return "right:%s" % _vector_label(self.x)


class DerivationIntegral(FirstIntegral):
    """f_{D*} = <dexp_w(D w), Y> for a metric-skew derivation D."""

    def __init__(self, alg, d, check=True, label=None):
        super().__init__(alg, label)
        self.d = [[frac(c) for c in row] for row in d]
        if check:
            validate_derivation(alg, self.d)

    def _expand(self):
        w = _w_vec(self.alg)
        b = group.ad_series(self.alg, w, group.phi_coeff,
                            linalg.mat_vec(self.d, w))
        return self.alg.inner(b, _y_vec(self.alg))

    def _default_label(self):
        return "der:D"


@per_descriptor
def derivation_rows(alg):
    """The product rule D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j] as linear
    equations in vec(D), once per descriptor: one (pair, rows) per basis
    pair i < j (1-based, in order), row k listing the terms (p, c) on
    x_p = D_{p // n, p % n}: +c_ij^l on D_kl, -c_aj^k on D_ai and -c_ia^k
    on D_aj.  Applied to vec(D), row k is component k of the defect.  Only
    structure constants enter, never the metric."""
    n = alg.dim
    into = [[] for _ in range(n)]  # into[b]: (a, k, c_ab^k), all a != b
    for i, j, targets in alg._pairs:
        into[j] += [(i, k, c) for k, c in targets]
        into[i] += [(j, k, -c) for k, c in targets]
    blocks = []
    for i in range(n):
        for j in range(i + 1, n):
            ij = alg.structure.get((i + 1, j + 1), {}).items()
            rows = [[(k * n + l - 1, c) for l, c in ij] for k in range(n)]
            for a, k, c in into[j]:
                rows[k].append((a * n + i, -c))
            for a, k, c in into[i]:  # c_ia^k = -c_ai^k
                rows[k].append((a * n + j, c))
            blocks.append(((i + 1, j + 1), rows))
    return blocks


def derivation_defects(alg, d):
    """Yield (pair, D[e_i, e_j] - [D e_i, e_j] - [e_i, D e_j]) in pair
    order, the blocks of ``derivation_rows`` applied to vec(D)."""
    x = [c for row in d for c in row]
    zero = 0 * x[0]  # the zero of D's entries: int 0 for an int matrix
    for pair, block in derivation_rows(alg):
        yield pair, [sum([c * x[p] for p, c in row if x[p]], zero)
                     for row in block]


def is_metric_skew(alg, m):
    """True when G m is antisymmetric, i.e. m is skew for the metric."""
    gm = linalg.mat_mul(alg.gram(), m)
    return linalg.transpose(gm) == linalg.mat_scale(gm, Fraction(-1))


def validate_derivation(alg, d):
    """Raise unless d is a derivation that is skew for the metric."""
    for pair, defect in derivation_defects(alg, d):
        if not linalg.is_zero_vec(defect):
            raise NotADerivation(pair, defect)
    if not is_metric_skew(alg, d):
        raise NotGramSkew("matrix is not skew-adjoint for the metric")


class Butler(FirstIntegral):
    """g_i = <V, j(Z)^{2i} V> on a 2-step algebra, Y = V + Z split."""

    def __init__(self, alg, index, label=None):
        super().__init__(alg, label)
        self.index = int(index)
        if self.index < 0:
            raise ValueError("index must be >= 0")
        analysis = alg.analyze()
        if analysis.step != 2:
            raise StepMismatch(
                "this family needs a 2-step algebra, step is %d" % analysis.step)
        self.v_basis = analysis.v_complement
        self.z_basis = analysis.center_basis
        cols = self.v_basis + self.z_basis
        if len(cols) != alg.dim:
            raise ValueError("complement and center do not span")
        bmat = [[cols[j][i] for j in range(alg.dim)] for i in range(alg.dim)]
        self._coords = linalg.inverse(bmat)
        self.gv = [[alg.inner(a, b) for b in self.v_basis] for a in self.v_basis]
        self._j_parts = [alg.j_map(z) for z in self.z_basis]

    def _expand(self):
        coords = linalg.mat_vec(self._coords, _y_vec(self.alg))
        dv = len(self.v_basis)
        vc, zc = coords[:dv], coords[dv:]
        m = vc
        for _ in range(2 * self.index):
            # j(Z) m = sum_k z_k J_k m, with J_k = j(e_k) on the center basis
            parts = [linalg.mat_vec(part, m) for part in self._j_parts]
            m = [linalg.inner(zc, [jm[a] for jm in parts]) for a in range(dv)]
        return linalg.inner(vc, m, self.gv)

    def _default_label(self):
        return "butler:%d" % self.index


class QuotientInduced(FirstIntegral):
    """exp(-1/den^2) * sin(2 pi num / den), descending to lattice quotients."""

    def __init__(self, num, den, label=None):
        if num.alg is not den.alg:
            raise ValueError("numerator and denominator use different algebras")
        super().__init__(num.alg, label)
        self.num = num
        self.den = den

    def value(self, point):
        d = float(self.den.value(point))
        q = float(self.num.value(point)) / d
        return math.exp(-1.0 / d ** 2) * math.sin(2 * math.pi * q)

    def gradient(self, point):
        d = float(self.den.value(point))
        fn = float(self.num.value(point))
        un, vn = self.num.gradient(point)
        ud, vd = self.den.gradient(point)
        h = math.exp(-1.0 / d ** 2)
        hp = h * 2.0 / d ** 3
        s = math.sin(2 * math.pi * fn / d)
        c = math.cos(2 * math.pi * fn / d) * 2 * math.pi
        cn = h * c / d
        cd = hp * s - h * c * fn / d ** 2
        u = [cn * float(a) + cd * float(b) for a, b in zip(un, ud)]
        v = [cn * float(a) + cd * float(b) for a, b in zip(vn, vd)]
        return u, v

    def _expand(self):
        raise NonPolynomialVariant("quotient-induced functions are not polynomial")

    def _default_label(self):
        return "quot(%s / %s)" % (self.num.spec_string(), self.den.spec_string())


# -- the little spec-string grammar ------------------------------------

def basis_vector(alg, ref, names=None):
    """Resolve 'e4' or a registered alias to a basis coefficient vector."""
    idx = None
    if names and ref in names:
        idx = names[ref]
    elif ref.startswith("e"):
        try:
            idx = int(ref[1:])
        except ValueError:
            idx = None
    if idx is None or not (1 <= idx <= alg.dim):
        raise ValueError("unknown basis reference %r" % ref)
    return [Fraction(int(k == idx)) for k in range(1, alg.dim + 1)]


def parse_integral(alg, text, names=None, quad_refs=None, der_refs=None):
    """Build an integral from its compact string form.

    Grammar: ``E``, ``lin:e4``, ``right:e2``, ``quad:NAME``, ``der:NAME``,
    ``butler:1``, ``quot(SPEC / SPEC)``.  NAME references are resolved
    through the optional quad_refs / der_refs dictionaries of matrices.
    A ``der:`` matrix is not validated, so a stored matrix that is not a
    derivation still parses and its bracket checks show the defect.
    """
    text = text.strip()
    if max(accumulate((c == "(") - (c == ")") for c in text),
           default=0) > MAX_SPEC_DEPTH:
        raise ValueError("integral spec nests deeper than %d levels"
                         % MAX_SPEC_DEPTH)
    if text == "E":
        return Energy(alg, label="E")
    if text.startswith("quot(") and text.endswith(")"):
        inner_text = text[5:-1]
        depth = 0
        for pos in range(len(inner_text) - 2):
            ch = inner_text[pos]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif depth == 0 and inner_text[pos:pos + 3] == " / ":
                num = parse_integral(alg, inner_text[:pos], names, quad_refs, der_refs)
                den = parse_integral(alg, inner_text[pos + 3:], names, quad_refs, der_refs)
                return QuotientInduced(num, den, label=text)
        raise ValueError("malformed quotient spec %r" % text)
    if ":" not in text:
        raise ValueError("malformed integral spec %r" % text)
    head, ref = text.split(":", 1)
    if head == "lin":
        return Linear(alg, basis_vector(alg, ref, names), label=text)
    if head == "right":
        return RightInvariant(alg, basis_vector(alg, ref, names), label=text)
    if head == "quad":
        if not quad_refs or ref not in quad_refs:
            raise ValueError("unknown quadratic reference %r" % ref)
        return Quadratic(alg, quad_refs[ref], label=text)
    if head == "der":
        if not der_refs or ref not in der_refs:
            raise ValueError("unknown derivation reference %r" % ref)
        return DerivationIntegral(alg, der_refs[ref], check=False, label=text)
    if head == "butler":
        return Butler(alg, int(ref), label=text)
    raise ValueError("unknown integral kind %r" % head)
