"""Candidate first integrals of the geodesic flow.

Every integral is bound to an algebra at construction.  A polynomial
integral has two exact expansions in the 2n variables (w, y): its value
``as_polynomial`` and its left-trivialized gradient ``gradient_polys``
(U, V), V = G^{-1} grad_y f and U = G^{-1} Psi(ad w)^T grad_w f.  The
numeric ``value`` and ``gradient`` at a point evaluate these expansions
through ``ratpoly.Evaluator``; only the quotient-induced functions, which
are not polynomial, keep their own chain rule and yield, lazily and
innermost first, the ``denominators`` their value divides by.

Energy, Linear and Quadratic write their value polynomials directly, in
one ``ratpoly._canonical`` call: the integer numerators of (1/2) y . G S y
or y . G x over one denominator, Energy being S = I, with the terms in
the order ``render`` lists them.  The gradients are the partials of the
value, as for every polynomial integral.

The integrals of one derivation matrix share, per descriptor and keyed by
the exact matrix, ``functools.lru_cache`` memos of its
``validate_derivation`` check, value polynomial and gradient: a repeated
D neither runs the Phi(ad w) series again nor repeats the product-rule
check, and as a memo stores no exception, a non-derivation raises at
every construction.  Each memo keeps the ``DERIVATION_TABLE_SIZE`` most
recently used matrices, because a caller may build integrals of ever new
matrices (a scan over a family of D, the commutators of a momentum-map
check) and the descriptor lives as long as its catalog entry.

Constructors validate what can be validated: a quadratic form must be
symmetric for the metric, a derivation must actually satisfy the product
rule, written as linear equations by ``derivation_rows``, and be skew for
the metric.  ``check=False`` on DerivationIntegral skips that check, for
defective reference data that is still to be evaluated and reported
against, and for solved derivations, which are derivations already.
"""

import functools
import math
from fractions import Fraction
from itertools import accumulate
from math import lcm
from types import SimpleNamespace

import numpy as np

from . import group, linalg
from .algebra import StepMismatch, per_descriptor
from .linalg import frac
from .ratpoly import Evaluator, RationalPolynomial, _canonical

# the deepest nesting a spec may have; far deeper ones exhaust the recursion
MAX_SPEC_DEPTH = 100
# the most derivation matrices each memo of one descriptor keeps
DERIVATION_TABLE_SIZE = 64


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

@per_descriptor
def _w_vec(alg):
    """The symbolic w1..wn, once per descriptor; a tuple, as it is shared."""
    nv = 2 * alg.dim
    return tuple(RationalPolynomial.variable(nv, i) for i in range(alg.dim))


@per_descriptor
def _y_vec(alg):
    """The symbolic y1..yn, once per descriptor; a tuple, as it is shared."""
    nv = 2 * alg.dim
    return tuple(RationalPolynomial.variable(nv, alg.dim + i)
                 for i in range(alg.dim))


def _y_form(alg, coeffs):
    """The form sum c y_i y_j ... over {(i, j, ...): c} (0-based i, c
    rational), its terms in the order of coeffs, in one canonical call."""
    n = alg.dim
    den = lcm(*(c.denominator for c in coeffs.values()))
    nums = {}
    for indices, c in coeffs.items():
        if c:
            exps = [0] * (2 * n)
            for i in indices:
                exps[n + i] += 1
            nums[tuple(exps)] = c.numerator * (den // c.denominator)
    return _canonical(2 * n, nums, den)


def _linear_form(alg, x):
    """y . G x: y_i for ascending i, with coefficients G x."""
    gx = x if alg.metric is None else linalg.mat_vec(alg.metric, x)
    return _y_form(alg, {(i,): c for i, c in enumerate(gx)})


def _quadratic_form(alg, gs):
    """(1/2) y . G S y from gs = G S (symmetric): y_a y_b for a <= b in
    ascending (a, b), the order of ``render``."""
    n = alg.dim
    return _y_form(alg, {(a, b): Fraction(gs[a][b], 1 + (a == b))
                         for a in range(n) for b in range(a, n)})


@per_descriptor
def _psi_columns(alg):
    """Psi(ad w) e_i for symbolic w (column i of Psi), once per descriptor."""
    w = _w_vec(alg)
    return [group.ad_series(alg, w, group.psi_coeff, e)
            for e in linalg.identity(alg.dim)]


def _gradient(alg, fp):
    """(U, V) of a value polynomial fp from its partial derivatives."""
    n = alg.dim
    grad_w = [fp.partial(i) for i in range(n)]
    grad_y = [fp.partial(n + i) for i in range(n)]
    if any(grad_w):  # U_i = <Psi e_i, grad_w f>
        u = [linalg.inner(col, grad_w) for col in _psi_columns(alg)]
    else:  # Energy, Linear and Quadratic: U = 0, no Psi sums
        u = [RationalPolynomial(2 * n)] * n
    if alg.metric is not None:
        ginv = alg.gram_inverse()
        u, grad_y = linalg.mat_vec(ginv, u), linalg.mat_vec(ginv, grad_y)
    return u, grad_y


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

    def denominators(self, point):
        """Lazily, innermost first, what the value at a point divides by."""
        return iter(())

    def as_polynomial(self):
        if self._poly is None:
            self._poly = self._expand()
        return self._poly

    def gradient_polys(self):
        """Exact (U, V) of the value polynomial: two lists of polynomials."""
        if self._grad is None:
            self._grad = self._gradient()
        return self._grad

    def _gradient(self):
        return _gradient(self.alg, self.as_polynomial())

    def _expand(self):
        raise NotImplementedError

    def spec_string(self):
        return self.label if self.label is not None else self._default_label()

    def __repr__(self):
        return "<%s %s>" % (type(self).__name__, self.spec_string())


class Energy(FirstIntegral):
    """E = (1/2) <Y, Y>, the Hamiltonian itself."""

    def _expand(self):
        return _quadratic_form(self.alg, self.alg.gram())

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
        return _linear_form(self.alg, self.x)

    def _default_label(self):
        return "lin:%s" % _vector_label(self.x)


class Quadratic(FirstIntegral):
    """g_S = (1/2) <Y, S Y> for a metric-symmetric operator S."""

    def __init__(self, alg, s, label=None):
        super().__init__(alg, label)
        self.s = [[frac(c) for c in row] for row in s]
        self._gs = _metric_times(alg, self.s)
        if len(self._gs) != alg.dim or linalg.transpose(self._gs) != self._gs:
            raise ValueError("quadratic operator is not symmetric for the metric")

    def _expand(self):
        return _quadratic_form(self.alg, self._gs)

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


@per_descriptor
def _derivations(alg):
    """The check, value and gradient memos of the descriptor's derivation
    integrals, each keyed by the matrix as a tuple of row tuples."""
    memo = functools.lru_cache(DERIVATION_TABLE_SIZE)

    @memo
    def value(d):
        w = _w_vec(alg)
        b = group.ad_series(alg, w, group.phi_coeff, linalg.mat_vec(d, w))
        return alg.inner(b, _y_vec(alg))

    # validate_derivation is looked up by name at each call, so that a
    # rebinding of the module attribute (the benchmark tracer) sees it
    return SimpleNamespace(check=memo(lambda d: validate_derivation(alg, d)),
                           value=value,
                           gradient=memo(lambda d: _gradient(alg, value(d))))


class DerivationIntegral(FirstIntegral):
    """f_{D*} = <dexp_w(D w), Y> for a metric-skew derivation D."""

    def __init__(self, alg, d, check=True, label=None):
        super().__init__(alg, label)
        self.d = [[frac(c) for c in row] for row in d]
        self._key = tuple(map(tuple, self.d))
        if check:
            _derivations(alg).check(self._key)

    def _expand(self):
        return _derivations(self.alg).value(self._key)

    def _gradient(self):
        u, v = _derivations(self.alg).gradient(self._key)
        return list(u), list(v)  # lists of this integral's own

    def _default_label(self):
        return "der:D"


@per_descriptor
def derivation_rows(alg):
    """The product rule D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j] as linear
    equations in vec(D), once per descriptor: one (pair, rows) per basis
    pair i < j (1-based, in order), row k listing the terms (p, c) on
    x_p = D_{p // n, p % n}: +c_ij^l on D_kl, -c_aj^k on D_ai and -c_ia^k
    on D_aj.  Applied to vec(D), row k is component k of the defect.  The
    c_ab^k are read off the basis brackets [e_a, e_b], a < b; the metric
    never enters."""
    n = alg.dim
    basis = linalg.identity(n)
    into = [[] for _ in range(n)]  # into[b]: (a, k, c_ab^k), all a != b
    for a in range(n):
        for b in range(a + 1, n):
            ab = [(k, c) for k, c in enumerate(alg.bracket(basis[a], basis[b]))
                  if c]
            into[b] += [(a, k, c) for k, c in ab]
            into[a] += [(b, k, -c) for k, c in ab]
    blocks = []
    for i in range(n):
        for j in range(i + 1, n):
            ij = [(l, c) for a, l, c in into[j] if a == i]
            rows = [[(k * n + l, c) for l, c in ij] for k in range(n)]
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


def _metric_times(alg, m):
    """G m, which is m itself when the metric is the identity."""
    return m if alg.metric is None else linalg.mat_mul(alg.metric, m)


def is_metric_skew(alg, m):
    """True when G m is antisymmetric, i.e. m is skew for the metric."""
    gm = _metric_times(alg, m)
    return all(gm[i][j] == -gm[j][i]
               for i in range(len(gm)) for j in range(i, len(gm)))


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
        self._coords = linalg.inverse(
            linalg.transpose(self.v_basis + self.z_basis))
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
        if isinstance(point[0], np.ndarray):
            num, den = self.num.value(point), self.den.value(point)
            return np.exp(-1.0 / den ** 2) * np.sin(2.0 * np.pi * num / den)
        d = float(self.den.value(point))
        q = float(self.num.value(point)) / d
        return math.exp(-1.0 / d ** 2) * math.sin(2 * math.pi * q)

    def denominators(self, point):
        yield from self.num.denominators(point)
        yield from self.den.denominators(point)
        yield self.den.value(point)

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

def _index(digits, bound):
    """int(digits) for a plain decimal (ASCII digits, no sign, space or
    leading zero) up to ``bound``, else None; longer strings go unread."""
    plain = (digits.isascii() and digits.isdigit()
             and len(digits) <= len(str(bound)) and digits == str(int(digits)))
    return int(digits) if plain and int(digits) <= bound else None


def basis_vector(alg, ref, names=None):
    """Resolve 'e4' or a registered alias to a basis coefficient vector."""
    idx = (names or {}).get(ref)
    if idx is None and ref.startswith("e"):
        idx = _index(ref[1:], alg.dim)
    if idx is None or not (1 <= idx <= alg.dim):
        raise ValueError("unknown basis reference %r" % ref)
    return [Fraction(int(k == idx)) for k in range(1, alg.dim + 1)]


def parse_integral(alg, text, names=None, quad_refs=None, der_refs=None):
    """Build an integral from its compact string form.

    Grammar: ``E``, ``lin:e4``, ``right:e2``, ``quad:NAME``, ``der:NAME``,
    ``butler:1``, ``quot(SPEC / SPEC)``.  An index is a plain decimal up
    to the dimension; by Cayley-Hamilton on j(Z)^2, Butler members beyond
    half the complement's dimension add nothing.  NAME references resolve
    through the optional quad_refs / der_refs dictionaries of matrices.
    A ``der:`` matrix is not validated, so a stored matrix that is not a
    derivation still parses and its bracket checks show the defect.
    """
    text = text.strip()
    depth = list(accumulate((c == "(") - (c == ")") for c in text))
    if max(depth, default=0) > MAX_SPEC_DEPTH:
        raise ValueError("integral spec nests deeper than %d levels"
                         % MAX_SPEC_DEPTH)
    if text == "E":
        return Energy(alg, label="E")
    if text.startswith("quot(") and text.endswith(")"):
        # the top-level " / ": the first one just inside "quot("
        pos = next((p for p in range(5, len(text) - 3)
                    if depth[p] == 1 and text[p:p + 3] == " / "), None)
        if pos is None:
            raise ValueError("malformed quotient spec %r" % text)
        num = parse_integral(alg, text[5:pos], names, quad_refs, der_refs)
        den = parse_integral(alg, text[pos + 3:-1], names, quad_refs, der_refs)
        return QuotientInduced(num, den, label=text)
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
        index = _index(ref, alg.dim)
        if index is None:
            raise ValueError("Butler index %r is not a decimal from 0 to %d"
                             % (ref, alg.dim))
        return Butler(alg, index, label=text)
    raise ValueError("unknown integral kind %r" % head)
