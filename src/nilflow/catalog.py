"""Bundled reference algebras with their integral sets and fixtures.

Each entry carries: the descriptor, which names it, the claimed complete
set of first integrals (when one is claimed), a dense predicate for
independence scans, lattices, chart maps to the coordinates the group
law is usually displayed in, and an ``expected`` dict of independently
computed values that ``verify_entry`` re-derives and compares.  The
builders record the step, the center and the per-entry fixtures; the
dimensions of the metric-skew derivations and Killing 2-tensors of every
entry sit in the one table ``_RECORDED_DIMS``.  ``get`` is the one reader
of a name, ``[rK+]FAMILY[(q)]``; it builds a family from the one registry
``_FAMILIES`` and an extension from its cached base, and applies the
recorded dimensions before caching.  It refuses a name of dimension
above ``algebra.MAX_FILE_DIM`` before building it, and it caches the
listed entries only.

Some bundled constructions are known to be defective (a stored rotation
that is not actually a derivation, a set that is not involutive, a
reference expansion that disagrees with the computed one).  They are
kept as-is so the toolkit can demonstrate the failure; the entry notes
and ``expected`` record the computed truth.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction

from . import group, linalg
from .algebra import MAX_FILE_DIM, LieAlgebraDescriptor
from .integrals import Butler, _w_vec, _y_vec, parse_integral
from .poisson import PoissonEngine
from .quotients import Lattice, descent
from .ratpoly import RationalPolynomial
from .solvers import (independence_scan, killing2_same_span, killing2_tensors,
                      skew_derivations)


@dataclass
class DensePredicate:
    description: str
    fn: object

    def __call__(self, w, y):
        return bool(self.fn(w, y))


@dataclass
class ChartMaps:
    """Conversions between exponential and display coordinates; by
    default the display coordinates are the exponential ones."""

    coordinate_law: object
    to_exponential: object = tuple
    from_exponential: object = tuple


@dataclass
class CatalogEntry:
    descriptor: LieAlgebraDescriptor
    complete_set: list = None
    dense_predicate: DensePredicate = None
    lattices: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    chart_maps: ChartMaps = None
    notes: str = ""
    basis_aliases: dict = field(default_factory=dict)
    quad_refs: dict = field(default_factory=dict)
    der_refs: dict = field(default_factory=dict)
    quotient_functions: dict = field(default_factory=dict)

    @property
    def name(self):
        """An entry is named by its algebra."""
        return self.descriptor.name

    def parse(self, spec):
        return parse_integral(self.descriptor, spec, names=self.basis_aliases,
                              quad_refs=self.quad_refs, der_refs=self.der_refs)

    def match(self, poly):
        """The spec of the first candidate whose polynomial is ``poly``
        ("-spec" for ``-poly``), or None.  The right-invariant momenta come
        before the linear integrals and the set members, so a bracket
        landing in the center names the homomorphism image, not an equal
        central linear integral."""
        inv = {v: k for k, v in self.basis_aliases.items()}
        refs = [inv.get(k, "e%d" % k)
                for k in range(1, self.descriptor.dim + 1)]
        for cand in ([self.parse("right:" + r) for r in refs]
                     + [self.parse("lin:" + r) for r in refs]
                     + list(self.complete_set or [])):
            cp = cand.as_polynomial()
            if poly == cp:
                return cand.spec_string()
            if poly == -cp:
                return "-" + cand.spec_string()
        return None

    def engine(self):
        return PoissonEngine(self.descriptor)


def _rotation(n, i, j):
    """e_i -> e_j, e_j -> -e_i, zero elsewhere."""
    m = linalg.zeros(n, n)
    m[j - 1][i - 1] = Fraction(1)
    m[i - 1][j - 1] = Fraction(-1)
    return m


def _sym(n, entries):
    """Symmetric matrix from {(i, j): value} on 1-based upper pairs."""
    m = linalg.zeros(n, n)
    for (i, j), v in entries.items():
        m[i - 1][j - 1] = Fraction(v)
        m[j - 1][i - 1] = Fraction(v)
    return m


def _alg(name, dim, brackets, params=None):
    return LieAlgebraDescriptor(dim=dim, structure=brackets, name=name,
                                params=params)


def _specs(entry, specs):
    entry.complete_set = [entry.parse(s) for s in specs]
    return entry


# -- chart maps ----------------------------------------------------------

def _heisenberg_chart(npairs):
    half = Fraction(1, 2)

    def from_exp(c):
        z = c[-1] + half * sum(c[i] * c[npairs + i] for i in range(npairs))
        return tuple(c[:-1]) + (z,)

    def to_exp(c):
        z = c[-1] - half * sum(c[i] * c[npairs + i] for i in range(npairs))
        return tuple(c[:-1]) + (z,)

    def law(u, v):
        out = [a + b for a, b in zip(u[:-1], v[:-1])]
        z = u[-1] + v[-1] + sum(u[i] * v[npairs + i] for i in range(npairs))
        return tuple(out) + (z,)

    return ChartMaps(to_exponential=to_exp, from_exponential=from_exp,
                     coordinate_law=law)


def _n3_law(u, v):
    half = Fraction(1, 2)
    a = u[0] * v[1] - u[1] * v[0]
    b = u[0] * v[2] - u[2] * v[0]
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2],
            u[3] + v[3] + half * a, u[4] + v[4] + half * b)


def _n2_law(u, v):
    half, tw = Fraction(1, 2), Fraction(1, 12)
    a = u[0] * v[1] - u[1] * v[0]
    b = u[0] * v[2] - u[2] * v[0]
    return (u[0] + v[0], u[1] + v[1],
            u[2] + v[2] + half * a,
            u[3] + v[3] + half * b + tw * a * (u[0] - v[0]))


def _n1_law(u, v):
    half, tw = Fraction(1, 2), Fraction(1, 12)
    a = u[0] * v[1] - u[1] * v[0]
    c = u[0] * v[2] - u[2] * v[0] + u[1] * v[3] - u[3] * v[1]
    return (u[0] + v[0], u[1] + v[1],
            u[2] + v[2] + half * a,
            u[3] + v[3],
            u[4] + v[4] + half * c + tw * a * (u[0] - v[0]))


def _n23free_law(u, v):
    half, tw = Fraction(1, 2), Fraction(1, 12)
    a = u[0] * v[1] - u[1] * v[0]
    b = u[0] * v[2] - u[2] * v[0]
    c = u[1] * v[2] - u[2] * v[1]
    return (u[0] + v[0], u[1] + v[1],
            u[2] + v[2] + half * a,
            u[3] + v[3] + half * b + tw * a * (u[0] - v[0]),
            u[4] + v[4] + half * c + tw * a * (u[1] - v[1]))


# -- entry builders ------------------------------------------------------

def _entry_h3():
    alg = _alg("h3", 3, {(1, 2): {3: 1}})
    e = CatalogEntry(
        descriptor=alg,
        basis_aliases={"X1": 1, "Y1": 2, "Z": 3},
        dense_predicate=DensePredicate(
            "y3 != 0 and (y1 != 0 or y2 != 0)",
            lambda w, y: y[2] != 0 and (y[0] != 0 or y[1] != 0)),
        lattices={"Gamma_2": Lattice("Gamma_2", [(2, 0, 0), (0, 1, 0), (0, 0, 1)])},
        chart_maps=_heisenberg_chart(1),
        expected={"step": 2, "center_dim": 1},
        notes="The display coordinates are the upper-triangular matrix "
              "entries; generators of Gamma_r read the same in both charts.")
    _specs(e, ["lin:Z", "E", "right:X1"])
    e.quotient_functions = {"Gamma_2": [e.parse("quot(right:X1 / lin:Z)")]}
    return e


def _entry_heisenberg(npairs):
    dim = 2 * npairs + 1
    brackets = {(i, npairs + i): {dim: 1} for i in range(1, npairs + 1)}
    alg = _alg("h%d" % dim, dim, brackets)
    aliases = {}
    for i in range(1, npairs + 1):
        aliases["X%d" % i] = i
        aliases["Y%d" % i] = npairs + i
    aliases["Z"] = dim
    quad_refs = {}
    for i in range(1, npairs + 1):
        quad_refs["S%d" % i] = _sym(dim, {(i, i): 1, (npairs + i, npairs + i): 1})
    e = CatalogEntry(
        descriptor=alg, basis_aliases=aliases, quad_refs=quad_refs,
        chart_maps=_heisenberg_chart(npairs),
        expected={"step": 2, "center_dim": 1},
        notes="S_i is the identity on the i-th (X_i, Y_i) plane.")
    if npairs == 2:
        e.lattices = {"Gamma_1_1": Lattice(
            "Gamma_1_1", [tuple(x) for x in linalg.identity(5)])}
    specs = ["lin:Z"] + ["right:X%d" % i for i in range(1, npairs + 1)] \
        + ["quad:S%d" % i for i in range(1, npairs + 1)]
    return _specs(e, specs)


def _entry_n2():
    alg = _alg("n2", 4, {(1, 2): {3: 1}, (1, 3): {4: 1}})
    e = CatalogEntry(
        descriptor=alg,
        dense_predicate=DensePredicate("y1 != 0", lambda w, y: y[0] != 0),
        chart_maps=ChartMaps(_n2_law),
        expected={"step": 3, "center_dim": 1},
        notes="The coordinate law includes the (1/12) a (x1 - x1') term in "
              "the last slot; without it the displayed product is not "
              "associative.")
    return _specs(e, ["E", "right:e2", "right:e3", "right:e4"])


def _entry_n3():
    alg = _alg("n3", 5, {(1, 2): {4: 1}, (1, 3): {5: 1}})
    e = CatalogEntry(
        descriptor=alg,
        dense_predicate=DensePredicate("y1 != 0", lambda w, y: y[0] != 0),
        lattices={"Lambda_2": Lattice(
            "Lambda_2",
            [(2, 0, 0, 0, 0)] + [tuple(x) for x in linalg.identity(5)[1:]])},
        chart_maps=ChartMaps(_n3_law),
        expected={"step": 2, "center_dim": 2},
        notes="Closure of r Z x Z^4 under the product needs r even because "
              "of the half-integer commutator terms; the bundled lattice "
              "uses r = 2.")
    _specs(e, ["E", "lin:e4", "lin:e5", "right:e2", "right:e3"])
    e.quotient_functions = {"Lambda_2": [e.parse("quot(right:e2 / lin:e4)"),
                                         e.parse("quot(right:e3 / lin:e5)")]}
    return e


def _entry_n1():
    alg = _alg("n1", 5, {(1, 2): {3: 1}, (1, 3): {5: 1}, (2, 4): {5: 1}})
    e = CatalogEntry(
        descriptor=alg,
        der_refs={"D": _rotation(5, 1, 2)},
        dense_predicate=DensePredicate(
            "y5 != 0 and (w1 != 0 or w2 != 0)",
            lambda w, y: y[4] != 0 and (w[0] != 0 or w[1] != 0)),
        chart_maps=ChartMaps(_n1_law),
        expected={"step": 3, "center_dim": 1},
        notes="The stored rotation D fails the product rule on the pair "
              "(e2, e3), so der:D is not conserved and the set is not "
              "involutive; the computed skew-derivation space is trivial.")
    return _specs(e, ["E", "right:e3", "right:e4", "lin:e5", "der:D"])


def _entry_n23free():
    alg = _alg("n23free", 5, {(1, 2): {3: 1}, (1, 3): {4: 1}, (2, 3): {5: 1}})
    s = _sym(5, {(1, 5): 1, (2, 4): -1, (3, 3): 1})
    e = CatalogEntry(
        descriptor=alg, quad_refs={"S": s},
        dense_predicate=DensePredicate(
            "y4 != 0 and y2*y5 + y1*y4 != 0",
            lambda w, y: y[3] != 0 and y[1] * y[4] + y[0] * y[3] != 0),
        chart_maps=ChartMaps(_n23free_law),
        expected={"step": 3, "center_dim": 2},
        notes="Free 2-generator algebra of step 3.  The coordinate law "
              "carries the (1/12)-terms needed for associativity.")
    return _specs(e, ["E", "right:e3", "lin:e4", "lin:e5", "quad:S"])


def _entry_n6_10():
    alg = _alg("n6_10", 6, {(1, 2): {3: 1}, (1, 3): {6: 1}, (4, 5): {6: 1}})
    e = CatalogEntry(
        descriptor=alg,
        der_refs={"D": _rotation(6, 1, 4)},
        expected={"step": 3, "center_dim": 1},
        notes="The stored rotation of the (e1, e4) plane is not a "
              "derivation; the computed space is spanned by the rotation "
              "of the (e4, e5) plane, which is a genuine derivation but "
              "does not commute with right:e5.")
    return _specs(e, ["E", "der:D", "right:e2", "right:e3", "right:e5",
                      "right:e6"])


def _entry_n6_19(eps):
    eps = Fraction(eps)
    alg = _alg("n6_19(%s)" % eps, 6,
               {(1, 2): {4: 1}, (1, 3): {5: 1}, (2, 4): {6: 1},
                (3, 5): {6: eps}}, params={"eps": eps})
    e = CatalogEntry(
        descriptor=alg,
        expected={"step": 3, "center_dim": 2 if eps == 0 else 1},
        notes="")
    if eps == 0:
        e.der_refs = {"D": _rotation(6, 1, 2)}
        e.notes = ("The stored rotation D fails the product rule on "
                   "(e2, e3); der:D is not conserved.")
        return _specs(e, ["E", "right:e3", "right:e4", "right:e5",
                          "right:e6", "der:D"])
    e.quad_refs = {"S1": _sym(6, {(1, 6): eps, (4, 4): eps, (5, 5): 1})}
    e.notes = ("Every member is an integral but the set is not involutive: "
               "{right:e3, right:e5} equals eps * right:e6.  Replacing "
               "right:e3 by right:e1 gives an involutive alternative.")
    return _specs(e, ["E", "right:e3", "right:e4", "right:e5", "right:e6",
                      "quad:S1"])


def _entry_n6_20():
    alg = _alg("n6_20", 6, {(1, 2): {4: 1}, (1, 3): {5: 1}, (1, 5): {6: 1},
                            (2, 4): {6: 1}})
    e = CatalogEntry(
        descriptor=alg,
        der_refs={"D": _rotation(6, 1, 2)},
        expected={"step": 3, "center_dim": 1},
        notes="The stored rotation D is not a derivation (fails on "
              "(e1, e2) against the image in e4); der:D is not conserved.")
    return _specs(e, ["E", "der:D", "right:e3", "right:e4", "right:e5",
                      "right:e6"])


def _reference_g1(eps):
    """Quartic reference expansion kept with the n6_22 entries."""
    eps = Fraction(eps)
    nv = 12
    y = [RationalPolynomial.variable(nv, 6 + i) for i in range(6)]
    zz = y[4] * y[4] + y[5] * y[5]
    one_eps = 1 + eps
    poly = -1 * zz * (y[0] * y[0] + y[3] * y[3]
                      + one_eps * (y[1] * y[1] + y[2] * y[2]))
    poly = poly + 2 * one_eps * y[4] * y[5] * (y[0] * y[3] - y[1] * y[2])
    return poly


def _entry_n6_22(eps):
    eps = Fraction(eps)
    alg = _alg("n6_22(%s)" % eps, 6,
               {(1, 2): {5: 1}, (1, 3): {6: 1}, (3, 4): {5: 1},
                (2, 4): {6: eps}}, params={"eps": eps})
    e = CatalogEntry(
        descriptor=alg,
        expected={"step": 2, "center_dim": 2},
        notes="The stored quartic reference expansion disagrees with the "
              "computed butler:1 (coefficient of y2^2: computed "
              "-(y5^2 + eps^2 y6^2), reference -(1+eps)(y5^2 + y6^2)); "
              "the complete set uses the computed polynomial.")
    e.expected["reference_g1_expansion"] = _reference_g1(eps)
    return _specs(e, ["E", "butler:1", "right:e1", "right:e4", "lin:e5",
                      "lin:e6"])


def _entry_n6_23():
    alg = _alg("n6_23", 6, {(1, 2): {3: 1}, (1, 3): {5: 1}, (1, 4): {6: 1},
                            (2, 4): {5: 1}})
    return CatalogEntry(
        descriptor=alg,
        expected={"step": 3, "center_dim": 2},
        notes="No complete set claimed; the skew-derivation space is "
              "trivial.")


def _entry_n6_24(eps):
    eps = Fraction(eps)
    alg = _alg("n6_24(%s)" % eps, 6,
               {(1, 2): {3: 1}, (1, 3): {5: 1}, (2, 3): {6: 1},
                (2, 4): {5: 1}, (1, 4): {6: eps}}, params={"eps": eps})
    e = CatalogEntry(
        descriptor=alg,
        expected={"step": 3, "center_dim": 2, "killing2_dim": 4},
        notes="No complete set claimed.")
    if eps == -1:
        fam = linalg.mat_add(_rotation(6, 1, 2), _rotation(6, 5, 6))
        e.expected["claimed_derivation_family"] = [fam]
        e.notes = ("No complete set claimed.  The stored one-parameter "
                   "family (rotation of (e1, e2) plus rotation of "
                   "(e5, e6)) spans the computed derivation space.")
    elif eps == 0:
        e.expected["claimed_derivation_family"] = [_rotation(6, 2, 4)]
        e.notes = ("No complete set claimed.  The stored one-parameter "
                   "family (rotation of (e2, e4)) fails the product rule "
                   "on (e1, e4); the computed space is trivial.")
    return e


def _entry_n6_25():
    alg = _alg("n6_25", 6, {(1, 2): {3: 1}, (1, 3): {5: 1}, (1, 4): {6: 1}})
    e = CatalogEntry(
        descriptor=alg,
        expected={"step": 3, "center_dim": 2},
        notes="The span of e2..e6 is abelian, so the five right-invariant "
              "momenta commute.")
    return _specs(e, ["E", "right:e2", "right:e3", "right:e4", "right:e5",
                      "right:e6"])


def _entry_n6_26():
    alg = _alg("n6_26", 6, {(1, 2): {4: 1}, (1, 3): {5: 1}, (2, 3): {6: 1}})
    s = _sym(6, {(1, 6): 2, (2, 5): -2, (3, 4): 2})
    e = CatalogEntry(
        descriptor=alg, quad_refs={"S": s},
        expected={"step": 2, "center_dim": 3},
        notes="The antidiagonal quadratic absorbs an overall factor 2.")
    return _specs(e, ["E", "right:e2", "lin:e4", "lin:e5", "lin:e6",
                      "quad:S"])


def _entry_extension(k, base):
    """r^k + base: the product of a family entry with a flat abelian factor
    on e1..ek, its complete set lifted to the shifted basis."""
    structure = {(i + k, j + k): {t + k: c for t, c in targets.items()}
                 for (i, j), targets in base.descriptor.structure.items()}
    name = "r%s+%s" % (k if k > 1 else "", base.name)
    alg = LieAlgebraDescriptor(dim=base.descriptor.dim + k,
                               structure=structure, name=name)
    if base.complete_set is None:
        raise ValueError("%s claims no complete set to lift to %s"
                         % (base.name, name))
    specs = ["lin:e%d" % (i + 1) for i in range(k)]
    for f in base.complete_set:
        kind = f.spec_string().split(":")[0]
        if kind not in ("E", "lin", "right"):
            raise ValueError("cannot lift %r to a trivial extension" % f)
        specs.append(kind if kind == "E"
                     else "%s:e%d" % (kind, f.x.index(1) + 1 + k))
    return _specs(CatalogEntry(
        descriptor=alg,
        expected={"step": base.expected["step"],
                  "center_dim": base.expected["center_dim"] + k},
        notes="Product with a flat abelian factor (coordinates e1..e%d); "
              "the lifted members keep their base labels shifted by %d."
              % (k, k)), specs)


# -- registry ------------------------------------------------------------

# the listed entries, built once; any other name is built at each get
_CACHE = {}

_EPS = (Fraction(-1), Fraction(0), Fraction(1), Fraction(2))

# family -> (builder, the parameters and the k of the extensions rk+family
# that names() lists); a family listed with parameters needs one, which
# its builder takes, and any other family takes none
_FAMILIES = {
    "h3": (_entry_h3, (), (1, 2)),
    "h5": (lambda: _entry_heisenberg(2), (), ()),
    "n1": (_entry_n1, (), ()), "n2": (_entry_n2, (), (1,)),
    "n3": (_entry_n3, (), ()), "n23free": (_entry_n23free, (), ()),
    "n6_10": (_entry_n6_10, (), ()), "n6_19": (_entry_n6_19, _EPS, ()),
    "n6_20": (_entry_n6_20, (), ()), "n6_22": (_entry_n6_22, _EPS, ()),
    "n6_23": (_entry_n6_23, (), ()), "n6_24": (_entry_n6_24, _EPS, ()),
    "n6_25": (_entry_n6_25, (), ()), "n6_26": (_entry_n6_26, (), ()),
}

# the recorded (skew_derivation_dim, killing2_dim) of each entry, which
# verify_entry re-derives; the n6_24 rows hold only the first, because
# that builder records the Killing dimension for every eps
_RECORDED_DIMS = {
    "h3": (1, 2), "h5": (4, 5), "h7": (9, 10), "n1": (0, 2), "n2": (0, 3),
    "n3": (1, 5), "n23free": (1, 5), "n6_10": (1, 4), "n6_20": (0, 3),
    "n6_19(-1)": (0, 3), "n6_19(0)": (0, 4), "n6_19(1)": (1, 4),
    "n6_19(2)": (0, 3), "n6_22(-1)": (4, 4), "n6_22(0)": (1, 4),
    "n6_22(1)": (2, 5), "n6_22(2)": (1, 4), "n6_23": (0, 4),
    "n6_24(-1)": (1,), "n6_24(0)": (0,), "n6_24(1)": (0,), "n6_24(2)": (0,),
    "n6_25": (0, 6), "n6_26": (3, 8),
    "r+h3": (1, 4), "r2+h3": (2, 7), "r+n2": (0, 5),
}

# [rK+]FAMILY[(q)]: the prefix, the family and the parameter
_NAME = re.compile(r"(?:(r\d*)\+)?([^+(]*)(?:\((.*)\))?", re.S)


def names():
    """The listed entries: each family at its parameters, then extensions."""
    out = [family if eps is None else "%s(%s)" % (family, eps)
           for family, (_, params, _) in _FAMILIES.items()
           for eps in params or [None]]
    return out + ["r%s+%s" % (k if k > 1 else "", family)
                  for family, (_, _, ks) in _FAMILIES.items() for k in ks]


_LISTED = frozenset(names())


def get(name):
    """Entry by the name it builds: 'h3', 'n6_19(1)' or 'r2+h3', not 'h03',
    'r1+h3' or 'r+r+h3' (the base of an extension is a family); a
    parameter is a ``linalg.plain`` rational, so 'n6_19(1.0)' is
    'n6_19(1)' and 'n6_19(1_0)' is refused.  A name of
    dimension above ``MAX_FILE_DIM`` is refused before it is built."""
    name = name.strip()
    match = _NAME.fullmatch(name)
    # a name outside the grammar is read as a family, which none is
    prefix, family, arg = match.groups() if match else (None, name, None)
    eps = None
    if arg is not None:
        try:
            eps = linalg.frac(arg)
        except (ValueError, ZeroDivisionError):
            raise ValueError("bad parameter %r in %r" % (arg, name)) from None
    base = family if eps is None else "%s(%s)" % (family, eps)
    key = base if prefix is None else "%s+%s" % (prefix, base)
    entry = _CACHE.get(key) or _build(key, prefix, family, eps, base)
    if key in _LISTED:
        _CACHE[key] = entry
    return entry


def _build(key, prefix, family, eps, base):
    """The entry named ``key``, with its recorded dimensions applied."""
    builder, params, _ = _FAMILIES.get(family, (None, (), ()))
    if prefix is not None:
        base_entry = get(base)
        k = _bounded(key, prefix[1:] or "1", base_entry.descriptor.dim)
        entry = _entry_extension(k, base_entry)
    elif params and eps is None:
        raise ValueError("%s needs a parameter, e.g. %s(1)" % (family, family))
    elif eps is not None and not params:
        raise ValueError("%s takes no parameter" % family)
    elif builder is not None:
        entry = builder(eps) if params else builder()
    elif family[:1] == "h" and family[1:].isdigit():
        dim = _bounded(key, family[1:])
        if dim < 3 or dim % 2 == 0:
            raise ValueError("Heisenberg names are h3, h5, h7, ...")
        entry = _entry_heisenberg(dim // 2)
    else:
        raise ValueError("unknown catalog name %r" % family)
    if entry.name != key:
        raise ValueError("unknown catalog name %r" % key)
    entry.expected.update(zip(("skew_derivation_dim", "killing2_dim"),
                              _RECORDED_DIMS.get(key, ())))
    return entry


def _bounded(key, digits, extra=0):
    """``int(digits)``, where ``key`` has dimension ``int(digits) + extra``
    and is refused above ``MAX_FILE_DIM``; digits longer than the limit's
    are refused unread, as int() reads no more than 4,300 of them."""
    digits = digits.lstrip("0") or "0"
    if (len(digits) > len(str(MAX_FILE_DIM))
            or int(digits) + extra > MAX_FILE_DIM):
        raise ValueError("%s has dimension above the limit of %d"
                         % (key, MAX_FILE_DIM))
    return int(digits)


# -- verification --------------------------------------------------------

@dataclass
class EntryReport:
    name: str
    checks: list

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)

    def lines(self):
        return ["%-28s %s" % (label, "ok" if ok else "MISMATCH")
                + ("  (%s)" % detail if detail else "")
                for label, ok, detail in self.checks]


def verify_entry(entry, nsamples=None, seed=0):
    """Recompute every claim the entry bundles and report pass/fail.

    Recorded dimensions are regression facts (they should always match);
    the set/family/reference checks test the bundled claims themselves,
    so entries shipping a defective fixture fail here by design.  Only
    the independence scan samples; descent and the chart laws are exact.
    """
    alg = entry.descriptor
    exp = entry.expected
    checks = []

    analysis = alg.analyze()
    if "step" in exp:
        checks.append(("step", analysis.step == exp["step"],
                       "computed %d" % analysis.step))
    if "center_dim" in exp:
        got = len(analysis.center_basis)
        checks.append(("center-dim", got == exp["center_dim"],
                       "computed %d" % got))
    deriv = skew_derivations(alg)
    if "skew_derivation_dim" in exp:
        checks.append(("skew-derivation-dim",
                       len(deriv) == exp["skew_derivation_dim"],
                       "computed %d, recorded %d"
                       % (len(deriv), exp["skew_derivation_dim"])))
    if "killing2_dim" in exp:
        killing = killing2_tensors(alg)
        checks.append(("killing2-dim", len(killing) == exp["killing2_dim"],
                       "computed %d, recorded %d"
                       % (len(killing), exp["killing2_dim"])))
        checks.append(("killing2-structured-span", killing2_same_span(alg), ""))

    if "claimed_derivation_family" in exp:
        fam = [sum(m, []) for m in exp["claimed_derivation_family"]]
        comp = [sum(m, []) for m in deriv]
        same = linalg.span_equal(fam, comp)
        checks.append(("derivation-family-span", same,
                       "stored family %s the computed space"
                       % ("spans" if same else "does not span")))

    if entry.complete_set:
        engine = entry.engine()
        specs = [f.spec_string() for f in entry.complete_set]
        bad_members = [spec for spec, f in zip(specs, entry.complete_set)
                       if not engine.is_first_integral(f).ok]
        checks.append(("set-members-integral", not bad_members,
                       "non-conserved: %s" % ", ".join(bad_members)
                       if bad_members else "all conserved"))
        bad_pairs = ["{%s, %s}" % (specs[i], specs[j]) for i, j, res
                     in engine.involution_table(entry.complete_set)
                     if not res.is_zero]
        checks.append(("set-involutive", not bad_pairs,
                       "nonzero: %s" % ", ".join(bad_pairs)
                       if bad_pairs else "all brackets vanish"))
        if entry.dense_predicate is not None:
            rep = independence_scan(alg, entry.complete_set,
                                    predicate=entry.dense_predicate,
                                    nsamples=nsamples, seed=seed)
            checks.append(("independence", rep.ok,
                           "full rank %d on %d/%d accepted samples"
                           % (rep.target_rank, rep.full_rank, rep.accepted)))
    else:
        checks.append(("complete-set", True, "no complete set claimed"))

    for lname, fns in entry.quotient_functions.items():
        lattice = entry.lattices[lname]
        bad = [f.spec_string() for f, (ok, _)
               in zip(fns, descent(alg, lattice, fns)) if not ok]
        checks.append(("invariance[%s]" % lname, not bad,
                       "not descending: %s" % ", ".join(bad) if bad else
                       "all descend under %d generators"
                       % len(lattice.generators)))

    if "reference_g1_expansion" in exp:
        computed = Butler(alg, 1).as_polynomial()
        same = computed == exp["reference_g1_expansion"]
        checks.append(("butler-g1-reference", same,
                       "stored expansion %s the computed g1"
                       % ("matches" if same else "differs from")))

    if entry.chart_maps is not None:
        checks.append(("chart-law-homomorphism",
                       _chart_homomorphism_ok(entry), ""))

    return EntryReport(name=entry.name, checks=checks)


def _chart_homomorphism_ok(entry):
    """phi(u . v) == law(phi(u), phi(v)) and phi^-1(phi(u)) == u, as
    polynomial identities in u = w1..wn and v = y1..yn."""
    alg, cm = entry.descriptor, entry.chart_maps
    u, v = _w_vec(alg), _y_vec(alg)
    phi = cm.from_exponential
    return (phi(group.bch(alg, u, v)) == cm.coordinate_law(phi(u), phi(v))
            and cm.to_exponential(phi(u)) == u)
