import hashlib
import os
import re
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow import catalog
from nilflow.algebra import (MAX_FILE_DIM, LieAlgebraDescriptor, dump_algebra,
                             from_definition, load_algebra, to_definition)
from nilflow.group import bch
from nilflow.integrals import RightInvariant
from nilflow.linalg import identity
from nilflow.poisson import PoissonEngine

# Outcome of every bundled entry's self-check.  Keys are the checks that
# fail because the recorded reference data is defective; those entries are
# kept as published so the failures stay visible.
EXPECTED_FAILING_CHECKS = {
    "h3": set(),
    "h5": set(),
    "r+h3": set(),
    "r2+h3": set(),
    "n1": {"set-members-integral", "set-involutive"},
    "n2": set(),
    "r+n2": set(),
    "n3": set(),
    "n23free": set(),
    "n6_10": {"set-members-integral", "set-involutive"},
    "n6_19(-1)": {"set-involutive"},
    "n6_19(0)": {"set-members-integral", "set-involutive"},
    "n6_19(1)": {"set-involutive"},
    "n6_19(2)": {"set-involutive"},
    "n6_20": {"set-members-integral", "set-involutive"},
    "n6_22(-1)": {"butler-g1-reference"},
    "n6_22(0)": {"butler-g1-reference"},
    "n6_22(1)": {"butler-g1-reference"},
    "n6_22(2)": {"butler-g1-reference"},
    "n6_23": set(),
    "n6_24(-1)": set(),
    "n6_24(0)": {"derivation-family-span"},
    "n6_24(1)": set(),
    "n6_24(2)": set(),
    "n6_25": set(),
    "n6_26": set(),
}


def test_names_cover_expectations():
    names = catalog.names()
    assert set(names) == set(EXPECTED_FAILING_CHECKS)
    assert len(names) == 26


def test_get_parses_parameter_suffix():
    a = catalog.get("n6_19(1)")
    b = catalog.get(" n6_19(1.0) ")
    assert a is b
    assert a.name == "n6_19(1)"


def test_get_finds_an_entry_only_under_the_name_it_builds():
    for name in catalog.names() + ["h7", "r3+h3", "r+n3"]:
        assert catalog.get(name).name == name
    # each spelling names no entry, though the first four read as one
    # under another name, and the last is an extension of an extension
    for name in ("h03", "r0+h3", "r1+h3", "r+ h3", "r+r+h3"):
        with pytest.raises(ValueError, match="unknown catalog name"):
            catalog.get(name)


def test_get_refuses_a_name_above_the_dimension_limit(monkeypatch):
    # r100000+h3 once started a Jacobi check of hours; now no descriptor
    # above the limit is built
    built = []

    def recording(**kwargs):
        built.append(kwargs["dim"])
        return LieAlgebraDescriptor(**kwargs)

    monkeypatch.setattr(catalog, "LieAlgebraDescriptor", recording)
    # more digits than int() reads (4,300) give the limit too, and leading
    # zeros count for nothing: h00...03 spells h3 under another name
    for name in ("r100000+h3", "h101", "h25", "r22+h3", "h100",
                 "r%s+h3" % ("9" * 5000), "h%s" % ("9" * 5000)):
        with pytest.raises(ValueError, match="^%s has dimension above the "
                           "limit of %d$" % (re.escape(name), MAX_FILE_DIM)):
            catalog.get(name)
    for name in ("r%s1+h3" % ("0" * 5000), "h%s3" % ("0" * 5000)):
        with pytest.raises(ValueError, match="unknown catalog name"):
            catalog.get(name)
    assert catalog.get("r21+h3").descriptor.dim == MAX_FILE_DIM
    assert all(dim <= MAX_FILE_DIM for dim in built)


def test_unlisted_names_leave_a_bounded_cache():
    listed = [catalog.get(name) for name in catalog.names()]
    for q in range(24):
        catalog.get("n6_22(%d/7)" % q)
    assert set(catalog._CACHE) == set(catalog.names())
    assert all(catalog.get(name) is entry
               for name, entry in zip(catalog.names(), listed))


def test_get_unknown_raises():
    with pytest.raises(ValueError):
        catalog.get("h4")
    with pytest.raises(ValueError):
        catalog.get("zzz")
    with pytest.raises(ValueError):
        catalog.get("h3(2)")


def test_parameter_families_extend_beyond_bundled_values():
    # any rational parameter constructs, but only a fixed few are bundled
    extra = catalog.get("n6_19(7)")
    assert extra.name == "n6_19(7)"
    assert extra.name not in catalog.names()


def test_aliases_resolve():
    entry = catalog.get("h3")
    f = entry.parse("right:X1")
    g = entry.parse("right:e1")
    assert f.as_polynomial() == g.as_polynomial()


def test_candidates_prefer_right_invariants():
    entry = catalog.get("h3")
    eng = entry.engine()
    res = eng.bracket(entry.parse("right:X1"), entry.parse("right:Y1"))
    # lin:Z has the same polynomial as right:Z
    assert entry.parse("lin:Z").as_polynomial() == res.poly
    assert entry.match(res.poly) == "right:Z"
    assert entry.match(-res.poly) == "-right:Z"
    # then the linear integrals, then the set members
    assert entry.match(entry.parse("lin:X1").as_polynomial()) == "lin:X1"
    assert entry.match(-entry.parse("E").as_polynomial()) == "-E"
    assert entry.match(entry.parse("butler:1").as_polynomial()) is None


def test_definition_round_trip():
    for name in ("h3", "n3", "n6_22(1)"):
        entry = catalog.get(name)
        alg = from_definition(to_definition(entry.descriptor))
        assert alg.dim == entry.descriptor.dim
        assert alg.structure == entry.descriptor.structure


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@pytest.mark.parametrize("name", catalog.names())
@settings(max_examples=5)
@given(data=st.data())
def test_definition_round_trip_keeps_metric_and_params(name, data):
    base = catalog.get(name).descriptor
    n = base.dim
    # G = L L^T, positive definite for a lower-triangular L with a
    # positive diagonal
    low = [[data.draw(_RATIONALS) for _ in range(i)]
           + [data.draw(_RATIONALS.filter(lambda x: x > 0))]
           + [Fraction(0)] * (n - i - 1) for i in range(n)]
    metric = [[sum(a * b for a, b in zip(ri, rj)) for rj in low] for ri in low]
    params = data.draw(st.dictionaries(
        st.text("abcxyz_", min_size=1, max_size=4), _RATIONALS, max_size=3))
    alg = LieAlgebraDescriptor(n, base.structure, metric=metric,
                               name=base.name, params=params)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "alg.json")
        dump_algebra(alg, path)
        copies = [from_definition(to_definition(alg)), load_algebra(path)]
    for copy in copies:
        assert copy.dim == n
        assert copy.structure == alg.structure
        assert copy.metric == metric
        assert copy.params == params
        assert copy.name == alg.name


def test_chart_round_trip_h3():
    entry = catalog.get("h3")
    cm = entry.chart_maps
    pt = [Fraction(1, 2), Fraction(-2), Fraction(3)]
    assert list(cm.from_exponential(cm.to_exponential(pt))) == pt
    # the recorded multiplication law matches the group product
    a = [Fraction(1), Fraction(2), Fraction(0)]
    b = [Fraction(-1), Fraction(1, 2), Fraction(1)]
    ga = cm.from_exponential(a)
    gb = cm.from_exponential(b)
    assert list(cm.coordinate_law(ga, gb)) == list(cm.from_exponential(
        bch(entry.descriptor, a, b)))


def test_dense_predicate_callable():
    entry = catalog.get("n2")
    assert entry.dense_predicate is not None
    w = [0.0] * 4
    assert entry.dense_predicate(w, [1.0, 0.0, 0.0, 0.0])
    assert not entry.dense_predicate(w, [0.0, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("name", ["h7", "r3+h3", "r+n3"])
def test_unlisted_heisenberg_and_extension_entries_verify(name):
    report = catalog.verify_entry(catalog.get(name), nsamples=20)
    assert report.ok
    if name == "h7":
        checks = {label: detail for label, _, detail in report.checks}
        assert checks["skew-derivation-dim"] == "computed 9, recorded 9"
        assert checks["killing2-dim"] == "computed 10, recorded 10"


def test_extension_of_a_quadratic_member_is_rejected():
    with pytest.raises(ValueError,
                       match=r"^cannot lift <Quadratic quad:S1> "):
        catalog.get("r+h5")


def test_extension_of_a_parameter_family_reaches_the_lift():
    # the prefix is read first, so the parameter belongs to the base
    with pytest.raises(ValueError,
                       match=r"^cannot lift <Quadratic quad:S1> "):
        catalog.get("r+n6_19(1)")
    with pytest.raises(ValueError, match=r"^n6_24\(0\) claims no complete "
                                         r"set to lift to r\+n6_24\(0\)$"):
        catalog.get("r+n6_24(0)")


def test_extension_entries_shift_structure():
    base = catalog.get("h3").descriptor
    ext = catalog.get("r+h3").descriptor
    assert ext.dim == base.dim + 1
    assert ext.structure == {(2, 3): {4: Fraction(1)}}


@pytest.mark.parametrize("name", sorted(EXPECTED_FAILING_CHECKS))
def test_entry_self_check(name):
    report = catalog.verify_entry(catalog.get(name), nsamples=50)
    failing = {check for check, ok, _ in report.checks if not ok}
    assert failing == EXPECTED_FAILING_CHECKS[name]
    if not EXPECTED_FAILING_CHECKS[name]:
        assert report.ok


def test_entries_without_sets_say_so():
    entry = catalog.get("n6_23")
    report = catalog.verify_entry(entry, nsamples=20)
    assert not entry.complete_set
    assert report.ok
    checks = {name for name, _, _ in report.checks}
    assert "set-involutive" not in checks


# sha256 of the rendered value polynomial and exact gradient (U, V) of every
# complete-set member and every right:e_i on all entries.  Rendered
# polynomials are a regression gate: any change to them is a change of
# results, not of speed or structure.
EXPANSION_DIGEST = (
    "fb4cbfc1bbd8281551c9467959223bb31d7502c674246f8117e15573757bfcb5")


def test_expansions_match_the_recorded_digest():
    lines = []
    for name in catalog.names():
        entry = catalog.get(name)
        alg = entry.descriptor
        engine = PoissonEngine(alg)
        rights = [RightInvariant(alg, x) for x in identity(alg.dim)]
        for f in list(entry.complete_set or []) + rights:
            u, v = engine.gradient_polys(f)
            lines.append("%s %s %s" % (name, f.spec_string(),
                                       f.as_polynomial().render()))
            lines.append(" U " + " | ".join(p.render() for p in u))
            lines.append(" V " + " | ".join(p.render() for p in v))
    assert len(lines) == 768
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == EXPANSION_DIGEST
