from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import fr, h3, run_cli
from nilflow import catalog, group, quotients
from nilflow.group import bch
from nilflow.integrals import (Linear, QuotientInduced, RightInvariant,
                               parse_integral)
from nilflow.quotients import Lattice, descent, invariance_check, left_translate
from nilflow.solvers import NoSampleAccepted

INVARIANCE_TOL = 1e-10


def _multipliers(alg, generators, num, den):
    """``descent``'s exact multipliers of quot(num / den), per generator."""
    [(_, cs)] = descent(alg, Lattice("L", generators),
                        [QuotientInduced(num, den)])
    return cs


def _descends(alg, lattice, f):
    [(ok, _)] = descent(alg, lattice, [f])
    return ok


def test_left_translate_is_bch_on_w():
    alg = h3()
    g = fr(2, 0, 0)
    w = fr(1, 1, 0)
    y = fr(0, 1, 2)
    moved_w, moved_y = left_translate(alg, g, (w, y))
    assert moved_w == bch(alg, g, w)
    assert moved_y == y


def test_shift_multipliers_h3():
    alg = h3()
    num = RightInvariant(alg, fr(1, 0, 0))
    den = Linear(alg, fr(0, 0, 1))
    expected = {(2, 0, 0): Fraction(0),
                (0, 1, 0): Fraction(1),
                (0, 0, 1): Fraction(0)}
    got = _multipliers(alg, [fr(*gen) for gen in expected], num, den)
    assert got == list(expected.values())


def test_shift_multipliers_n3():
    entry = catalog.get("n3")
    alg = entry.descriptor
    lattice = entry.lattices["Lambda_2"]
    fs = entry.quotient_functions["Lambda_2"]
    for q, (ok, cs) in zip(fs, descent(alg, lattice, fs)):
        assert ok
        for gen, c in zip(lattice.generators, cs):
            assert c is not None and c.denominator == 1
            if list(gen) == fr(2, 0, 0, 0, 0):
                assert c == Fraction(-2)
            else:
                assert c == Fraction(0)


def test_shift_multiplier_rejects_w_dependent_denominator():
    alg = h3()
    num = RightInvariant(alg, fr(1, 0, 0))
    den = RightInvariant(alg, fr(1, 0, 0))
    with pytest.raises(ValueError):
        _multipliers(alg, [fr(0, 1, 0)], num, den)


def test_shift_multiplier_none_when_not_proportional():
    alg = h3()
    # numerator w-shift is not a multiple of y3 when the denominator is y2
    num = RightInvariant(alg, fr(1, 0, 0))
    den = Linear(alg, fr(0, 1, 0))
    assert _multipliers(alg, [fr(0, 1, 0)], num, den) == [None]


def test_bundled_quotient_functions_invariant():
    for name in ("h3", "n3"):
        entry = catalog.get(name)
        for lat_name, fs in entry.quotient_functions.items():
            lattice = entry.lattices[lat_name]
            for q in fs:
                worst, accepted = invariance_check(entry.descriptor, lattice, q,
                                                   nsamples=100, seed=0)
                assert accepted == 100
                assert worst < INVARIANCE_TOL, "%s on %s" % (q.spec_string(),
                                                             lat_name)


def test_raw_right_invariant_does_not_descend():
    entry = catalog.get("h3")
    alg = entry.descriptor
    lattice = entry.lattices["Gamma_2"]
    raw = RightInvariant(alg, fr(1, 0, 0))
    worst, _ = invariance_check(alg, lattice, raw, nsamples=100, seed=0)
    assert worst > 0.1


def test_invariance_check_that_accepts_nothing_raises():
    # the denominator quot(E / E) = exp(-1) sin(2 pi) is below den_min
    # everywhere, so no draw is ever accepted
    entry = catalog.get("h3")
    alg = entry.descriptor
    nested = parse_integral(alg, "quot(E / quot(E / E))")
    with pytest.raises(NoSampleAccepted, match="1000 draws"):
        invariance_check(alg, entry.lattices["Gamma_2"], nested, nsamples=5)


def test_integer_shifts_leave_value_fixed():
    # direct check of the descent mechanism at one exact point
    alg = h3()
    num = RightInvariant(alg, fr(1, 0, 0))
    den = Linear(alg, fr(0, 0, 1))
    q = QuotientInduced(num, den)
    w = [0.3, -0.4, 0.7]
    y = [0.5, 1.1, 0.9]
    base = float(q.value((w, y)))
    moved = left_translate(alg, fr(0, 1, 0), (w, y))
    assert abs(float(q.value(moved)) - base) < 1e-12


def test_custom_lattice_subgroup_scaling():
    # doubling a generator doubles the shift constant
    alg = h3()
    num = RightInvariant(alg, fr(1, 0, 0))
    den = Linear(alg, fr(0, 0, 1))
    c1, c2 = _multipliers(alg, [fr(0, 1, 0), fr(0, 2, 0)], num, den)
    assert c2 == 2 * c1


def test_lattice_repr_names_generator_count():
    lat = Lattice("L", [fr(1, 0, 0)])
    assert "1 generator" in repr(lat)


def _float_verdict(alg, lattice, f):
    worst, _ = invariance_check(alg, lattice, f, nsamples=20, seed=0)
    return worst < INVARIANCE_TOL


def test_a_half_shift_does_not_descend():
    # (0, 1/2, 0) shifts quot(right:X1 / lin:Z)'s numerator by half its
    # denominator, so the sine changes sign
    entry = catalog.get("h3")
    alg = entry.descriptor
    f = entry.parse("quot(right:X1 / lin:Z)")
    half = Lattice("Half", [fr(0, Fraction(1, 2), 0)])
    assert descent(alg, half, [f]) == [(False, [Fraction(1, 2)])]
    assert not _float_verdict(alg, half, f)
    report = catalog.verify_entry(replace(
        entry, lattices={"Half": half}, quotient_functions={"Half": [f]}),
        nsamples=5)
    checks = {label: (ok, detail) for label, ok, detail in report.checks}
    assert checks["invariance[Half]"] == (
        False, "not descending: quot(right:X1 / lin:Z)")


def _one_generator_cases():
    """(algebra, one-generator lattice, f) for every bundled quotient
    function and generator, and for polynomials on h5's Gamma_1_1."""
    for name in ("h3", "n3"):
        entry = catalog.get(name)
        for lname, fs in entry.quotient_functions.items():
            for g in entry.lattices[lname].generators:
                for f in fs:
                    yield entry.descriptor, Lattice(lname, [g]), f
    entry = catalog.get("h5")
    for spec in ("right:e1", "lin:e5", "E"):
        yield entry.descriptor, entry.lattices["Gamma_1_1"], entry.parse(spec)


def test_exact_descent_agrees_with_the_float_check():
    verdicts = {}
    for alg, lattice, f in _one_generator_cases():
        exact = _descends(alg, lattice, f)
        assert exact == _float_verdict(alg, lattice, f), \
            "%s under %s" % (f.spec_string(), lattice.generators)
        verdicts.setdefault(f.spec_string(), []).append(exact)
    assert verdicts["right:e1"] == [False]
    assert verdicts["lin:e5"] == verdicts["E"] == [True]
    assert all(verdicts["quot(right:e2 / lin:e4)"])


def test_descends_refuses_what_it_cannot_decide():
    entry = catalog.get("h3")
    lattice = entry.lattices["Gamma_2"]
    for spec in ("quot(right:X1 / right:X1)",
                 "quot(quot(right:X1 / lin:Z) / lin:Z)"):
        with pytest.raises(ValueError):
            descent(entry.descriptor, lattice, [entry.parse(spec)])


def test_one_translate_per_generator_per_lattice(monkeypatch):
    calls, bch_of = [], group.bch

    def counted(alg, u, v):  # counts the exact translates, not float ones
        if any(not isinstance(x, (int, float, Fraction)) for x in [*u, *v]):
            calls.append(1)
        return bch_of(alg, u, v)

    monkeypatch.setattr(group, "bch", counted)
    code, _, _ = run_cli(["quotient", "n3", "Lambda_2", "--samples", "3"])
    # five generators, each translate shared by both quotient functions
    assert (code, len(calls)) == (0, 5)
    del calls[:]
    for name in catalog.names():
        catalog.verify_entry(catalog.get(name), nsamples=3)
    # h3's three generators, n3's five and one chart law each on six entries
    assert len(calls) == 3 + 5 + 6


def test_verify_entry_draws_no_invariance_sample(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("float invariance sample drawn")

    monkeypatch.setattr(quotients, "invariance_check", boom)
    monkeypatch.setattr(quotients, "left_translate", boom)
    monkeypatch.setattr(catalog, "invariance_check", boom, raising=False)
    for name in ("h3", "n3"):
        report = catalog.verify_entry(catalog.get(name), nsamples=5)
        checks = {label: ok for label, ok, _ in report.checks}
        assert checks["chart-law-homomorphism"]
        assert all(ok for label, ok in checks.items()
                   if label.startswith("invariance["))


@pytest.mark.parametrize("name", ["h3", "h5", "n1", "n2", "n3", "n23free"])
def test_chart_laws_hold_as_identities(name):
    assert catalog._chart_homomorphism_ok(catalog.get(name))


def test_a_chart_law_with_one_wrong_coefficient_fails():
    entry = catalog.get("n2")

    def law(u, v):
        # n2's last slot with 1/6 in place of 1/12
        out = list(catalog._n2_law(u, v))
        out[3] += Fraction(1, 12) * (u[0] * v[1] - u[1] * v[0]) * (u[0] - v[0])
        return tuple(out)

    def to_exponential(c):
        return tuple(c[:-1]) + (2 * c[-1],)

    cm = entry.chart_maps
    assert not catalog._chart_homomorphism_ok(
        replace(entry, chart_maps=replace(cm, coordinate_law=law)))
    assert not catalog._chart_homomorphism_ok(
        replace(entry, chart_maps=replace(cm, to_exponential=to_exponential)))
