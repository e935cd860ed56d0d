"""Acceptance gate: one test per headline verification claim.

Each test prints a single ``CRITERION k: PASS/FAIL`` line (also repeated in
the terminal summary) and then asserts.  Several bundled reference fixtures
are defective on purpose — the corresponding criteria FAIL honestly here
rather than being weakened; the per-criterion detail names the offenders.
"""

import random
import time
from fractions import Fraction

import numpy as np

from conftest import acceptance_lines
from helpers import in_span
from nilflow import catalog, solvers
from nilflow.geodesic import conservation_report, integrate
from nilflow.integrals import Butler, Energy, Linear, Quadratic
from nilflow.poisson import (
    PoissonEngine,
    criterion_derivation_linear,
    criterion_derivation_quadratic,
    criterion_linear_linear,
    criterion_linear_quadratic,
    verify_iso_homomorphism,
)
from nilflow.quotients import invariance_check
from nilflow.solvers import independence_scan, killing2_tensors, skew_derivations

MEMBER_DRIFT_TOL = 1e-8
ENERGY_DRIFT_TOL = 1e-10
SIGMA_THRESHOLD = 1e-10
DEN_MIN = 0.1
MIN_FULL_RANK_FRACTION = 0.99
INVARIANCE_TOL = 1e-10
HALVING_MIN_RATIO = 8.0
SCAN_SAMPLES = 200

ISO_NAMES = ["h3", "h5", "n1", "n2", "n3", "n23free", "n6_10", "n6_19(0)",
             "n6_19(1)", "n6_20", "n6_22(1)", "n6_25", "n6_26"]

COMPLETE_SET_NAMES = [n for n in catalog.names()
                      if catalog.get(n).complete_set is not None]

PREDICATE_NAMES = ["h3", "n2", "n3", "n1", "n23free"]


def _record(k, ok, detail=""):
    line = "CRITERION %d: %s" % (k, "PASS" if ok else "FAIL")
    if detail:
        line += "  [%s]" % detail
    acceptance_lines.append(line)
    print(line)
    return ok


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def test_criterion_1_momentum_map_is_a_homomorphism():
    t0 = time.time()
    failures = []
    for name in ISO_NAMES:
        entry = catalog.get(name)
        rep = verify_iso_homomorphism(entry.descriptor, engine=entry.engine())
        if not rep.ok:
            failures.append(name)
    elapsed = time.time() - t0
    ok = not failures and elapsed < 30.0
    detail = "3 bracket identities exact on %d algebras, %.1fs" % (
        len(ISO_NAMES), elapsed)
    if failures:
        detail = "failed on " + ", ".join(failures)
    assert _record(1, ok, detail), detail


def test_criterion_2_solver_fixture_dimensions():
    required_skew = {"n1": 2, "n23free": 1, "n6_23": 0, "h3": 1}
    required_killing = {"n23free": 5, "n6_19(0)": 4}
    problems = []
    for name, want in required_skew.items():
        got = len(skew_derivations(catalog.get(name).descriptor))
        if got != want:
            problems.append("%s skew dim %d != %d" % (name, got, want))
    for name, want in required_killing.items():
        got = len(killing2_tensors(catalog.get(name).descriptor))
        if got != want:
            problems.append("%s killing dim %d != %d" % (name, got, want))
    for name in catalog.names():
        alg = catalog.get(name).descriptor
        if not in_span(killing2_tensors(alg), _identity(alg.dim)):
            problems.append("%s killing span misses Id" % name)
    ok = not problems
    detail = "; ".join(problems) if problems else \
        "all fixture dimensions match, Id always Killing"
    assert _record(2, ok, detail), detail


def test_criterion_3_complete_sets_commute_and_conserve():
    t0 = time.time()
    failures = []
    for name in COMPLETE_SET_NAMES:
        entry = catalog.get(name)
        eng = entry.engine()
        bad = []
        for f in entry.complete_set:
            if not eng.is_first_integral(f).ok:
                bad.append("%s not conserved" % f.spec_string())
        for i, j, res in eng.involution_table(entry.complete_set):
            if not res.is_zero:
                bad.append("{%s, %s} != 0" % (
                    entry.complete_set[i].spec_string(),
                    entry.complete_set[j].spec_string()))
        if bad:
            failures.append("%s: %s" % (name, "; ".join(bad[:2])))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 120.0
    detail = "%d sets exact in %.1fs" % (len(COMPLETE_SET_NAMES), elapsed)
    if failures:
        detail = " | ".join(failures)
    assert _record(3, ok, detail), detail


def test_criterion_4_independence_on_dense_predicates():
    # the float scan's singular-value cutoff is the criterion's bound
    assert solvers.SINGULAR_THRESHOLD == SIGMA_THRESHOLD
    problems = []
    for name in PREDICATE_NAMES:
        entry = catalog.get(name)
        alg = entry.descriptor
        rep = independence_scan(alg, entry.complete_set, entry.dense_predicate,
                                nsamples=SCAN_SAMPLES, seed=11)
        if rep.fraction < MIN_FULL_RANK_FRACTION:
            problems.append("%s float fraction %.3f" % (name, rep.fraction))
        exact = independence_scan(alg, entry.complete_set, entry.dense_predicate,
                                  nsamples=SCAN_SAMPLES, seed=13, exact=True)
        if exact.fraction != 1.0:
            problems.append("%s exact fraction %.3f" % (name, exact.fraction))
    ok = not problems
    detail = "; ".join(problems) if problems else \
        "5 sets full rank on >=99%% of %d samples (exact path 100%%)" % \
        SCAN_SAMPLES
    assert _record(4, ok, detail), detail


def test_criterion_5_quadratic_chain_in_involution_and_reference_quartic():
    two_step = [n for n in catalog.names()
                if catalog.get(n).descriptor.analyze().step == 2]
    problems = []
    for name in two_step:
        entry = catalog.get(name)
        alg = entry.descriptor
        eng = entry.engine()
        gs = [Butler(alg, k) for k in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                if not eng.bracket(gs[i], gs[j]).is_zero:
                    problems.append("%s: {g%d, g%d} != 0" % (name, i, j))
    for name in ("n6_22(0)", "n6_22(1)"):
        entry = catalog.get(name)
        computed = Butler(entry.descriptor, 1).as_polynomial()
        reference = entry.expected["reference_g1_expansion"]
        if computed != reference:
            diff = computed - reference
            problems.append("%s: computed g1 differs from the recorded "
                            "expansion in %d terms" % (name, len(diff.terms)))
    ok = not problems
    detail = "; ".join(problems) if problems else \
        "chain commutes on %d two-step entries, quartic matches" % len(two_step)
    assert _record(5, ok, detail), detail


def _random_symmetric(rng, n):
    m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    return [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]


def _random_combo(rng, basis, n):
    out = [Fraction(0)] * n
    for b in basis:
        c = Fraction(rng.randint(-3, 3))
        out = [o + c * x for o, x in zip(out, b)]
    return out


def _mat_vec(m, v):
    return [sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m))]


def test_criterion_6_involution_criteria_agree_both_ways():
    disagreements = []
    positives = negatives = 0
    for idx, name in enumerate(catalog.names()):
        entry = catalog.get(name)
        alg = entry.descriptor
        eng = entry.engine()
        n = alg.dim
        rng = random.Random(1000 + idx)
        center = alg.analyze().center_basis
        ders = skew_derivations(alg)
        from nilflow.integrals import DerivationIntegral
        checks = []
        for _ in range(50):
            u = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            v = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            s = _random_symmetric(rng, n)
            checks.append(criterion_linear_linear(
                eng, Linear(alg, u), Linear(alg, v)))
            checks.append(criterion_linear_quadratic(
                eng, Linear(alg, u), Quadratic(alg, s)))
            if ders:
                d = ders[rng.randrange(len(ders))]
                fd = DerivationIntegral(alg, d)
                checks.append(criterion_derivation_linear(
                    eng, fd, Linear(alg, u)))
                checks.append(criterion_derivation_quadratic(
                    eng, fd, Quadratic(alg, s)))
        # engineered instances so the zero-bracket direction is seen too
        zc = _random_combo(rng, center, n)
        checks.append(criterion_linear_linear(
            eng, Linear(alg, zc), Linear(alg, _random_combo(rng, center, n))))
        checks.append(criterion_linear_quadratic(
            eng, Linear(alg, zc), Quadratic(alg, _random_symmetric(rng, n))))
        if ders:
            fd = DerivationIntegral(alg, ders[0])
            checks.append(criterion_derivation_quadratic(
                eng, fd, Quadratic(alg, _identity(n))))
            for z in center:
                if all(c == 0 for c in _mat_vec(ders[0], z)):
                    checks.append(criterion_derivation_linear(
                        eng, fd, Linear(alg, z)))
                    break
        for chk in checks:
            if not chk.agrees:
                disagreements.append(name)
            if chk.bracket_is_zero:
                positives += 1
            else:
                negatives += 1
    ok = not disagreements and positives > 0 and negatives > 0
    detail = "agreement on %d zero / %d nonzero instances" % (positives,
                                                              negatives)
    if disagreements:
        detail = "disagreements on " + ", ".join(sorted(set(disagreements)))
    assert _record(6, ok, detail), detail


def test_criterion_7_conservation_along_the_flow():
    t0 = time.time()
    failures = []
    for idx, name in enumerate(COMPLETE_SET_NAMES):
        entry = catalog.get(name)
        alg = entry.descriptor
        rng = np.random.default_rng(2000 + idx)
        w0 = rng.uniform(-1.5, 1.5, (5, alg.dim))
        y0 = rng.uniform(-1.5, 1.5, (5, alg.dim))
        traj = integrate(alg, w0, y0, dt=1e-3, t_end=10.0)
        fs = list(entry.complete_set) + [Energy(alg)]
        for spec, drift in conservation_report(fs, traj):
            tol = ENERGY_DRIFT_TOL if spec == "E" else MEMBER_DRIFT_TOL
            if drift >= tol:
                failures.append("%s %s drift %.2g" % (name, spec, drift))
    # fourth-order check where truncation error still dominates roundoff
    alg = catalog.get("n6_22(1)").descriptor
    rng = np.random.default_rng(99)
    w0 = rng.uniform(-1.5, 1.5, (1, alg.dim))
    y0 = rng.uniform(-1.5, 1.5, (1, alg.dim))
    coarse = dict(conservation_report(
        [Energy(alg)], integrate(alg, w0, y0, dt=0.05, t_end=10.0)))["E"]
    halved = dict(conservation_report(
        [Energy(alg)], integrate(alg, w0, y0, dt=0.025, t_end=10.0)))["E"]
    ratio = coarse / halved
    if ratio < HALVING_MIN_RATIO:
        failures.append("halving dt improved drift only %.1fx" % ratio)
    elapsed = time.time() - t0
    ok = not failures and elapsed < 120.0
    detail = ("%d sets, 5 starts each, halving gain %.0fx, %.0fs"
              % (len(COMPLETE_SET_NAMES), ratio, elapsed))
    if failures:
        detail = " | ".join(failures[:4])
        if len(failures) > 4:
            detail += " | +%d more" % (len(failures) - 4)
    assert _record(7, ok, detail), detail


def test_criterion_8_functions_descend_to_the_quotients():
    # draws where a denominator is below the criterion's cutoff are rejected
    assert solvers.DEN_MIN == DEN_MIN
    problems = []
    cases = [("h3", "Gamma_2"), ("n3", "Lambda_2")]
    for name, lat in cases:
        entry = catalog.get(name)
        lattice = entry.lattices[lat]
        for q in entry.quotient_functions[lat]:
            worst, accepted = invariance_check(entry.descriptor, lattice, q,
                                               nsamples=SCAN_SAMPLES, seed=21)
            if accepted < SCAN_SAMPLES or worst >= INVARIANCE_TOL:
                problems.append("%s %s deviates %.2g" % (name, q.spec_string(),
                                                         worst))
    ok = not problems
    detail = "; ".join(problems) if problems else \
        "3 induced functions invariant to < %g on %d samples" % (
            INVARIANCE_TOL, SCAN_SAMPLES)
    assert _record(8, ok, detail), detail


def test_criterion_9_entries_without_sets_report_the_solver_truth():
    problems = []
    for name in ("n6_23", "n6_24(0)", "n6_24(2)"):
        entry = catalog.get(name)
        rep = catalog.verify_entry(entry, nsamples=50)
        if entry.complete_set:
            problems.append("%s unexpectedly claims a set" % name)
        if not any("no complete set claimed" in detail
                   for _, _, detail in rep.checks):
            problems.append("%s missing the no-set notice" % name)
    if len(skew_derivations(catalog.get("n6_23").descriptor)) != 0:
        problems.append("n6_23 skew-derivation dim not 0")
    for name in ("n6_24(-1)", "n6_24(0)"):
        rep = catalog.verify_entry(catalog.get(name), nsamples=50)
        span = {c: (okc, det) for c, okc, det in rep.checks}
        check = span.get("derivation-family-span")
        if check is None:
            problems.append("%s has no recorded family to compare" % name)
        elif not check[0]:
            problems.append("%s: %s" % (name, check[1] or
                                        "recorded family does not span"))
    ok = not problems
    detail = "; ".join(problems) if problems else \
        "no-set entries verified, recorded families reproduced"
    assert _record(9, ok, detail), detail
