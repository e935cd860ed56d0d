"""One cold pass of one benchmark workload, in the interpreter it runs in.

    python3 benchmark/workloads.py --workload NAME --seed N [--trace] [--setup-only]

``run.py`` starts this once per pass in a fresh interpreter, so the
catalog cache, the engines' gradient caches and the ``analyze()`` memo
start empty every time, as they do for a user invocation.  It prints one
JSON object: set-up time, the timed section's wall time, the time of each
unit of work in it (a check or a scan), one outcome per operation
(compared with ``golden.json`` by ``run.py``), peak RSS and, with
``--trace``, the per-layer metrics.
"""

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracer import Tracer, bind_function, bind_method, unbound_sites

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("verify-catalog", "exact-criteria", "flow")

# Run length.  Each pass is sized to take seconds, not minutes, so that a
# run holds several cold passes; the figures below are part of the
# benchmark's definition and change only in a change of its own.
VC_SAMPLES = 50                 # nsamples of the sampled checks in verify
EC_INSTANCES = 10               # criterion instances per catalog entry
EC_SCAN_SAMPLES = 100           # exact-path scan samples per entry
EC_SCAN_NAMES = ("h3", "n2", "n3", "n1", "n23free")
FLOW_DT = 1e-3
FLOW_NARROW_T = 1.5             # 1500 RK4 steps, 5 starts per set
FLOW_NARROW_STARTS = 5
FLOW_WIDE_ENTRY = "n6_25"
FLOW_WIDE_STARTS = 256
FLOW_WIDE_T = 1.0               # 1000 RK4 steps
MEMBER_DRIFT_TOL = 1e-8
ENERGY_DRIFT_TOL = 1e-10
SIZES = {
    "verify-catalog": {"nsamples": VC_SAMPLES},
    "exact-criteria": {"instances_per_entry": EC_INSTANCES,
                       "exact_scan_samples": EC_SCAN_SAMPLES},
    "flow": {"dt": FLOW_DT, "narrow_t": FLOW_NARROW_T,
             "narrow_starts": FLOW_NARROW_STARTS, "wide_t": FLOW_WIDE_T,
             "wide_starts": FLOW_WIDE_STARTS},
}

# Host speed.  On a shared host other processes can slow a pass by up to
# a half for tens of seconds at a time.  A fixed slice of exact row
# reduction, independent of nilflow, is timed around the set-up and
# between the units of the timed section (at least every CAL_EVERY
# seconds).  Each time is scaled by REF_SLICE_S over the mean of the
# slices around it, so times read as on a host that runs the slice in
# REF_SLICE_S, as an idle 2-core Xeon with Python 3.11 does.
CAL_EVERY = 0.25
REF_SLICE_S = 0.010
_CAL_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 7 + 1)
                for j in range(9)] for i in range(8)]

# Check details that come from float samples; only their verdicts are
# recorded, so the golden record holds exact facts.
FLOAT_DERIVED = ("independence", "invariance[")

SHARE_GROUPS = {
    "geodesic.field": ["geodesic.field"],
    "solvers_quotients": ["solvers.*", "quotients.*"],
    "poisson.bracket": ["poisson.bracket"],
    "poisson_validate_linalg": ["poisson.*", "integrals.validate_derivation",
                                "linalg.*"],
    "geodesic": ["geodesic.*"],
}


def calibration_slice():
    """Seconds for a fixed amount of Fraction row reduction."""
    t = time.perf_counter()
    for _ in range(4):
        rows = [list(r) for r in _CAL_MATRIX]
        r = 0
        for c in range(len(rows[0])):
            piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            rows[r] = [x / rows[r][c] for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            r += 1
            if r == len(rows):
                break
    return time.perf_counter() - t


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Recorder:
    """Outcomes and per-unit times of one pass, scaled to host speed."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.outcomes = {}
        self.raw = {}        # unit key -> seconds as measured
        self.times = {}      # unit key -> seconds scaled to host speed
        self.checks = []     # the unit keys that are checks
        self.extra = {}
        self.slices = [calibration_slice()]
        self.slice_before = {}
        self.last_slice = time.perf_counter()

    def run(self, key, fn, check=True):
        """Time fn as one unit of the pass (a check unless check=False)."""
        if time.perf_counter() - self.last_slice >= CAL_EVERY:
            self.slices.append(calibration_slice())
            self.last_slice = time.perf_counter()
        if self.tracer is not None:
            self.tracer.item = key
        t = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # an operation that raised is a failure
            self.outcomes[key] = {"raised": "%s: %s" % (type(exc).__name__, exc)}
            return None
        self.raw[key] = time.perf_counter() - t
        self.slice_before[key] = len(self.slices) - 1
        if check:
            self.checks.append(key)
        return out

    def finish(self, section_s):
        """Scale the units by the slices around them and return the timed
        section's (raw, scaled) seconds, slices excluded."""
        inside = sum(self.slices[1:])
        self.slices.append(calibration_slice())
        for key, t in self.raw.items():
            i = self.slice_before[key]
            self.times[key] = t * 2 * REF_SLICE_S / (self.slices[i]
                                                     + self.slices[i + 1])
        raw = section_s - inside
        rest = (raw - sum(self.raw.values())) * REF_SLICE_S / statistics.mean(
            self.slices)
        return raw, rest + sum(self.times.values())


# -- set-up ---------------------------------------------------------------

def import_program():
    sys.path.insert(0, str(SRC))
    import nilflow
    from nilflow import cli  # noqa: F401  (cli binds names the tracer must see)
    if Path(nilflow.__file__).resolve().parent != (SRC / "nilflow").resolve():
        raise ImportError("nilflow imported from %s, not from %s"
                          % (nilflow.__file__, SRC))
    return nilflow


def setup(tracer):
    """Import, the 26 catalog entries and their Poisson engines."""
    calibration_slice()
    before = calibration_slice()
    t0 = time.perf_counter()
    nf = import_program()
    if tracer is not None:
        install(nf, tracer)
    t1 = time.perf_counter()
    entries = [nf.catalog.get(n) for n in nf.catalog.names()]
    t2 = time.perf_counter()
    for e in entries:
        e.engine()
    t3 = time.perf_counter()
    after = calibration_slice()
    return nf, entries, {
        "setup_s": (t3 - t0) * 2 * REF_SLICE_S / (before + after),
        "raw_setup_s": t3 - t0, "catalog.build_s": t2 - t1,
        "poisson.psi_build.s": t3 - t2}


# -- workloads ------------------------------------------------------------

def verify_catalog(nf, entries, seed, rec):
    """The loop of ``nilflow verify``, with the seed passed through."""
    for entry in entries:
        def one():
            report = nf.catalog.verify_entry(entry, nsamples=VC_SAMPLES,
                                             seed=seed)
            iso = nf.poisson.verify_iso_homomorphism(entry.descriptor,
                                                     engine=entry.engine())
            return report, iso
        out = rec.run(entry.name, one)
        if out is None:
            continue
        report, iso = out
        for label, ok, detail in report.checks:
            exact = not label.startswith(FLOAT_DERIVED)
            rec.outcomes["%s/%s" % (entry.name, label)] = \
                [ok, detail if exact else None]
        rec.outcomes["%s/iso-homomorphism" % entry.name] = [
            iso.ok and iso.injectivity_ok,
            "%d pairs checked" % iso.checked_pairs]


def _bracket_outcome(poly, is_zero):
    return [is_zero, digest(poly.render())]


def exact_criteria(nf, entries, seed, rec):
    from nilflow.integrals import (Butler, DerivationIntegral, Linear,
                                   Quadratic)
    from nilflow import poisson

    # (1) first-integral and involution checks on every complete set
    for entry in entries:
        if not entry.complete_set:
            continue
        eng = entry.engine()
        fs = entry.complete_set
        for k, f in enumerate(fs):
            res = rec.run("fi/%s/%d" % (entry.name, k),
                          lambda: eng.is_first_integral(f))
            if res is not None:
                rec.outcomes["fi/%s/%d" % (entry.name, k)] = \
                    _bracket_outcome(res.bracket, res.ok)
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                key = "inv/%s/%d,%d" % (entry.name, i, j)
                res = rec.run(key, lambda: eng.bracket(fs[i], fs[j]))
                if res is not None:
                    rec.outcomes[key] = _bracket_outcome(res.poly, res.is_zero)

    # (2) Butler chain g0..g2 on every 2-step entry
    for entry in entries:
        alg = entry.descriptor
        if alg.analyze().step != 2:
            continue
        eng = entry.engine()
        gs = [Butler(alg, k) for k in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                key = "chain/%s/g%d,g%d" % (entry.name, i, j)
                res = rec.run(key, lambda: eng.bracket(gs[i], gs[j]))
                if res is not None:
                    rec.outcomes[key] = _bracket_outcome(res.poly, res.is_zero)

    # (3) random instances of the four involution criteria; each check
    # builds its integrals afresh, so DerivationIntegral re-validates
    ll, lq = poisson.criterion_linear_linear, poisson.criterion_linear_quadratic
    dl, dq = (poisson.criterion_derivation_linear,
              poisson.criterion_derivation_quadratic)
    positives = negatives = 0
    for idx, entry in enumerate(entries):
        alg = entry.descriptor
        eng = entry.engine()
        n = alg.dim

        def lin(x):
            return lambda: Linear(alg, x)

        def quad(m):
            return lambda: Quadratic(alg, m)

        def der(d):
            return lambda: DerivationIntegral(alg, d)

        rng = random.Random(1000 + idx + 1000 * seed)
        ders = nf.solvers.skew_derivations(alg)
        center = alg.analyze().center_basis
        cases = []
        for t in range(EC_INSTANCES):
            u = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            v = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            s = _random_symmetric(rng, n)
            cases += [("%d/ll" % t, ll, lin(u), lin(v)),
                      ("%d/lq" % t, lq, lin(u), quad(s))]
            if ders:
                d = ders[rng.randrange(len(ders))]
                cases += [("%d/dl" % t, dl, der(d), lin(u)),
                          ("%d/dq" % t, dq, der(d), quad(s))]
        # engineered instances, so the zero-bracket direction is seen too
        zc = _random_combo(rng, center, n)
        cases += [("z/ll", ll, lin(zc), lin(_random_combo(rng, center, n))),
                  ("z/lq", lq, lin(zc), quad(_random_symmetric(rng, n)))]
        if ders:
            ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            cases.append(("z/dq", dq, der(ders[0]), quad(ident)))
            kernel = [z for z in center
                      if all(c == 0 for c in nf.linalg.mat_vec(ders[0], z))]
            if kernel:
                cases.append(("z/dl", dl, der(ders[0]), lin(kernel[0])))
        for label, criterion, first, second in cases:
            key = "crit/%s/%s" % (entry.name, label)
            chk = rec.run(key, lambda: criterion(eng, first(), second()))
            if chk is None:
                continue
            rec.outcomes[key] = chk.agrees
            positives += chk.bracket_is_zero
            negatives += not chk.bracket_is_zero
    rec.outcomes["crit/both-directions-seen"] = positives > 0 and negatives > 0

    # (4) exact-path independence scans on the predicate entries
    by_name = {e.name: e for e in entries}
    for k, name in enumerate(EC_SCAN_NAMES):
        entry = by_name[name]
        rep = rec.run("scan/" + name, lambda: nf.solvers.independence_scan(
            entry.descriptor, entry.complete_set,
            predicate=entry.dense_predicate, nsamples=EC_SCAN_SAMPLES,
            seed=1000 * seed + 13 + k, exact=True), check=False)
        if rep is not None:
            rec.outcomes["scan/" + name] = (rep.accepted == EC_SCAN_SAMPLES
                                            and rep.full_rank == rep.accepted)


def _random_symmetric(rng, n):
    m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    return [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]


def _random_combo(rng, basis, n):
    out = [Fraction(0)] * n
    for b in basis:
        c = Fraction(rng.randint(-3, 3))
        out = [o + c * x for o, x in zip(out, b)]
    return out


def flow(nf, entries, seed, rec):
    """narrow: criterion-7 starts on every complete set; wide: one large
    seeded ensemble on n6_25."""
    import numpy as np
    from nilflow.integrals import Energy
    geodesic = nf.geodesic

    def phase(key, alg, fs, w0, y0, t_end):
        def one():
            traj = geodesic.integrate(alg, w0, y0, dt=FLOW_DT, t_end=t_end)
            return traj, geodesic.conservation_report(fs, traj)
        out = rec.run(key, one)
        if out is None:
            return 0
        traj, report = out
        for i, (spec, drift) in enumerate(report):
            tol = ENERGY_DRIFT_TOL if spec == "E" else MEMBER_DRIFT_TOL
            rec.outcomes["%s/%d:%s" % (key, i, spec)] = drift < tol
        rec.outcomes[key + "/final"] = [float(x) for x in traj.states[-1].ravel()]
        rec.extra["traj_mb"] = max(rec.extra.get("traj_mb", 0.0),
                                   traj.states.nbytes / 2 ** 20)
        return traj.batch * (len(traj.times) - 1)

    rows = rec.extra["rows"] = {"narrow": 0, "wide": 0}
    with_sets = [e for e in entries if e.complete_set is not None]
    for idx, entry in enumerate(with_sets):
        alg = entry.descriptor
        rng = np.random.default_rng(2000 + idx)
        w0 = rng.uniform(-1.5, 1.5, (FLOW_NARROW_STARTS, alg.dim))
        y0 = rng.uniform(-1.5, 1.5, (FLOW_NARROW_STARTS, alg.dim))
        rows["narrow"] += phase("narrow/" + entry.name, alg,
                                list(entry.complete_set) + [Energy(alg)],
                                w0, y0, FLOW_NARROW_T)

    entry = next(e for e in entries if e.name == FLOW_WIDE_ENTRY)
    alg = entry.descriptor
    rng = np.random.default_rng(seed)
    w0 = rng.uniform(-1.5, 1.5, (FLOW_WIDE_STARTS, alg.dim))
    y0 = rng.uniform(-1.5, 1.5, (FLOW_WIDE_STARTS, alg.dim))
    rows["wide"] += phase("wide", alg, list(entry.complete_set) + [Energy(alg)],
                          w0, y0, FLOW_WIDE_T)


RUNNERS = {"verify-catalog": verify_catalog, "exact-criteria": exact_criteria,
           "flow": flow}


# -- tracing --------------------------------------------------------------

def install(nf, tr):
    """Bind the outside-in wrappers; raise if a lookup site was missed."""
    from nilflow import (algebra, catalog, geodesic, group, integrals, linalg,
                         poisson, quotients, ratpoly, solvers)
    originals = []

    def function(mod, name, wrap):
        originals.append(getattr(mod, name))
        bind_function(mod, name, wrap)

    def dims(count):
        def attrs(out, args, kwargs):
            n = args[0].dim
            return {"unknowns": count(n), "nullity": len(out)}
        return attrs

    skew = dims(lambda n: n * (n - 1) // 2)
    sym = dims(lambda n: n * (n + 1) // 2)
    function(catalog, "verify_entry",
             lambda f: tr.span("catalog.verify_entry", f))
    function(solvers, "skew_derivations",
             lambda f: tr.span("solvers.skew_derivations", f, skew))
    function(solvers, "killing2_tensors",
             lambda f: tr.span("solvers.killing2_tensors", f, sym))
    function(solvers, "killing2_structured",
             lambda f: tr.span("solvers.killing2_structured", f, sym))
    function(solvers, "killing2_same_span",
             lambda f: tr.span("solvers.killing2_same_span", f))

    def scan_name(args, kwargs):
        exact = kwargs.get("exact", args[5] if len(args) > 5 else False)
        return "solvers.independence_scan." + ("exact" if exact else "float")

    function(solvers, "independence_scan", lambda f: tr.span(
        scan_name, f, lambda out, a, k: {"accepted": out.accepted}))
    function(quotients, "invariance_check", lambda f: tr.span(
        "quotients.invariance_check", f,
        lambda out, a, k: {"accepted": out[1],
                           "generators": len(a[1].generators)}))
    function(quotients, "left_translate",
             lambda f: tr.hot("quotients.left_translate", f, timed=False))
    function(poisson, "verify_iso_homomorphism",
             lambda f: tr.span("poisson.verify_iso", f))
    function(group, "adjoint_inverse",
             lambda f: tr.hot("group.adjoint_inverse", f))
    function(group, "bch", lambda f: tr.hot("group.bch", f))
    function(integrals, "validate_derivation",
             lambda f: tr.hot("integrals.validate_derivation", f))

    def cells(counts, args):
        mat = args[0]
        counts["cells"] += len(mat) * (len(mat[0]) if mat else 0)

    function(linalg, "rref", lambda f: tr.hot("linalg.rref", f, extra=cells))
    function(linalg, "mat_mul", lambda f: tr.hot("linalg.mat_mul", f))
    function(geodesic, "integrate", lambda f: tr.span(
        "geodesic.integrate", f,
        lambda out, a, k: {"steps": len(out.times) - 1, "batch": out.batch}))
    function(geodesic, "conservation_report",
             lambda f: tr.span("geodesic.conservation_report", f))

    RP = ratpoly.RationalPolynomial

    def term_pairs(counts, args):
        if isinstance(args[1], RP):
            counts["term_pairs"] += len(args[0].terms) * len(args[1].terms)

    bind_method(RP, "__mul__", lambda f: tr.hot("ratpoly.mul", f, timed=False,
                                                extra=term_pairs))
    bind_method(RP, "__add__", lambda f: tr.hot("ratpoly.add", f, timed=False))
    bind_method(algebra.LieAlgebraDescriptor, "bracket",
                lambda f: tr.hot("algebra.bracket", f, timed=False))
    bind_method(poisson.PoissonEngine, "bracket", lambda f: tr.span(
        "poisson.bracket", f,
        lambda out, a, k: {"out_terms": len(out.poly.terms)}))

    seen = set()

    def hits(counts, args):
        key = (id(args[0]), id(args[1]))
        if key in seen:
            counts["hits"] += 1
        seen.add(key)

    bind_method(poisson.PoissonEngine, "gradient_polys",
                lambda f: tr.hot("poisson.gradient_polys", f, extra=hits))

    def rows(counts, args):
        counts["rows"] += args[1].shape[0]

    bind_method(geodesic.GeodesicField, "__call__",
                lambda f: tr.hot("geodesic.field", f, extra=rows))
    bind_method(integrals.FirstIntegral, "as_polynomial",
                lambda f: tr.hot("integrals.as_polynomial", f))

    def gradient_name(args):
        point = args[1]
        w = point.w if hasattr(point, "w") else point[0]
        exact = len(w) > 0 and isinstance(w[0], Fraction)
        return "integrals.gradient." + ("exact" if exact else "float")

    for cls in vars(integrals).values():
        if (isinstance(cls, type) and issubclass(cls, integrals.FirstIntegral)
                and "gradient" in vars(cls)):
            bind_method(cls, "gradient",
                        lambda f: tr.hot(gradient_name, f))
    bind_method(catalog.DensePredicate, "__call__",
                lambda f: tr.hot("catalog.dense_predicate", f, timed=False))

    missed = unbound_sites(originals)
    if missed:
        raise RuntimeError("tracer missed lookup sites: %s" % ", ".join(missed))


def _per(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tr, wall_s):
    """The per-layer metrics of one traced pass."""
    m = {}
    ve = sorted(s[2] - s[1] for s in tr.spans_named("catalog.verify_entry"))
    m["catalog.verify_entry.calls"] = len(ve)
    m["catalog.verify_entry.p50_s"] = statistics.median(ve) if ve else 0.0
    m["catalog.verify_entry.max_s"] = ve[-1] if ve else 0.0

    for name in ("skew_derivations", "killing2_tensors", "killing2_structured"):
        m["solvers.%s.calls" % name] = tr.calls("solvers." + name)
        m["solvers.%s.s" % name] = tr.seconds("solvers." + name)
    solves = [s for s in tr.spans if s[0] in (
        "solvers.skew_derivations", "solvers.killing2_tensors",
        "solvers.killing2_structured") and s[5]]
    m["solvers.unknowns"] = sum(s[5]["unknowns"] for s in solves)
    m["solvers.nullity"] = sum(s[5]["nullity"] for s in solves)

    for path in ("float", "exact"):
        name = "solvers.independence_scan." + path
        scans = [(i, s) for i, s in enumerate(tr.spans) if s[0] == name and s[5]]
        accepted = sum(s[5]["accepted"] for _, s in scans)
        attempts = sum(tr.child_calls(i, "catalog.dense_predicate")
                       for i, _ in scans)
        m[name + ".s"] = tr.seconds(name)
        m[name + ".accepted"] = accepted
        m[name + ".attempts"] = attempts
        m[name + ".us_per_sample"] = _per(tr.seconds(name), accepted, 1e6)
        m[name + ".accept_ratio"] = _per(accepted, attempts)

    name = "quotients.invariance_check"
    checks = [(i, s) for i, s in enumerate(tr.spans) if s[0] == name and s[5]]
    accepted = sum(s[5]["accepted"] for _, s in checks)
    attempts = sum(tr.child_calls(i, "quotients.left_translate")
                   // s[5]["generators"] for i, s in checks)
    m[name + ".s"] = tr.seconds(name)
    m[name + ".accepted"] = accepted
    m[name + ".attempts"] = attempts
    m[name + ".us_per_sample"] = _per(tr.seconds(name), accepted, 1e6)
    m[name + ".accept_ratio"] = _per(accepted, attempts)

    for name in ("group.adjoint_inverse", "group.bch",
                 "integrals.validate_derivation", "integrals.as_polynomial",
                 "poisson.gradient_polys", "linalg.rref", "linalg.mat_mul",
                 "poisson.bracket", "geodesic.field"):
        m[name + ".calls"] = tr.calls(name)
        m[name + ".s"] = tr.seconds(name)
    for path in ("float", "exact"):
        name = "integrals.gradient." + path
        m[name + ".calls"] = tr.calls(name)
        m[name + ".us_per_call"] = _per(tr.seconds(name), tr.calls(name), 1e6)

    m["poisson.bracket.out_terms"] = sum(
        s[5]["out_terms"] for s in tr.spans_named("poisson.bracket") if s[5])
    m["poisson.gradient_polys.hit_ratio"] = _per(
        tr.extra("poisson.gradient_polys", "hits"),
        tr.calls("poisson.gradient_polys"))
    m["poisson.verify_iso.s"] = tr.seconds("poisson.verify_iso")
    m["ratpoly.mul.calls"] = tr.calls("ratpoly.mul")
    m["ratpoly.mul.term_pairs"] = tr.extra("ratpoly.mul", "term_pairs")
    m["ratpoly.add.calls"] = tr.calls("ratpoly.add")
    m["linalg.rref.cells"] = tr.extra("linalg.rref", "cells")
    m["algebra.bracket.calls"] = tr.calls("algebra.bracket")

    for phase in ("narrow", "wide"):
        calls = secs = nrows = 0
        for (parent, name), (c, s, extra) in tr.agg.items():
            item = tr.item_of(parent)
            if name == "geodesic.field" and item and item.startswith(phase):
                calls += c
                secs += s
                nrows += extra["rows"]
        m["geodesic.field.%s.rows" % phase] = nrows
        m["geodesic.field.%s.us_per_row" % phase] = _per(secs, nrows, 1e6)
    m["geodesic.integrate.s"] = tr.seconds("geodesic.integrate")
    m["geodesic.integrate.steps"] = sum(
        s[5]["steps"] for s in tr.spans_named("geodesic.integrate") if s[5])
    m["geodesic.conservation_report.s"] = tr.seconds(
        "geodesic.conservation_report")

    m["trace.wall_s"] = wall_s
    for group in SHARE_GROUPS:
        m["share." + group] = _per(tr.covered[group], wall_s)
    return m


def trace_count_problems(workload, m, rec):
    """Traced counts that must equal counts this file knows it issued."""
    problems = []
    if workload == "verify-catalog" and m["catalog.verify_entry.calls"] != 26:
        problems.append("%d verify_entry spans, expected 26"
                        % m["catalog.verify_entry.calls"])
    if workload == "flow" and m["geodesic.field.calls"] != \
            4 * m["geodesic.integrate.steps"]:
        problems.append("%d field calls, expected 4 x %d steps"
                        % (m["geodesic.field.calls"],
                           m["geodesic.integrate.steps"]))
    if workload == "exact-criteria":
        issued = sum(1 for k in rec.outcomes
                     if k.startswith(("fi/", "inv/", "chain/", "crit/"))
                     and k != "crit/both-directions-seen")
        if m["poisson.bracket.calls"] < issued:
            problems.append("%d bracket spans for %d bracket checks"
                            % (m["poisson.bracket.calls"], issued))
    return problems


# -- entry point ----------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = Tracer(SHARE_GROUPS) if args.trace else None
    nf, entries, setup_m = setup(tracer)
    result = dict(setup_m)
    if not args.setup_only:
        rec = Recorder(tracer)
        t = time.perf_counter()
        RUNNERS[args.workload](nf, entries, args.seed, rec)
        wall, scaled = rec.finish(time.perf_counter() - t)
        if args.workload == "flow":
            for phase, rows in rec.extra.pop("rows").items():
                rec.extra[phase + "_row_steps_per_s"] = rows / sum(
                    v for k, v in rec.times.items() if k.startswith(phase))
        result.update({"wall_s": scaled, "raw_wall_s": wall,
                       "times": rec.times, "checks": rec.checks,
                       "outcomes": rec.outcomes, "extra": rec.extra,
                       "host_slowdown": statistics.mean(rec.slices)
                       / REF_SLICE_S})
        if tracer is not None:
            layers = layer_metrics(tracer, wall)
            layers["catalog.build_s"] = setup_m["catalog.build_s"]
            layers["poisson.psi_build.s"] = setup_m["poisson.psi_build.s"]
            layers["geodesic.traj_mb"] = rec.extra.get("traj_mb", 0.0)
            result["layers"] = layers
            result["trace_problems"] = trace_count_problems(
                args.workload, layers, rec)
            tracer.write(ROOT / ".bench_trace" / (
                "%s-seed%d.jsonl" % (args.workload, args.seed)))
    import numpy
    result["sizes"] = SIZES[args.workload]
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = numpy.__version__
    print(json.dumps(result))


if __name__ == "__main__":
    main()
