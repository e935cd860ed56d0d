"""Command-line front end.

Exit codes: 0 when every requested check passes, 1 when a bundled claim
fails verification, 2 for usage errors (unknown names, malformed specs,
bad files), and 141 (128 + SIGPIPE) with no message when the reader
closes stdout early, as in ``nilflow geodesic ... | head -1``.
``--format json`` emits canonical JSON: keys sorted, rationals rendered
as "p/q" strings, so reports round-trip byte for byte through a
parse/re-render cycle.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import catalog, geodesic, linalg, quotients, solvers
from .algebra import load_algebra, to_definition
from .poisson import verify_iso_homomorphism

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141

DRIFT_TOL = 1e-8


def canonical_json(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(args, payload, text_lines):
    if args.format == "json":
        sys.stdout.write(canonical_json(payload))
    else:
        for line in text_lines:
            print(line)


def _frac_str(x):
    return str(Fraction(x))


def _matrix_json(m):
    return [[_frac_str(c) for c in row] for row in m]


def _basis_lines(basis):
    return ["  " + "; ".join(",".join(map(_frac_str, row)) for row in m)
            for m in basis]


def _algebra(args):
    """(algebra, label) of a verb that takes ``--file``: the definition
    file if given, else the named catalog entry, but never both."""
    if args.file and args.name:
        raise ValueError("give an algebra name or --file, not both")
    if args.file:
        return load_algebra(args.file), args.file
    if not args.name:
        raise ValueError("an algebra name or --file is required")
    entry = catalog.get(args.name)
    return entry.descriptor, entry.name


def _members(entry, specs, default=None):
    """The integrals named by ``specs``, else the entry's complete set,
    else those named by ``default``; with no default that is an error."""
    if not specs:
        if entry.complete_set:
            return list(entry.complete_set)
        if default is None:
            raise ValueError("no integrals given and no bundled set available")
        specs = default
    return [entry.parse(s) for s in specs]


# -- verbs ---------------------------------------------------------------

def cmd_catalog(args):
    if args.name:
        entry = catalog.get(args.name)
        payload = {
            "name": entry.name,
            "definition": to_definition(entry.descriptor),
            "step": entry.descriptor.analyze().step,
            "complete_set": [f.spec_string() for f in entry.complete_set or []],
            "basis_aliases": dict(sorted(entry.basis_aliases.items())),
            "lattices": {k: [[_frac_str(c) for c in g] for g in v.generators]
                         for k, v in entry.lattices.items()},
            "notes": entry.notes,
        }
        lines = ["%s  (dim %d, step %d)" % (entry.name, entry.descriptor.dim,
                                            payload["step"])]
        lines.append("complete set: " + ", ".join(payload["complete_set"])
                     if payload["complete_set"] else "no complete set claimed")
        lines += ["lattice: %s" % k for k in entry.lattices]
        if entry.notes:
            lines.append(entry.notes)
        _emit(args, payload, lines)
        return EXIT_OK
    rows = [{"name": e.name, "dim": e.descriptor.dim,
             "step": e.descriptor.analyze().step,
             "members": len(e.complete_set or [])}
            for e in map(catalog.get, catalog.names())]
    lines = ["%-12s dim %d  step %d  set %d"
             % (r["name"], r["dim"], r["step"], r["members"]) for r in rows]
    _emit(args, {"entries": rows}, lines)
    return EXIT_OK


def cmd_check(args):
    report = catalog.verify_entry(catalog.get(args.name),
                                  nsamples=args.samples)
    payload = {"name": report.name, "ok": report.ok,
               "checks": [{"label": lbl, "ok": ok, "detail": det}
                          for lbl, ok, det in report.checks]}
    lines = ["%s:" % report.name] + ["  " + l for l in report.lines()]
    lines.append("result: %s" % ("ok" if report.ok else "CLAIMS FAILED"))
    _emit(args, payload, lines)
    return EXIT_OK if report.ok else EXIT_CLAIM_FAILED


def cmd_derivations(args):
    alg, label = _algebra(args)
    basis = solvers.skew_derivations(alg)
    payload = {"algebra": label, "dimension": len(basis),
               "basis": [_matrix_json(m) for m in basis]}
    lines = ["skew-symmetric derivations: dimension %d" % len(basis)]
    _emit(args, payload, lines + _basis_lines(basis))
    return EXIT_OK


def cmd_killing2(args):
    alg, label = _algebra(args)
    basis = solvers.killing2_tensors(alg)
    span_ok = solvers.killing2_same_span(alg)
    payload = {"algebra": label, "dimension": len(basis),
               "structured_span_matches": span_ok,
               "basis": [_matrix_json(m) for m in basis]}
    if span_ok is None:
        span_ok = "not applicable at step %d" % alg.analyze().step
    lines = ["symmetric Killing 2-tensors: dimension %d" % len(basis),
             "structured solver spans the same space: %s" % span_ok]
    _emit(args, payload, lines + _basis_lines(basis))
    return EXIT_CLAIM_FAILED if span_ok is False else EXIT_OK


def cmd_bracket(args):
    entry = catalog.get(args.name)
    f = entry.parse(args.f)
    g = entry.parse(args.g)
    res = entry.engine().bracket(f, g)
    matched = None if res.is_zero else entry.match(res.poly)
    payload = {"algebra": entry.name, "f": f.spec_string(),
               "g": g.spec_string(), "bracket": str(res.poly),
               "is_zero": res.is_zero, "matches": matched}
    lines = ["{%s, %s} = %s" % (f.spec_string(), g.spec_string(), res.poly)]
    if res.is_zero:
        lines.append("= 0")
    elif matched:
        lines.append("= %s" % matched)
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_involution(args):
    entry = catalog.get(args.name)
    fs = _members(entry, args.integrals)
    pairs = [{"f": fs[i].spec_string(), "g": fs[j].spec_string(),
              "is_zero": res.is_zero, "bracket": str(res.poly)}
             for i, j, res in entry.engine().involution_table(fs)]
    involutive = all(p["is_zero"] for p in pairs)
    payload = {"algebra": entry.name, "pairs": pairs,
               "involutive": involutive}
    lines = ["{%s, %s} = %s" % (p["f"], p["g"],
                                "0" if p["is_zero"] else p["bracket"])
             for p in pairs]
    lines.append("involutive: %s" % involutive)
    _emit(args, payload, lines)
    return EXIT_OK if involutive else EXIT_CLAIM_FAILED


def cmd_independence(args):
    entry = catalog.get(args.name)
    fs = _members(entry, args.integrals)
    pred = entry.dense_predicate
    rep = solvers.independence_scan(entry.descriptor, fs, predicate=pred,
                                    nsamples=args.samples, seed=args.seed,
                                    exact=args.exact)
    payload = {"algebra": entry.name, "target_rank": rep.target_rank,
               "accepted": rep.accepted, "full_rank": rep.full_rank,
               "fraction": rep.fraction, "exact": bool(args.exact),
               "predicate": pred.description if pred else None,
               "ok": rep.ok}
    lines = ["rank %d on %d of %d accepted samples (%.1f%%)"
             % (rep.target_rank, rep.full_rank, rep.accepted,
                100.0 * rep.fraction)]
    if pred:
        lines.append("dense predicate: %s" % pred.description)
    _emit(args, payload, lines)
    return EXIT_OK if rep.ok else EXIT_CLAIM_FAILED


def _parse_coords(text, n, what):
    parts = text.split(",")  # an empty field counts, and is refused
    if len(parts) != n:
        raise ValueError("%s needs %d comma-separated values" % (what, n))
    try:
        return [float(linalg.frac(p.strip())) for p in parts]
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError("%s needs finite rational values, got %r"
                         % (what, text)) from None


def cmd_geodesic(args):
    entry = catalog.get(args.name)
    n = entry.descriptor.dim
    rng = np.random.default_rng(args.seed)
    w0, y0 = (np.array([_parse_coords(text, n, flag)]) if text
              else rng.uniform(-1.0, 1.0, (1, n))
              for text, flag in ((args.w0, "--w0"), (args.y0, "--y0")))
    fs = _members(entry, args.integrals, default=["E"])
    try:
        traj = geodesic.integrate(entry.descriptor, w0, y0, dt=args.dt,
                                  t_end=args.t)
        if args.format == "csv":
            geodesic.write_csv(traj, sys.stdout)
            return EXIT_OK
        report = geodesic.conservation_report(fs, traj)
    except (geodesic.NonFinite, geodesic.DenominatorVanished) as exc:
        payload = {"algebra": entry.name, "dt": args.dt, "t": args.t,
                   "ok": False, "reason": str(exc)}
        _emit(args, payload, ["flow failed: %s" % exc])
        return EXIT_CLAIM_FAILED
    worst = max(d for _, d in report) if report else 0.0
    payload = {"algebra": entry.name, "dt": args.dt, "t": args.t,
               "drift": {label: drift for label, drift in report},
               "max_drift": worst, "tolerance": args.tol,
               "ok": worst < args.tol}
    lines = ["%-14s drift %.3e" % (label, drift) for label, drift in report]
    lines.append("max drift %.3e (tolerance %.1e)" % (worst, args.tol))
    _emit(args, payload, lines)
    return EXIT_OK if worst < args.tol else EXIT_CLAIM_FAILED


def cmd_quotient(args):
    entry = catalog.get(args.name)
    if args.lattice not in entry.lattices:
        raise ValueError("entry %s has no lattice %r (available: %s)"
                         % (entry.name, args.lattice,
                            ", ".join(sorted(entry.lattices)) or "none"))
    lat = entry.lattices[args.lattice]
    fs = ([entry.parse(s) for s in args.integrals]
          or list(entry.quotient_functions.get(args.lattice, [])))
    if not fs:
        raise ValueError("no quotient functions stored for %s; pass specs"
                         % args.lattice)
    # the exact verdicts first, so a usage error precedes any float sample
    alg = entry.descriptor
    verdicts = quotients.descent(alg, lat, fs)
    ok = all(v for v, _ in verdicts)
    results, lines, worst = [], [], 0.0
    for f, (_, cs) in zip(fs, verdicts):
        shifts = {"(" + ",".join(map(_frac_str, g)) + ")":
                  None if c is None else _frac_str(c)
                  for g, c in zip(lat.generators, cs or [])}
        dev, acc = quotients.invariance_check(alg, lat, f, nsamples=args.samples,
                                              seed=args.seed)
        worst = max(worst, dev)
        results.append({"integral": f.spec_string(), "max_deviation": dev,
                        "accepted": acc, "shift_multipliers": shifts})
        lines.append("%s: max deviation %.3e on %d samples"
                     % (f.spec_string(), dev, acc))
        lines += ["  generator %s shifts numerator by %s * denominator" % gc
                  for gc in sorted(shifts.items())]
    payload = {"algebra": entry.name, "lattice": args.lattice,
               "results": results, "max_deviation": worst, "ok": ok}
    lines.append("invariant: %s" % ok)
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_CLAIM_FAILED


def cmd_verify(args):
    entries = [catalog.get(name) for name in args.names or catalog.names()]
    failed, summaries, lines = [], [], []
    for entry in entries:
        report = catalog.verify_entry(entry, nsamples=args.samples)
        checks = [{"label": lbl, "ok": ok, "detail": det}
                  for lbl, ok, det in report.checks]
        entry_ok = report.ok
        if not args.skip_iso:
            iso = verify_iso_homomorphism(entry.descriptor)
            entry_ok = entry_ok and iso.ok
            checks.append({"label": "iso-homomorphism", "ok": iso.ok,
                           "detail": "%d pairs checked" % iso.checked_pairs})
        if not entry_ok:
            failed.append(entry.name)
        summaries.append({"name": entry.name, "ok": entry_ok,
                          "checks": checks})
        lines.append("%s: %s" % (entry.name,
                                 "ok" if entry_ok else "CLAIMS FAILED"))
        for c in checks:
            if not c["ok"]:
                lines.append("  %-26s FAIL  %s" % (c["label"], c["detail"]))
    lines.append("%d/%d entries verified; failing: %s"
                 % (len(entries) - len(failed), len(entries),
                    ", ".join(failed) or "none"))
    payload = {"entries": summaries, "failed": failed,
               "ok": not failed}
    _emit(args, payload, lines)
    return EXIT_OK if not failed else EXIT_CLAIM_FAILED


# -- argument plumbing ---------------------------------------------------

def _add_format(p, extra=()):
    p.add_argument("--format", choices=["text", "json"] + list(extra),
                   default="text")


class _VerbParser(argparse.ArgumentParser):
    """A verb's parser reads its positionals among its options, as in
    ``independence h3 --samples 3 E``; the top-level one, having
    subparsers, cannot."""

    _intermixed = False

    def parse_known_args(self, args=None, namespace=None):
        if self._intermixed:  # the two passes of the intermixed parse
            return super().parse_known_args(args, namespace)
        self._intermixed = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._intermixed = False


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nilflow",
        description="verification toolkit for geodesic-flow first integrals "
                    "on nilpotent Lie groups")
    sub = parser.add_subparsers(dest="verb", required=True,
                                parser_class=_VerbParser)

    p = sub.add_parser("catalog", help="list bundled algebras")
    p.add_argument("name", nargs="?")
    _add_format(p)
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("check", help="verify one bundled entry")
    p.add_argument("name")
    p.add_argument("--samples")
    _add_format(p)
    p.set_defaults(fn=cmd_check)

    for verb, fn in (("derivations", cmd_derivations),
                     ("killing2", cmd_killing2)):
        p = sub.add_parser(verb, help="solve for the %s basis" % verb)
        p.add_argument("name", nargs="?")
        p.add_argument("--file", help="algebra definition file")
        _add_format(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("bracket", help="Poisson bracket of two integrals")
    p.add_argument("name")
    p.add_argument("f")
    p.add_argument("g")
    _add_format(p)
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("involution", help="pairwise brackets of a set")
    p.add_argument("name")
    p.add_argument("integrals", nargs="*")
    _add_format(p)
    p.set_defaults(fn=cmd_involution)

    p = sub.add_parser("independence", help="rank scan of gradients")
    p.add_argument("name")
    p.add_argument("integrals", nargs="*")
    p.add_argument("--samples")
    p.add_argument("--seed", default="0")
    p.add_argument("--exact", action="store_true")
    _add_format(p)
    p.set_defaults(fn=cmd_independence)

    p = sub.add_parser("geodesic", help="integrate the flow, report drift")
    p.add_argument("name")
    p.add_argument("--w0", help="comma-separated initial configuration")
    p.add_argument("--y0", help="comma-separated initial velocity")
    p.add_argument("--dt", default="1e-3")
    p.add_argument("--t", default="10.0")
    p.add_argument("--seed", default="0")
    p.add_argument("--tol", default=repr(DRIFT_TOL))
    p.add_argument("--integrals", nargs="*")
    _add_format(p, extra=("csv",))
    p.set_defaults(fn=cmd_geodesic)

    p = sub.add_parser("quotient", help="lattice invariance of induced maps")
    p.add_argument("name")
    p.add_argument("lattice")
    p.add_argument("integrals", nargs="*")
    p.add_argument("--samples")
    p.add_argument("--seed", default="0")
    _add_format(p)
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("verify",
                       help="re-run every bundled claim across the catalog")
    p.add_argument("names", nargs="*")
    p.add_argument("--samples")
    p.add_argument("--skip-iso", action="store_true")
    _add_format(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def _read_numbers(args):
    """Each number option through ``linalg.plain``, as catalog parameters
    and definition files: not as int() and float() read '1_0' or ' 3'."""
    for key, read in (("samples", int), ("seed", int), ("dt", float),
                      ("t", float), ("tol", float)):
        text = getattr(args, key, None)
        try:
            if text is not None:
                setattr(args, key, read(linalg.plain(text)))
        except ValueError:
            raise ValueError("--%s needs a plain %s, got %r"
                             % (key, read.__name__, text)) from None


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _read_numbers(args)
        if getattr(args, "samples", None) is not None and args.samples < 1:
            raise ValueError("--samples must be at least 1")
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so
        # that the interpreter's own flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
