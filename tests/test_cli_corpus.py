"""A recorded CLI corpus: one sha256 of (exit code, stdout, stderr) for
each of 263 in-process commands, stored in ``cli_corpus.json``.

The CLI's text, its canonical JSON and its exit codes are the program's
regression gates, so a changed digest is an output change.  Each change
is named, command by command, with its reason in CHANGES.md; the digests
are never re-recorded wholesale to make this test pass.

Some commands print floats (``max deviation``, scan fractions, geodesic
drifts), which depend on numpy and the C library.  The digests were
recorded under Python 3.11.7 and numpy 2.4.6; a version that moves a
printed digit changes the output, and that is reported, not skipped.

Record the digests of the commands that have none yet with
``PYTHONPATH=src python tests/test_cli_corpus.py``, which prints the
merged corpus as JSON.
"""

import hashlib
import json
import os
import shlex
import sys

from helpers import ROOT, run_cli
from nilflow import catalog

CORPUS = os.path.join(ROOT, "tests", "cli_corpus.json")

QUOT = "quot(right:X1 / lin:Z)"


def commands():
    """The corpus, as argv lists."""
    out = []
    for name in catalog.names():
        out += [["catalog", name],
                ["check", name, "--samples", "20", "--format", "json"],
                ["derivations", name],
                ["killing2", name],
                ["involution", name],
                ["independence", name, "--samples", "20"]]
    out += [["verify", "--samples", "20"],
            ["verify", "--samples", "20", "--format", "json"],
            ["catalog"],
            ["catalog", "--format", "json"],
            ["bracket", "h3", "right:X1", "right:Y1"],
            ["bracket", "h3", "lin:Z", "E"],
            ["bracket", "h3", "right:X1", "lin:X1"],
            ["bracket", "n3", "right:e3", "right:e1"],
            ["bracket", "n6_19(1)", "right:e3", "right:e5", "--format",
             "json"],
            ["bracket", "n6_22(0)", "butler:1", "E", "--format", "json"],
            ["bracket", "h3", QUOT, "E"],
            ["geodesic", "h3", "--t", "0.05", "--dt", "0.005", "--format",
             "json"],
            ["geodesic", "n1", "--t", "0.05", "--dt", "0.01", "--integrals",
             "E", "der:D", "--format", "json"],
            ["quotient", "h3", "Gamma_2", "--samples", "20"],
            ["quotient", "n3", "Lambda_2", "--samples", "20", "--format",
             "json"],
            ["quotient", "h5", "Gamma_1_1", "right:e1", "--samples", "5"],
            ["independence", "h3", "--exact", "--samples", "10"],
            ["independence", "n3", "--exact", "--samples", "5", "--format",
             "json"],
            ["catalog", "h7"],
            ["check", "h7", "--samples", "5"],
            ["catalog", "r3+h3"],
            ["check", "r3+h3", "--samples", "5"],
            ["catalog", "r+n3"],
            ["bracket", "h3", "nope:e1", "E"],
            ["geodesic"],
            # spellings that name no entry; each once built one under
            # another name, and they are usage errors now
            ["catalog", "h03"],
            ["check", "r0+h3"],
            ["catalog", "r1+h3"],
            # the float chain rule of a quotient-induced gradient
            ["independence", "h3", QUOT, "--samples", "5"],
            ["geodesic", "h3", "--t", "0.05", "--dt", "0.005", "--integrals",
             "E", QUOT],
            ["geodesic", "h3", "--t", "0.01", "--dt", "0.005", "--format",
             "csv"],
            # every float of a step-3 flow, one of them from a seeded start
            ["geodesic", "n6_25", "--t", "0.05", "--dt", "0.005", "--format",
             "csv"],
            ["geodesic", "n1", "--t", "0.05", "--dt", "0.005", "--seed", "3",
             "--format", "csv"],
            ["geodesic", "h3", "--t", "0.05", "--dt", "0.005", "--w0",
             "1,0,1/2", "--y0", "0,1,-1"],
            ["geodesic", "h3", "--t", "1", "--dt", "0.5", "--y0",
             "1e200,1e200,1e200"],
            ["geodesic", "h3", "--dt", "0"],
            # a t that is not a whole number of dt steps, and a dt above t
            ["geodesic", "h3", "--t", "0.05", "--dt", "0.03", "--format",
             "csv"],
            ["geodesic", "h3", "--t", "0.05", "--dt", "0.03", "--format",
             "json"],
            ["geodesic", "h3", "--t", "0.01", "--dt", "0.02"],
            # a flow whose stored trajectory would exceed the memory limit
            ["geodesic", "h3", "--t", "1e12", "--dt", "1"],
            ["quotient", "h3", "Nope"],
            ["quotient", "n2", "Gamma_2"],
            ["check", "h3", "--samples", "0"],
            ["check", "n6_24(3)", "--samples", "5"],
            # an extension of an entry that claims no set
            ["check", "r+n6_23"],
            ["check", "r2+n6_23"],
            # the name grammar [rK+]FAMILY[(q)]: families with and without
            # a parameter, malformed parameters and prefixes, an unlisted
            # Heisenberg algebra and an unliftable extension
            ["catalog", "h4"],
            ["catalog", "h1"],
            ["catalog", "h3(2)"],
            ["catalog", "n6_19"],
            ["catalog", "n6_19(x)"],
            ["catalog", "n6_19(1/0)"],
            ["catalog", "n6_19(1"],
            ["catalog", "zzz"],
            ["catalog", "r+ h3"],
            ["catalog", "r+zzz"],
            ["catalog", "rx+h3"],
            ["catalog", "h9"],
            ["check", "r+h5"],
            # the base of an extension is a family, with its parameter
            ["catalog", "r+n6_19(1)"],
            ["catalog", "r+n6_24(0)"],
            ["catalog", "r+r+h3"],
            ["catalog", "r2+r+h3"],
            # integral specs after a verb's options
            ["independence", "h3", "--samples", "3", "E", "lin:Z"],
            ["involution", "h3", "--format", "json", "E", "lin:Z"],
            ["quotient", "h3", "Gamma_2", "--samples", "5", QUOT],
            # descent verdicts of quotients and polynomials, and the
            # quotients the exact rule refuses (w in den, a nested quotient)
            ["quotient", "h5", "Gamma_1_1", "E", "--samples", "5"],
            ["quotient", "h5", "Gamma_1_1", "lin:e5", "--samples", "5"],
            ["quotient", "h3", "Gamma_2", "--samples", "5",
             "quot(right:X1 / E)"],
            ["quotient", "h3", "Gamma_2", "--samples", "5",
             "quot(right:Y1 / lin:Z)"],
            ["quotient", "h3", "Gamma_2", "quot(right:X1 / right:X1)"],
            ["quotient", "h3", "Gamma_2",
             "quot(quot(right:X1 / lin:Z) / lin:Z)"],
            # names above the dimension limit of 24 are refused unbuilt
            ["check", "r100000+h3"],
            ["catalog", "h101"],
            ["catalog", "r22+h3"],
            ["catalog", "h23"],
            # verify labels an entry by the name it builds
            ["verify", "--skip-iso", "--samples", "3", "n6_19(1.0)"],
            # a parameter is a plain number: no underscore, space or
            # non-ASCII digit
            ["catalog", "n6_19(1_0)"],
            ["catalog", "n6_19( 1)"],
            ["catalog", "n6_19(\u0661)"],
            ["check", "n6_24(1/2)", "--samples", "3"],
            # spec indices are plain decimals up to the dimension
            ["bracket", "h3", "lin:e03", "E"],
            ["bracket", "h3", "lin:e+3", "E"],
            ["bracket", "h3", "right:e0_1", "E"],
            ["bracket", "n6_22(0)", "butler:x", "E"],
            ["bracket", "n6_22(0)", "butler:80", "E"],
            ["bracket", "n6_22(0)", "butler:6", "E", "--format", "json"],
            # every number option is a plain number too
            ["geodesic", "h3", "--t", "0.01", "--dt", "0.005", "--w0",
             "1_0,0,0", "--y0", "0,1,-1", "--format", "csv"],
            ["independence", "h3", "--samples", "1_0"],
            # an empty comma field is counted, so these are usage errors
            ["geodesic", "h3", "--t", "0.01", "--dt", "0.005", "--w0",
             "1,,0,0", "--y0", "0,1,-1", "--format", "csv"],
            ["geodesic", "h3", "--t", "0.01", "--dt", "0.005", "--w0",
             "1,0,0", "--y0", "0,1,-1,", "--format", "csv"],
            # the exact scan expands each gradient before its first draw
            ["independence", "h3", QUOT, "--exact", "--samples", "3"],
            # an exponent beyond the integer digit limit (4300) is refused
            ["catalog", "n6_19(1e5000)"],
            ["geodesic", "h3", "--t", "0.01", "--dt", "0.01", "--w0",
             "1e5000,0,0", "--y0", "0,0,0"],
            ["derivations", "--file", "tests/data/h3_big_exponent.json"]]
    # checked-in definition files, named relative to the repository root
    for path in ("tests/data/h3_metric.json", "tests/data/filiform5.json"):
        for verb in ("derivations", "killing2"):
            out += [[verb, "--file", path],
                    [verb, "--file", path, "--format", "json"]]
    out += [["derivations", "h3", "--file", "tests/data/h3_metric.json"],
            ["killing2"],
            ["killing2", "--file", "tests/data/affine2.json"],
            ["derivations", "--file", "tests/data/abelian25.json"]]
    return out


def digest(argv):
    """sha256 of the exit code, stdout and stderr of one in-process run;
    an argparse rejection counts with its exit code."""
    blob = json.dumps(list(run_cli(argv)))
    return hashlib.sha256(blob.encode()).hexdigest()


def _recorded():
    with open(CORPUS) as fh:
        return json.load(fh)


def test_cli_output_matches_the_recorded_corpus():
    recorded = _recorded()
    argvs = commands()
    keys = [shlex.join(argv) for argv in argvs]
    assert len(set(keys)) == len(keys)
    unrecorded = [key for key in keys if key not in recorded]
    stale = sorted(set(recorded) - set(keys))
    assert not unrecorded and not stale, (
        "commands without a digest: %s; digests without a command: %s"
        % ("; ".join(unrecorded) or "none", "; ".join(stale) or "none"))
    changed = [key for key, argv in zip(keys, argvs)
               if digest(argv) != recorded[key]]
    assert not changed, "output changed: %s" % "; ".join(changed)


if __name__ == "__main__":
    corpus = _recorded() if os.path.exists(CORPUS) else {}
    for argv in commands():
        corpus.setdefault(shlex.join(argv), digest(argv))
    json.dump(corpus, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
