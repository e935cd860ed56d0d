"""Self-tests of the benchmark itself, not of nilflow.

    python3 benchmark/selftest.py

1. One traced pass per workload at seed 0.  Its traced counts must equal
   the counts the workload issued (26 ``verify_entry`` spans, four field
   calls per RK4 step, at least one bracket span per bracket check), the
   tracer must have rebound every lookup site (``workloads.install``
   raises otherwise), and every outcome must match golden.json.
2. The gate trips: changing one recorded outcome in a copy of the golden
   record (a verdict of a defective fixture, a bracket digest, a final
   flow state) must make the comparison report exactly that deviation.
"""

import copy
import sys
import time

from run import RUN_LIMIT_S, WORKLOADS, compare, expected_outcomes, run_child

CHANGED = {
    "verify-catalog": "n1/set-involutive",
    "exact-criteria": "inv/n1/0,4",
    "flow": "narrow/h3/final",
}


def changed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value[0], float):
        return [value[0] * (1 + 1e-6) + 1e-6] + value[1:]
    return [not value[0]] + value[1:]


def main():
    failures = []
    for workload in WORKLOADS:
        p = run_child(workload, 0, time.monotonic() + RUN_LIMIT_S, trace=True)
        expected, seed0_only = expected_outcomes(workload, 0)
        failures += ["%s: %s" % (workload, t) for t in p["trace_problems"]]
        _, dev = compare(p["outcomes"], expected, seed0_only)
        failures += ["%s: %s" % (workload, d) for d in dev]

        key = CHANGED[workload]
        wrong = copy.deepcopy(expected)
        wrong[key] = changed(wrong[key])
        _, dev = compare(p["outcomes"], wrong, seed0_only)
        if len(dev) != 1 or not dev[0].startswith(key + ":"):
            failures.append("%s: changing %s in the record gave %s"
                            % (workload, key, dev))
        print("%-16s traced counts and gate: %s" % (
            workload, "ok" if not failures else "FAILED"), flush=True)
    for f in failures:
        print("selftest: %s" % f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
