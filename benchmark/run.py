"""nilflow benchmark: three workloads, every pass cold in a fresh interpreter.

    python3 benchmark/run.py --workload verify-catalog --seed 0 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all          # every workload, with a summary

Workloads (BENCHMARK.json says why each exists):

  verify-catalog  the ``nilflow verify`` loop over the 26 catalog entries
                  (verify_entry, then verify_iso_homomorphism), seed passed
                  to the sampled checks
  exact-criteria  exact first-integral, involution and Butler-chain brackets,
                  random instances of the four involution criteria, and
                  exact-path independence scans
  flow            RK4 geodesic integration and conservation reports: narrow
                  (5 starts on each of the 21 complete sets) and wide (256
                  seeded starts on n6_25)

A run starts one discarded warm-up interpreter when bytecode caches are
missing (a user's install has them), then ``SETUP_REPEATS`` set-up-only
interpreters, then cold passes one at a time while the next one is expected
to end within ``--seconds``.  Caches of the program survive only inside
one pass, as in one user invocation.  Each child runs with one BLAS
thread, a fixed hash seed and no ``NILFLOW_SAMPLES``.

With ``--trace 0`` the last line holds the end-to-end metrics, medians
over the run's interpreters: ``wall_s`` (the timed section), ``setup_s``
(import, 26 catalog entries and their Poisson engines), ``peak_rss_mb``,
and ``check_p50_ms`` / ``check_p99_ms``, percentiles of one pass's check
times.  A check is one entry (verify-catalog: 26 a pass, so p99 is mostly
the slowest entry, n3), one exact check (exact-criteria: about 1.3k a
pass) or one integrate-and-report call (flow: p50 is a narrow batch of 5,
dominated by per-call cost; p99 is the wide batch of 256, dominated by
per-row cost).  These times are scaled to host speed by a calibration
slice timed between the units (``workloads.calibration_slice``); the
``run`` line before the result gives the raw wall time and the host's
slowdown against the reference speed.

With ``--trace 1`` a run makes one untraced and one traced pass and reports
the per-layer metrics of ``workloads.layer_metrics``; spans go to
``.bench_trace/``.

Every operation's outcome is compared with ``golden.json``; ``failed``
counts operations that raised or differ from it, and ``correct`` is false
if any did or if the traced counts disagree with the issued ones.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-catalog", "exact-criteria", "flow")
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0
FINAL_STATE_RTOL = 1e-8


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("NILFLOW_SAMPLES", None)
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"})
    return env


def run_child(workload, seed, deadline, trace=False, setup_only=False):
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another pass")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("a %s pass did not end in time" % workload)
    if proc.returncode != 0:
        raise BenchError("a %s pass exited with %d:\n%s"
                         % (workload, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bytecode_cached():
    """Whether every module a pass imports has its bytecode cache."""
    sources = list((ROOT / "src" / "nilflow").glob("*.py"))
    sources += [HERE / "tracer.py"]
    return all(Path(importlib.util.cache_from_source(str(f))).is_file()
               for f in sources)


# -- golden record ----------------------------------------------------------

def expected_outcomes(workload, seed):
    with open(HERE / "golden.json") as fh:
        golden = json.load(fh)[workload]
    expected = dict(golden["any_seed"])
    if seed == 0:
        expected.update(golden["seed0"])
    return expected, set(golden["seed0"])


def same(got, want):
    if isinstance(want, list) and want and isinstance(want[0], float):
        return (isinstance(got, list) and len(got) == len(want)
                and all(abs(g - w) <= FINAL_STATE_RTOL * max(1.0, abs(w))
                        for g, w in zip(got, want)))
    return got == want


def compare(outcomes, expected, seed0_only):
    """(attempted, deviations) of one pass against the golden record."""
    deviations = []
    attempted = 0
    for key in sorted(set(outcomes) | set(expected)):
        if key not in expected and key in seed0_only:
            continue
        attempted += 1
        if key not in outcomes:
            deviations.append("%s: missing" % key)
        elif key not in expected:
            deviations.append("%s: not in the golden record" % key)
        elif not same(outcomes[key], expected[key]):
            deviations.append("%s: got %s, recorded %s"
                              % (key, outcomes[key], expected[key]))
    return attempted, deviations


# -- one run ----------------------------------------------------------------

def run_workload(workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if not bytecode_cached():
        run_child(workload, seed, deadline, setup_only=True)
    setups = [run_child(workload, seed, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_REPEATS)]
    if trace:
        passes = [run_child(workload, seed, deadline),
                  run_child(workload, seed, deadline, trace=True)]
    else:
        passes = []
        while True:
            t = time.monotonic()
            passes.append(run_child(workload, seed, deadline))
            now = time.monotonic()
            if now + (now - t) > start + seconds:
                break

    expected, seed0_only = expected_outcomes(workload, seed)
    attempted = failed = 0
    problems = []
    for p in passes:
        n, dev = compare(p["outcomes"], expected, seed0_only)
        attempted += n
        failed += len(dev)
        problems += dev + p.get("trace_problems", [])
    setups += [p["setup_s"] for p in passes]

    plain = passes[:1] if trace else passes
    rates = {k: statistics.median(p["extra"][k] for p in plain)
             for k in ("narrow_row_steps_per_s", "wide_row_steps_per_s")
             if k in plain[0]["extra"]}
    if trace:
        metrics = dict(passes[1]["layers"])
        metrics["trace.overhead_s"] = (passes[1]["raw_wall_s"]
                                       - passes[0]["raw_wall_s"])
        for k in ("narrow_row_steps_per_s", "wide_row_steps_per_s"):
            metrics["geodesic." + k] = rates.get(k, 0.0)
    else:
        for p in passes:
            cuts = statistics.quantiles([p["times"][k] for k in p["checks"]],
                                        n=100, method="inclusive")
            p["check_p50_ms"], p["check_p99_ms"] = cuts[49] * 1e3, cuts[98] * 1e3
        metrics = {k: statistics.median(p[k] for p in passes) for k in (
            "wall_s", "peak_rss_mb", "check_p50_ms", "check_p99_ms")}
        metrics["setup_s"] = statistics.median(setups)
    info = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "passes": len(passes), "setups": len(setups),
        "checks": sum(len(p["checks"]) for p in passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "fail_ratio": failed / attempted if attempted else 1.0,
        "python": sys.version.split()[0], "numpy": passes[0]["numpy"],
        "cores": os.cpu_count(), "blas_threads": 1,
        "sizes": passes[0]["sizes"], **rates,
    }
    for k in ("raw_wall_s", "host_slowdown"):
        info[k] = statistics.median(p[k] for p in passes)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": with_units(metrics, trace)}, info, problems


def with_units(metrics, trace):
    """The metrics BENCHMARK.json declares for this mode, with their units."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError("metrics not measured: %s" % ", ".join(missing))
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nilflow" / "__init__.py").is_file():
        print("benchmark: no nilflow sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        try:
            result, info, problems = run_workload(name, args.seed,
                                                  args.seconds, bool(args.trace))
        except BenchError as exc:
            print("benchmark: %s" % exc, file=sys.stderr)
            return 2
        ok = ok and result["correct"]
        for p in problems[:20]:
            print("benchmark: %s: %s" % (name, p), file=sys.stderr)
        print(json.dumps({"run": info}))
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows.append(("fail_ratio", info["fail_ratio"], "ratio"))
        rows += [(k, info[k], "1/s") for k in ("narrow_row_steps_per_s",
                                               "wide_row_steps_per_s")
                 if k in info]
        for k, v, u in rows:
            print("%-16s %-52s %14.6g %s" % (name, k, v, u))
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
