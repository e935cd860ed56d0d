"""The benchmark's tracer wraps functions and methods of nilflow by name,
and its set-up raises on any name it cannot bind.  Running that set-up
here makes a renamed or deleted name fail the test suite as well as the
benchmark."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_tracer_binds_every_name():
    # --setup-only imports nilflow, binds the tracer and builds the catalog;
    # it runs no workload and writes no file
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmark", "workloads.py"),
         "--workload", "verify-catalog", "--trace", "--setup-only"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert res.returncode == 0, res.stderr
