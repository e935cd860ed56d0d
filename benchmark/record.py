"""Write golden.json: the outcomes of one seed-0 pass of every workload.

    python3 benchmark/record.py

The record keeps the bundled defective fixtures visible: a check that
fails at the recorded commit is recorded as failing, and the benchmark
counts any change of it as a deviation.  Re-record only when a change is
meant to alter outcomes, and review the diff of golden.json.

Outcomes hold in two scopes.  ``any_seed`` outcomes must hold for every
seed: verdicts, exact detail strings and bracket digests, and the final
states of the narrow flow, whose starts are fixed.  ``seed0`` outcomes
(the final states of the seeded wide ensemble) are compared only at
seed 0.
"""

import json
import sys
import time

from run import HERE, RUN_LIMIT_S, WORKLOADS, run_child

SEED0_ONLY = ("wide/final",)


def main():
    golden = {}
    for workload in WORKLOADS:
        out = run_child(workload, 0, time.monotonic() + RUN_LIMIT_S)["outcomes"]
        raised = [k for k, v in out.items() if isinstance(v, dict)]
        if raised:
            sys.exit("record: operations raised: %s" % ", ".join(raised))
        golden[workload] = {
            "any_seed": {k: v for k, v in out.items() if k not in SEED0_ONLY},
            "seed0": {k: v for k, v in out.items() if k in SEED0_ONLY},
        }
    with open(HERE / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
