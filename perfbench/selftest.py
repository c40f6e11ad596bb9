"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. The answer checks catch a planted wrong golden value on every workload:
   exactly the operation whose golden answer was changed counts as failed.
2. The per-layer counts of a traced run repeat exactly across two traced
   runs of the same workload and seed, each in its own process.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import run

PLANT_OPS = {"rank_large": 2, "rank_small": 50, "unrank": 2}
COUNTS = (
    "api.unrank.rank_calls_per_op",
    "bounding.tables_built",
    "bounding.table_cache_hit_ratio",
    "bounding.subwords_stored",
    "bounding.transition_memo_entries",
    "necklace.rotation_dp.calls",
    "enclosing.joint_dp.calls",
    "trace.ops",
)


def planted_golden():
    api, _ = run.load_program()
    golden = run.load_golden()
    for workload, count in PLANT_OPS.items():
        stream = run.inputs(workload, golden["seed"])
        records = [(inp, run.run_op(api, workload, inp)) for inp, _ in zip(stream, range(count))]
        if run.check(api, workload, golden["seed"], records, golden):
            sys.exit(f"{workload}: true golden answers reported as failures")
        wrong = copy.deepcopy(golden)
        row = wrong[workload][1]
        if workload == "unrank":
            row[-1] = row[-1][:-1] + ("0" if row[-1][-1] != "0" else "1")
        else:
            row[-1] += 1
        bad = run.check(api, workload, golden["seed"], records, wrong)
        if bad != {1}:
            sys.exit(f"{workload}: planted wrong golden value gave failures {sorted(bad)}")
        print(f"ok  {workload}: planted wrong golden value fails 1 of {count} operations")


def traced_counts(workload):
    out = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
                          "--seed", str(run.DEFAULT_SEED), "--seconds", "1", "--trace", "1"],
                         cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: traced run reported wrong answers: {result}")
    return {name: result["metrics"][name]["value"] for name in COUNTS}


def repeatable_counts():
    for workload in run.WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        if first != second:
            sys.exit(f"{workload}: traced counts differ between runs: {first} vs {second}")
        print(f"ok  {workload}: traced counts repeat exactly: {first}")


if __name__ == "__main__":
    planted_golden()
    repeatable_counts()
