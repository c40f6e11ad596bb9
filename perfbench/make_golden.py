"""Write golden.json: exact answers to the default seed's first inputs.

    python3 perfbench/make_golden.py

Run it only at a commit whose answers are trusted.  Every rank input whose
(n, k) group has at most ORACLE_WORDS words is cross-checked against the
brute-force ``braceletrank.oracle`` first, and every answer must pass the
benchmark's own checks; the script writes nothing if one fails.
"""

from __future__ import annotations

import json
import os
import sys
from bisect import bisect_left, bisect_right

import run

# Enough inputs to cover a whole timed window of the program this was made
# with, with room to spare.
COUNTS = {"rank_small": 12000, "rank_large": 12, "unrank": 60}
# The oracle scans all k^n words three times per group; 2^16 keeps a group
# to seconds (a full 2^24 budget would take about half an hour).
ORACLE_WORDS = 2 ** 16


def oracle_ranks(oracle, min_rotation, n, k):
    """rn/rp/re/rb of any word of length n by bisecting the oracle's sorted
    class lists; re counts the necklace pairs <b> < v < <reverse(b)>, as
    oracle_enclosing does."""
    necks = oracle.enumerate_class("necklace", n, k, ORACLE_WORDS)
    pals = oracle.enumerate_class("palindromic_necklace", n, k, ORACLE_WORDS)
    bracs = oracle.enumerate_class("bracelet", n, k, ORACLE_WORDS)
    pairs = [(w, g) for w in necks for g in [min_rotation(w[::-1])] if g > w]
    lo = [w for w, _ in pairs]
    hi = sorted(g for _, g in pairs)

    def ranks(v):
        re = bisect_left(lo, v) - bisect_right(hi, v)
        return [bisect_left(necks, v), bisect_left(pals, v), re, bisect_left(bracs, v)]
    return ranks


def main():
    api, _ = run.load_program()
    from braceletrank import oracle
    from braceletrank.words import min_rotation

    golden = {"seed": run.DEFAULT_SEED}
    checked = 0
    groups = {}
    for workload, count in COUNTS.items():
        stream = run.inputs(workload, run.DEFAULT_SEED)
        records = [(inp, run.run_op(api, workload, inp)) for inp, _ in zip(stream, range(count))]
        bad = run.check(api, workload, run.DEFAULT_SEED, records, {})
        if bad:
            sys.exit(f"{workload}: {len(bad)} answers fail the benchmark's checks")
        for inp, out in records:
            if workload == "unrank" or inp[1] ** len(inp[0]) > ORACLE_WORDS:
                continue
            (w, k), n = inp, len(inp[0])
            if (n, k) not in groups:
                groups[n, k] = oracle_ranks(oracle, min_rotation, n, k)
            if groups[n, k](w) != [out.rn, out.rp, out.re, out.rb]:
                sys.exit(f"oracle disagrees at {w} k={k}: {out}")
            checked += 1
        golden[workload] = [run.golden_key(workload, inp) + run.answer_of(workload, out)
                            for inp, out in records]
    path = os.path.join(run.HERE, "golden.json")
    with open(path, "w") as f:
        f.write("{\n")
        f.write(f'"seed": {golden.pop("seed")},\n')
        parts = []
        for workload, rows in golden.items():
            body = ",\n".join(json.dumps(r) for r in rows)
            parts.append(f'"{workload}": [\n{body}\n]')
        f.write(",\n".join(parts) + "\n}\n")
    print(f"wrote {path}: {sum(map(len, golden.values()))} answers, "
          f"{checked} rank inputs cross-checked against the oracle")


if __name__ == "__main__":
    main()
