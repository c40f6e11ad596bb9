"""Bytes, hit rates and speed of the count memos at several capacities.

First it fills both memos to capacity at n = 16, 100 and 200 (filled_bytes)
and prints the traced bytes per entry and in all.  Then it replays
perfbench's input streams (perfbench/run.py's inputs, seed 1 by default)
through rank_bracelet and unrank_bracelet, once per floor-memo capacity,
with both memos emptied before each replay, and prints one table row per
(workload, capacity): the hit rates of the floor memo (api._counts_upto)
and of the joint-count memo (enclosing._joint), and the operations per
second, unscaled, so compare rows of one run only.  The default lengths
are about one 30-s perfbench window of each workload; 0 skips one.  Run
from the root of a checkout:

    python tests/memo_sizing.py
    python tests/memo_sizing.py --words 20000 --unranks 300 --capacities 4096,24000

The name keeps pytest from collecting it; README's memo tables in "Time
and memory per n" come from it, and tests/test_api.py reads filled_bytes.
"""

import argparse
import gc
import itertools
import os
import sys
import time
import tracemalloc

if __name__ == "__main__":
    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from braceletrank import api, enclosing  # noqa: E402

# the shapes of README's table, each at the largest k of its row
BYTES_SHAPES = ((16, 4), (100, 2), (200, 2))


def filled_bytes(n, k):
    """(floor memo bytes, joint memo bytes): what tracemalloc counts of the
    two memos, each holding as many entries as its capacity allows, all of
    them keyed by a word of length n and valued as real counts are at
    (n, k).  The entries go in through the memos' own insert paths, with
    the counts behind them stubbed out, so no DP runs.  A joint entry's key
    is a proper prefix of a floor, so length n is an upper bound."""
    big = k ** n
    nc, pc, ec = big // n, k ** ((n + 1) // 2), big // (2 * n)
    ec += (ec + nc + pc) % 2  # U + P = 2N + P + E is even
    fresh = itertools.count(big - 2 ** 20)  # J <= k^n, one new int per entry
    stubs = {(api, "SubwordTable"): lambda f, k: None,
             (api, "count_necklaces_upto"): lambda f, k: nc,
             (api, "count_palindromic_upto"): lambda table: pc,
             (api, "count_union_upto"): lambda table: nc + ec,
             (enclosing, "cached_table"): lambda p, k: None,
             (enclosing, "_joint_count"): lambda table: next(fresh)}
    saved = {key: getattr(*key) for key in stubs}
    out = []
    try:
        for (module, name), stub in stubs.items():
            setattr(module, name, stub)
        for memo in api._counts_upto, enclosing._joint:
            memo.cache_clear()
            gc.collect()
            tracemalloc.start()
            # distinct binary words, built by list so that no tuple outlives
            # its call in the interpreter's free lists, where tracemalloc
            # would count it
            low = min(n, memo.maxsize.bit_length())
            try:
                base = tracemalloc.get_traced_memory()[0]
                for i in range(memo.maxsize):
                    memo(tuple([0] * (n - low) + [i >> j & 1 for j in range(low)]), k)
                out.append(tracemalloc.get_traced_memory()[0] - base)
            finally:
                tracemalloc.stop()
            if memo.cache_info().currsize != memo.maxsize // 2 * 2:
                raise RuntimeError(f"{memo.__name__} holds {memo.cache_info()}")
    finally:
        for (module, name), fn in saved.items():
            setattr(module, name, fn)
        for memo in api._counts_upto, enclosing._joint:
            memo.cache_clear()
    return tuple(out)


def replay(workload, ops, seed, capacity, joint):
    """(floor hit rate, joint hit rate, operations per second)."""
    import run  # perfbench/run.py
    memos = api._counts_upto, enclosing._joint
    saved = [memo.maxsize for memo in memos]
    api._counts_upto.maxsize, enclosing._joint.maxsize = capacity, joint
    try:
        for memo in memos:
            memo.cache_clear()
        stream = list(itertools.islice(run.inputs(workload, seed), ops))
        t0 = time.perf_counter()
        for inp in stream:
            run.run_op(api, workload, inp)
        rate = ops / (time.perf_counter() - t0)
        rates = [info.hits / max(1, info.hits + info.misses) for info in (m.cache_info() for m in memos)]
        return rates[0], rates[1], rate
    finally:
        for memo, size in zip(memos, saved):
            memo.maxsize = size
            memo.cache_clear()


def main(argv=None):
    import run
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    ap.add_argument("--words", type=int, default=150_000, help="rank_small words replayed")
    ap.add_argument("--unranks", type=int, default=4_000, help="unrank operations replayed")
    ap.add_argument("--capacities", default=f"4096,8192,16384,{api.FLOOR_MEMO},32768,65536",
                    help="floor-memo capacities, comma-separated")
    ap.add_argument("--joint", type=int, default=enclosing.JOINT_MEMO, help="joint-memo capacity")
    args = ap.parse_args(argv)
    print(f"floor memo {api.FLOOR_MEMO} entries, joint memo {enclosing.JOINT_MEMO} entries")
    print("| n | k | floor entry | joint entry | both memos full |")
    print("|---|---|---|---|---|")
    for n, k in BYTES_SHAPES:
        fb, jb = filled_bytes(n, k)
        print(f"| {n} | {k} | {fb / api.FLOOR_MEMO:,.0f} B | {jb / enclosing.JOINT_MEMO:,.0f} B "
              f"| {(fb + jb) / 2 ** 20:.2f} MiB |", flush=True)
    print(f"\nseed {args.seed}, joint memo {args.joint} entries")
    print("| workload | operations | floor memo | floor hits | joint hits | ops/s |")
    print("|---|---|---|---|---|---|")
    for workload, ops in (("rank_small", args.words), ("unrank", args.unranks)):
        for capacity in map(int, args.capacities.split(",")) if ops else ():
            floor, joint, rate = replay(workload, ops, args.seed, capacity, args.joint)
            print(f"| {workload} | {ops:,} | {capacity:,} | {floor:.1%} | {joint:.1%} | {rate:,.1f} |",
                  flush=True)


if __name__ == "__main__":
    main()
