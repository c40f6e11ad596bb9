"""braceletrank benchmark: one workload per process, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rank_small --seed 1 --seconds 30 --trace 0

The program under test is imported from ``src/`` of the checkout.  Inputs
come only from ``--seed``.  With ``--trace 0`` the run measures the
end-to-end metrics with nothing wrapped; with ``--trace 1`` it measures the
per-layer metrics instead (see ``trace_layers.py``).  Every answer is checked: for
the default seed against ``golden.json``, for any seed against invariants
and the benchmark's own brute-force ranks of small words.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from functools import lru_cache
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")

DEFAULT_SEED = 1
SMALL_N = (4, 16)
SMALL_K = (2, 4)
LARGE_SHAPES = ((100, 2), (60, 4))
UNRANK_SHAPES = ((24, 2), (32, 2), (16, 4))
CYCLE = {"rank_large": len(LARGE_SHAPES), "unrank": len(UNRANK_SHAPES)}
# peak_rss_mb is read after this many operations, two cycles of shapes or a
# few thousand small words, which every window reaches at this commit.  The
# table cache keeps growing until it is full, so the peak over the whole
# window would depend on how many operations the machine's speed allowed.
RSS_OPS = {"rank_large": 4, "rank_small": 2000, "unrank": 6}
# Groups with at most this many words are ranked by brute force in every run.
NAIVE_WORDS = 4096
# Fresh interpreters timed for setup_s; the median is reported.  Each one
# imports braceletrank, prints its first rank and the clock (perf_counter is
# CLOCK_MONOTONIC, shared by all processes), then samples the reference loop
# (see Speed) on the CPU it ran on.
SETUP_RUNS = 9
SETUP_CODE = """\
import time
from braceletrank import rank_bracelet
print(rank_bracelet((0, 1) * 4, 2).rb, time.perf_counter(), flush=True)
import run
speed = run.Speed()
for _ in range(3):
    speed._sample(None, None)
print(speed.slowness())
"""
SETUP_ANSWER = "22"

WORKLOADS = ("rank_large", "rank_small", "unrank")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MiB",
}


def load_program():
    """Import braceletrank from the checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "braceletrank", "__init__.py")):
        sys.exit(f"error: no braceletrank package under {SRC}")
    sys.path.insert(0, SRC)
    import braceletrank
    from braceletrank import api, bounding

    if not os.path.abspath(braceletrank.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: braceletrank imported from {braceletrank.__file__}, not {SRC}")
    return api, bounding


# --- inputs --------------------------------------------------------------

def naive_min_rotation(w):
    return min(w[i:] + w[:i] for i in range(len(w)))


def naive_rep(w):
    """Bracelet representative: smallest rotation of w or of its reversal."""
    return min(naive_min_rotation(w), naive_min_rotation(w[::-1]))


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _totient(m):
    return sum(1 for i in range(1, m + 1) if gcd(i, m) == 1)


def closed_form_bracelets(n, k):
    """B(n, k) = (N + P) / 2 with the necklace count N from the totient
    formula and P the palindromic class count."""
    necklaces = sum(_totient(d) * k ** (n // d) for d in _divisors(n)) // n
    palindromic = (k ** ((n + 1) // 2) + k ** (n // 2 + 1)) // 2
    return (necklaces + palindromic) // 2


def inputs(workload, seed):
    """Endless, deterministic input stream of a workload.

    rank_small: distinct random words, n and k uniform in SMALL_N, SMALL_K.
    rank_large: random necklace representatives, cycling LARGE_SHAPES.
    unrank: (n, k, z) with z uniform in [0, B(n, k)), cycling UNRANK_SHAPES.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "rank_small":
        seen = set()
        while True:
            n, k = rng.randint(*SMALL_N), rng.randint(*SMALL_K)
            w = tuple(rng.randrange(k) for _ in range(n))
            if (w, k) not in seen:
                seen.add((w, k))
                yield w, k
    elif workload == "rank_large":
        for n, k in itertools.cycle(LARGE_SHAPES):
            yield naive_min_rotation(tuple(rng.randrange(k) for _ in range(n))), k
    else:
        totals = {s: closed_form_bracelets(*s) for s in UNRANK_SHAPES}
        for n, k in itertools.cycle(UNRANK_SHAPES):
            yield n, k, rng.randrange(totals[n, k])


def run_op(api, workload, inp):
    if workload == "unrank":
        return api.unrank_bracelet(inp[2], inp[0], inp[1])
    return api.rank_bracelet(inp[0], inp[1])


# --- answer checks -----------------------------------------------------------

def _word_text(w):
    return "".join(map(str, w))


def golden_key(workload, inp):
    """The golden file's record of an input, without its answer."""
    if workload == "unrank":
        return list(inp)
    return [inp[1], _word_text(inp[0])]


def answer_of(workload, out):
    if workload == "unrank":
        return [_word_text(out)]
    return [out.rn, out.rp, out.re, out.rb]


def load_golden():
    with open(GOLDEN) as f:
        return json.load(f)


class NaiveRanks:
    """Exact rn/rp/re/rb of every word of one small (n, k) group, computed
    with the benchmark's own rotation/reflection minimum."""

    def __init__(self, n, k):
        necks, pals, bracs, lo, hi = [], [], [], [], []
        for w in itertools.product(range(k), repeat=n):
            if naive_min_rotation(w) != w:
                continue
            necks.append(w)
            g = naive_min_rotation(w[::-1])
            if g >= w:
                bracs.append(w)
            if g == w:
                pals.append(w)
            elif g > w:
                lo.append(w)
                hi.append(g)
        hi.sort()
        self.lists = necks, pals, bracs, lo, hi

    def ranks(self, v):
        necks, pals, bracs, lo, hi = self.lists
        re = bisect_left(lo, v) - bisect_right(hi, v)
        return [bisect_left(necks, v), bisect_left(pals, v), re, bisect_left(bracs, v)]


@lru_cache(maxsize=None)
def naive_ranks(n, k):
    return NaiveRanks(n, k)


def check(api, workload, seed, records, golden):
    """Indices of the operations whose answers are wrong.

    records: list of (input, output or exception).  Runs outside the timed
    window; the rank(unrank(z)) and count checks call the program again.
    """
    bad = set()
    gold = golden.get(workload, []) if seed == golden.get("seed") else []
    for i, (inp, out) in enumerate(records):
        if isinstance(out, BaseException):
            bad.add(i)
        elif i < len(gold) and gold[i] != golden_key(workload, inp) + answer_of(workload, out):
            bad.add(i)
    ok = [(i, inp, out) for i, (inp, out) in enumerate(records) if i not in bad]
    if workload == "unrank":
        bad |= _check_unrank(api, ok)
    else:
        bad |= _check_ranks(ok)
    for i in sorted(bad)[:3]:
        inp, out = records[i]
        detail = "".join(traceback.format_exception(out)) if isinstance(out, BaseException) else out
        print(f"{workload} operation {i} failed on {inp}: {detail}", file=sys.stderr)
    return bad


def _check_ranks(ok):
    bad = set()
    groups = {}
    for i, (w, k), bd in ok:
        n = len(w)
        adj = int(naive_min_rotation(w) == w and naive_min_rotation(w[::-1]) < w)
        total = closed_form_bracelets(n, k)
        if (bd.word, bd.n, bd.k) != (w, n, k) or 2 * bd.rb != bd.rn + bd.rp + bd.re + adj \
                or not 0 <= bd.rb < total:
            bad.add(i)
        if k ** n <= NAIVE_WORDS and naive_ranks(n, k).ranks(w) != [bd.rn, bd.rp, bd.re, bd.rb]:
            bad.add(i)
        groups.setdefault((n, k), []).append((w, i, bd))
    # ranks never decrease along the sorted words of a group, and every
    # bracelet representative passed raises rb by one
    for group in groups.values():
        group.sort()
        for (w1, _, b1), (w2, i2, b2) in zip(group, group[1:]):
            step = 1 if w1 < w2 and naive_rep(w1) == w1 else 0
            if b2.rb < b1.rb + step or b2.rn < b1.rn or b2.rp < b1.rp:
                bad.add(i2)
    return bad


def _check_unrank(api, ok):
    bad = set()
    for i, (n, k, z), word in ok:
        if len(word) != n or any(not 0 <= x < k for x in word) or naive_rep(word) != word \
                or api.rank_bracelet(word, k).rb != z:
            bad.add(i)
    for n, k in UNRANK_SHAPES:
        ops = sorted((z, word, i) for i, (n2, k2, z), word in ok if (n2, k2) == (n, k))
        if ops and api.count_bracelets(n, k) != closed_form_bracelets(n, k):
            bad |= {i for _, _, i in ops}
        # unrank is strictly increasing in z
        for (z1, w1, _), (z2, w2, i2) in zip(ops, ops[1:]):
            if z1 < z2 and not w1 < w2:
                bad.add(i2)
    return bad


# --- end-to-end run ------------------------------------------------------------

# The machine the bounds were set on drifts in speed by up to +-30 % within
# seconds: one fixed pass of ranks took 0.57-0.99 s back to back, with CPU
# time equal to wall time.  Times are therefore scaled to a nominal speed.
# While a phase is measured, a SIGALRM handler runs a fixed reference loop
# every REF_PERIOD_S, in the same thread between the program's bytecodes, so
# the speed is sampled during each operation, however long.  Like the
# program's DP layers, the loop builds tuple keys, looks them up in a dict
# and counts into another; it frees everything it makes before it returns,
# so it leaves the garbage collector's counts unchanged and never triggers a
# collection of the program's heap.  The handler's time is taken out of
# every measured interval.  REF_NOMINAL_S only fixes the unit: scaled times
# are those of a machine on which the timed loop takes that long.
REF_PERIOD_S = 0.05
REF_STEPS = 3000
REF_NOMINAL_S = 0.0003
# Samples within this distance of an operation give its speed.
REF_WINDOW_S = 0.25
_REF_TABLE = {(i % 7, i % 11, i): (i * 37 + 5) % 1024 for i in range(1024)}


class Speed:
    """Reference-loop samples taken while the context is active."""

    def __init__(self):
        self.ends = []
        self.handler_cum = [0.0]  # all time spent in the handler
        self.timed_cum = [0.0]  # time of the timed, warm runs of the loop

    @staticmethod
    def _loop():
        table, x, counts = _REF_TABLE, 1, {}
        for _ in range(REF_STEPS):
            x = table[x % 7, x % 11, x]
            counts[x & 63] = counts.get(x & 63, 0) + 1

    def _sample(self, signum, frame):
        # the first, untimed run brings the loop's data back into cache, so
        # the timed run measures the machine, not what the program evicted
        t0 = time.perf_counter()
        self._loop()
        t1 = time.perf_counter()
        self._loop()
        t2 = time.perf_counter()
        self.ends.append(t2)
        self.handler_cum.append(self.handler_cum[-1] + t2 - t0)
        self.timed_cum.append(self.timed_cum[-1] + t2 - t1)

    def __enter__(self):
        # one sample on entry and one on exit, so a short phase has some
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)

    def _span(self, t0, t1):
        return bisect_left(self.ends, t0), bisect_right(self.ends, t1)

    def busy(self, t0, t1):
        """Seconds of reference sampling that ended within [t0, t1]."""
        i, j = self._span(t0, t1)
        return self.handler_cum[j] - self.handler_cum[i]

    def slowness(self, t0=float("-inf"), t1=float("inf")):
        """Mean timed-loop time near [t0, t1] over REF_NOMINAL_S: above 1
        on a slow machine.  Falls back to the whole phase."""
        i, j = self._span(t0 - REF_WINDOW_S, t1 + REF_WINDOW_S)
        if i == j:
            i, j = 0, len(self.ends)
        return (self.timed_cum[j] - self.timed_cum[i]) / (j - i) / REF_NOMINAL_S


def measure_setup():
    """Median over fresh interpreters of the time to import braceletrank and
    return a first rank, scaled to nominal speed, and unscaled."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True)
        (answer, t1), (slowness,) = (line.split() for line in out.stdout.splitlines())
        if answer != SETUP_ANSWER:
            raise RuntimeError(f"set-up answer {answer!r}, expected {SETUP_ANSWER}")
        raw.append(float(t1) - t0)
        scaled.append(raw[-1] / float(slowness))
    return statistics.median(scaled), statistics.median(raw)


def timed_window(api, workload, seed, seconds):
    """Closed loop: the next operation starts when the previous one ends,
    until the window has passed and the last cycle of shapes is complete, so
    every shape of a cycling workload has the same share of the samples.
    Returns (records, [(start, end)] per operation, window start and end,
    peak RSS in MiB after RSS_OPS operations, Speed)."""
    stream = inputs(workload, seed)
    cycle = CYCLE.get(workload, 1)
    records, spans = [], []
    with Speed() as speed:
        start = time.perf_counter()
        end = start + seconds
        now = start
        while now < end or len(records) % cycle:
            inp = next(stream)
            t0 = time.perf_counter()
            try:
                out = run_op(api, workload, inp)
            except Exception as e:  # a raising operation counts as failed
                out = e
            now = time.perf_counter()
            spans.append((t0, now))
            records.append((inp, out))
            if len(records) == RSS_OPS[workload]:
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if len(records) < RSS_OPS[workload]:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return records, spans, start, now, rss, speed


def end_to_end(workload, seed, seconds):
    api, _ = load_program()
    setup, setup_raw = measure_setup()
    records, spans, start, stop, rss, speed = timed_window(api, workload, seed, seconds)
    bad = check(api, workload, seed, records, load_golden())
    raw_ms = [(t1 - t0 - speed.busy(t0, t1)) * 1e3 for t0, t1 in spans]
    lat_ms = [ms / speed.slowness(t0, t1) for ms, (t0, t1) in zip(raw_ms, spans)]
    work = stop - start - speed.busy(start, stop)

    def p99(xs):
        # needs two samples; rank_small is the one workload with >= 10 beyond it
        return statistics.quantiles(xs, n=100, method="inclusive")[98] if len(xs) > 1 else xs[0]
    values = {
        "setup_s": setup,
        "ops_per_s": len(records) / work * speed.slowness(),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p99_ms": p99(lat_ms),
        "peak_rss_mb": rss,
    }
    unscaled = {"setup_s": setup_raw, "ops_per_s": len(records) / work,
                "latency_p50_ms": statistics.median(raw_ms), "latency_p99_ms": p99(raw_ms),
                "slowness": speed.slowness(), "reference_samples": len(speed.ends)}
    print(json.dumps({"unscaled": unscaled}), file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return len(records), len(bad), metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.trace:
        import trace_layers

        attempted, failed, metrics = trace_layers.per_layer(args.workload, args.seed, args.seconds)
    else:
        attempted, failed, metrics = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
