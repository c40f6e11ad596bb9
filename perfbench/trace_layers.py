"""Traced run of the braceletrank benchmark: per-layer spans and counts.

The tracer rebinds module attributes in-process, never editing the
package: every name in a braceletrank module that refers to a layer's
entry point is replaced by a wrapper that records a span (operation id,
span id, parent span id, name, start, end), and is put back afterwards.
``append_bound`` and ``prepend_bound`` are left alone: they run millions
of times per large rank and a wrapper would swamp the trace.

A run repeats pairs of passes over the same fixed inputs (the first
``PASS_OPS[workload]`` operations of the workload's stream): one pass
untraced, one traced, with the table cache emptied before each so both
start cold.  Counts come from the first traced pass and repeat exactly for
a given seed; seconds are medians over the traced passes, scaled to nominal
speed like the end-to-end times (see ``run.Speed``); the tracing
overhead compares the traced passes with the untraced ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import time
import tracemalloc
import weakref

import run

# Operations per pass: one of each shape for the large workloads.
PASS_OPS = {"rank_large": len(run.LARGE_SHAPES), "rank_small": 300,
            "unrank": len(run.UNRANK_SHAPES)}
TABLE_MB_N = 200
SPANS_DIR = os.path.join(run.ROOT, ".perfbench")

# (module, attribute, span name) of each traced entry point.
ENTRY_POINTS = (
    ("api", "rank_bracelet", "api.rank_bracelet"),
    ("api", "count_bracelets", "api.count_bracelets"),
    ("api", "unrank_bracelet", "api.unrank_bracelet"),
    ("words", "floor_necklace", "words.floor_necklace"),
    ("words", "min_rotation", "words.min_rotation"),
    ("necklace", "rank_necklaces", "necklace.rank_necklaces"),
    ("necklace", "_rotation_dp", "necklace.rotation_dp"),
    ("palindromic", "rank_palindromic", "palindromic.rank_palindromic"),
    ("enclosing", "rank_enclosing", "enclosing.rank_enclosing"),
    ("enclosing", "_joint_count", "enclosing.joint_dp"),
    ("cli", "main", "cli.main"),
)

# README examples run through cli.main, with the output each must print.
CLI_EXAMPLES = (
    ("rank --alphabet ab --word abababab --set bracelet", "22"),
    ("rank --alphabet abcd --word acc --breakdown", "rn=8 rp=5 re=1 rb=7"),
    ("rank --alphabet ab --word abababab --json",
     '{"word": "abababab", "n": 8, "k": 2, "rn": "28", "rp": "16", "re": "0", "rb": "22"}'),
    ("unrank --alphabet ab --length 8 --index 0", "aaaaaaaa"),
    ("unrank --alphabet ab --length 8 --index 23 --one-based", "abababab"),
    ("count --alphabet ab --length 8 --set bracelet", "30"),
    ("enumerate --alphabet abcd --set enclosing --word acc", "abd"),
)

PER_LAYER = {
    "api.rank_bracelet.self_s": "s",
    "api.count_bracelets.s": "s",
    "api.unrank.rank_calls_per_op": "count",
    "words.floor_necklace.s": "s",
    "words.min_rotation.s": "s",
    "bounding.table_build.s": "s",
    "bounding.tables_built": "count",
    "bounding.table_cache_hit_ratio": "ratio",
    "bounding.subwords_stored": "count",
    "bounding.transition_memo_entries": "count",
    "bounding.table_mb_n200": "MiB",
    "necklace.rank_necklaces.s": "s",
    "necklace.rotation_dp.s": "s",
    "necklace.rotation_dp.calls": "count",
    "palindromic.rank_palindromic.s": "s",
    "enclosing.rank_enclosing.s": "s",
    "enclosing.joint_dp.s": "s",
    "enclosing.joint_dp.calls": "count",
    "cli.main.s": "s",
    "trace.ops": "count",
    "trace.pass_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Spans of one pass, kept in memory, and the sizes of the tables it
    built: subwords when built, memo entries when freed."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.stack = []
        self.op = 0
        self.subwords = 0
        self.memo = 0
        self._saved = []

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.spans[sid] = (self.op, sid, parent, name, t0, t1)
        return traced

    def __enter__(self):
        for mod, attr, name in ENTRY_POINTS:
            original = getattr(self.modules[mod], attr)
            wrapper = self._wrap(name, original)
            # rebind every import of the entry point, so calls between
            # modules go through the wrapper too
            for m in self.modules.values():
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._saved.append((m, key, val))
                        setattr(m, key, wrapper)
        table_cls = self.modules["bounding"].SubwordTable
        build = self._wrap("bounding.table_build", table_cls.__init__)

        def init(table, *args, **kwargs):
            build(table, *args, **kwargs)
            self.subwords += sum(len(s) for s in table.sub[1:])
            weakref.finalize(table, self._count_memo, table._app_cache, table._pre_cache)

        self._saved.append((table_cls, "__init__", table_cls.__init__))
        table_cls.__init__ = init
        return self

    def __exit__(self, *exc):
        for obj, key, val in reversed(self._saved):
            setattr(obj, key, val)
        self._saved.clear()

    def _count_memo(self, app, pre):
        self.memo += len(app) + len(pre)

    def totals(self, speed):
        """Per span name: calls, inclusive seconds and self seconds, without
        the reference loop and scaled to nominal speed like the pass."""
        slow = speed.slowness()
        length = [(t1 - t0 - speed.busy(t0, t1)) / slow for _, _, _, _, t0, t1 in self.spans]
        child = [0.0] * len(self.spans)
        for _, sid, parent, _, _, _ in self.spans:
            if parent is not None:
                child[parent] += length[sid]
        out = {}
        for _, sid, _, name, _, _ in self.spans:
            calls, incl, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + length[sid], own + length[sid] - child[sid])
        return out

    def write(self, path):
        base = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as f:
            for op, sid, parent, name, t0, t1 in self.spans:
                f.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                    "start": t0 - base, "end": t1 - base}) + "\n")


def _modules():
    import braceletrank
    from braceletrank import api, bounding, cli, enclosing, necklace, oracle, palindromic, words

    return {"braceletrank": braceletrank, "api": api, "bounding": bounding, "cli": cli,
            "enclosing": enclosing, "necklace": necklace, "oracle": oracle,
            "palindromic": palindromic, "words": words}


def _pass(api, bounding, workload, batch, tracer=None):
    """Run the batch once from a cold table cache.  Returns the seconds it
    took at nominal speed (see run.Speed), the records, the Speed samples
    and the table cache's hits and misses."""
    bounding.cached_table.cache_clear()
    records = []
    with run.Speed() as speed, tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        for i, inp in enumerate(batch):
            if tracer is not None:
                tracer.op = i
            try:
                out = run.run_op(api, workload, inp)
            except Exception as e:  # counted as a failed operation
                out = e
            records.append((inp, out))
        stop = time.perf_counter()
    info = bounding.cached_table.cache_info()
    bounding.cached_table.cache_clear()  # frees the tables, counting their memos
    seconds = (stop - start - speed.busy(start, stop)) / speed.slowness()
    return seconds, records, speed, info.hits, info.misses


def table_mb(bounding, seed):
    """Traced heap size, in MiB, of one SubwordTable for a seeded n=200
    binary necklace."""
    rng = random.Random(f"table_mb:{seed}")
    word = run.naive_min_rotation(tuple(rng.randrange(2) for _ in range(TABLE_MB_N)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = bounding.SubwordTable(word, 2)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del table
    return size / 2 ** 20


def cli_seconds(modules):
    """Seconds spent in cli.main over the README examples, each checked."""
    tracer = Tracer(modules)
    with run.Speed() as speed, tracer:
        for line, expected in CLI_EXAMPLES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = modules["cli"].main(line.split())
            if code != 0 or buf.getvalue().strip() != expected:
                raise RuntimeError(f"cli {line!r} printed {buf.getvalue()!r}, exit {code}")
    return tracer.totals(speed)["cli.main"][1]


def per_layer(workload, seed, seconds):
    api, bounding = run.load_program()
    modules = _modules()
    golden = run.load_golden()
    batch = [x for x, _ in zip(run.inputs(workload, seed), range(PASS_OPS[workload]))]
    mb_n200 = table_mb(bounding, seed)  # first, while the heap is as after import
    plain, traced, summaries = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        t_plain, rec_plain, _, _, _ = _pass(api, bounding, workload, batch)
        tracer = Tracer(modules)
        t_traced, rec_traced, speed, hits, misses = _pass(api, bounding, workload, batch, tracer)
        if not summaries:
            os.makedirs(SPANS_DIR, exist_ok=True)
            tracer.write(os.path.join(SPANS_DIR, f"spans-{workload}-{seed}.jsonl"))
        plain.append(t_plain)
        traced.append(t_traced)
        summaries.append({"spans": tracer.totals(speed), "hits": hits, "misses": misses,
                          "subwords": tracer.subwords, "memo": tracer.memo})
        for records in (rec_plain, rec_traced):
            attempted += len(records)
            failed += len(run.check(api, workload, seed, records, golden))
        if time.perf_counter() - start + (time.perf_counter() - pair_start) > seconds:
            break

    first = summaries[0]

    def seconds_of(name, column=1):
        # median over traced passes of inclusive (column 1) or self (2) time
        return statistics.median(s["spans"].get(name, (0, 0.0, 0.0))[column] for s in summaries)

    def calls(name):
        return first["spans"].get(name, (0,))[0]

    values = {
        "api.rank_bracelet.self_s": seconds_of("api.rank_bracelet", 2),
        "api.count_bracelets.s": seconds_of("api.count_bracelets"),
        "api.unrank.rank_calls_per_op":
            calls("api.rank_bracelet") / len(batch) if workload == "unrank" else 0,
        "words.floor_necklace.s": seconds_of("words.floor_necklace"),
        "words.min_rotation.s": seconds_of("words.min_rotation"),
        "bounding.table_build.s": seconds_of("bounding.table_build"),
        "bounding.tables_built": calls("bounding.table_build"),
        "bounding.table_cache_hit_ratio": first["hits"] / max(1, first["hits"] + first["misses"]),
        "bounding.subwords_stored": first["subwords"],
        "bounding.transition_memo_entries": first["memo"],
        "bounding.table_mb_n200": mb_n200,
        "necklace.rank_necklaces.s": seconds_of("necklace.rank_necklaces"),
        "necklace.rotation_dp.s": seconds_of("necklace.rotation_dp"),
        "necklace.rotation_dp.calls": calls("necklace.rotation_dp"),
        "palindromic.rank_palindromic.s": seconds_of("palindromic.rank_palindromic"),
        "enclosing.rank_enclosing.s": seconds_of("enclosing.rank_enclosing"),
        "enclosing.joint_dp.s": seconds_of("enclosing.joint_dp"),
        "enclosing.joint_dp.calls": calls("enclosing.joint_dp"),
        "cli.main.s": cli_seconds(modules),
        "trace.ops": len(batch),
        "trace.pass_s": statistics.median(traced),
        # the passes of a pair run back to back, so compare within pairs
        "trace.overhead_pct": 100 * (statistics.median(b / a for a, b in zip(plain, traced)) - 1),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return attempted, failed, metrics
