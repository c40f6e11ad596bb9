import gc
import itertools
import json
import os
import random
import sys
import threading
import tracemalloc
from bisect import bisect_left
from collections import Counter

import pytest

import braceletrank
from braceletrank import api, enclosing, necklace, palindromic, words
from braceletrank.api import count_bracelets, rank_bracelet, unrank_bracelet
from braceletrank.memo import word_memo
from braceletrank.oracle import oracle_rank
from memo_sizing import filled_bytes
from util import bracelet_reps, enc, is_necklace, naive_min_rotation


def test_rank_examples():
    assert rank_bracelet(enc("aaaaaaab"), 2).rb == 1
    assert rank_bracelet(enc("abababab"), 2).rb == 22
    bd = rank_bracelet(enc("acc"), 4)
    assert (bd.rn, bd.rp, bd.re, bd.rb) == (8, 5, 1, 7)


def test_count_examples():
    assert count_bracelets(8, 2) == 30
    for k in (1, 2, 3, 4):
        assert count_bracelets(1, k) == k
    assert count_bracelets(3, 4) == 20


def test_unrank_examples():
    assert unrank_bracelet(0, 8, 2) == enc("aaaaaaaa")
    assert unrank_bracelet(29, 8, 2) == enc("bbbbbbbb")
    with pytest.raises(ValueError):
        unrank_bracelet(30, 8, 2)
    with pytest.raises(ValueError):
        unrank_bracelet(-1, 8, 2)


def test_roundtrip_n8():
    reps = bracelet_reps(8, 2)
    assert len(reps) == 30
    for z, rep in enumerate(reps):
        assert rank_bracelet(rep, 2).rb == z
        assert unrank_bracelet(z, 8, 2) == rep


# every (n, k) the oracle reaches cheaply
UNRANK_SHAPES = ([(n, 1) for n in range(1, 7)] + [(n, 2) for n in range(1, 15)]
                 + [(n, 3) for n in range(1, 10)] + [(n, 4) for n in range(1, 7)])


@pytest.mark.parametrize("block", ["search", "walk1", "walk_all"])
def test_unrank_search_and_walk(block, monkeypatch):
    # the search alone (a walk over the last symbol's one-word block), a walk
    # over blocks of one representative, and one walk over all of them
    for n, k in UNRANK_SHAPES:
        size = {"search": 0, "walk1": 1, "walk_all": count_bracelets(n, k)}[block]
        monkeypatch.setattr(api, "WALK_BLOCK", size)
        assert [unrank_bracelet(z, n, k) for z in range(count_bracelets(n, k))] == bracelet_reps(n, k)


def test_golden_unranks():
    """unrank_bracelet beyond the oracle's reach, at z - 1, z, z + 1 for z
    drawn by random.Random(17).randrange(B(n, k)), recorded at commit 2042956,
    whose unrank was a binary search over every position with no walk."""
    golden = {
        (48, 2): (1823308037312, ["aaaabaabaaabababbaabbbababababbbbbbbaabaaaabbaab",
                                  "aaaabaabaaabababbaabbbababababbbbbbbaabaaaabbabb",
                                  "aaaabaabaaabababbaabbbababababbbbbbbaabaaaabbbab"]),
        (64, 2): (119375792145743040,
                  ["aaaabababbbaabbbaabaaababaababaababaabaababaabbaaabbbbababbaabbb",
                   "aaaabababbbaabbbaabaaababaababaababaabaababaabbaaabbbbababbababb",
                   "aaaabababbbaabbbaabaaababaababaababaabaababaabbaaabbbbababbabbab"]),
        (32, 4): (238751586344549568, ["ababbbccacbdbabdcbccdbabcacbacbc",
                                       "ababbbccacbdbabdcbccdbabcacbacbd",
                                       "ababbbccacbdbabdcbccdbabcacbaccb"]),
    }
    for (n, k), (z, texts) in golden.items():
        got = [unrank_bracelet(z + i, n, k) for i in range(3)]
        assert got == [enc(t) for t in texts]
        assert got[0] < got[1] < got[2]


def test_unrank_beyond_one_byte():
    # the walk's blocks over symbols up to 299, which do not fit in one byte
    reps, rng = bracelet_reps(2, 300), random.Random(19)
    for z in [0, len(reps) - 1] + [rng.randrange(len(reps)) for _ in range(20)]:
        assert unrank_bracelet(z, 2, 300) == reps[z]


def test_identity_on_representatives_small():
    for k, nmax in ((2, 7), (3, 5)):
        for n in range(1, nmax + 1):
            for z, rep in enumerate(bracelet_reps(n, k)):
                assert rank_bracelet(rep, k).rb == z


def test_breakdown_identity_and_bounds():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randrange(1, 16)
        k = rng.randrange(2, 5)
        w = tuple(rng.randrange(k) for _ in range(n))
        bd = rank_bracelet(w, k)
        assert 2 * bd.rb == bd.rn + bd.rp + bd.re + bd.mirror_adjust
        assert bd.mirror_adjust in (0, 1)
        assert bd.rp <= bd.rn
        assert bd.re <= bd.rn


def test_mirror_adjust_boundary_case():
    # acb is the larger representative of the apalindromic pair {abc, acb}:
    # the halved sum alone would undercount by one
    bd = rank_bracelet(enc("acb"), 3)
    assert (bd.rn, bd.rp, bd.re) == (5, 4, 0)
    assert bd.mirror_adjust == 1
    assert bd.rb == 5
    assert bd.rb == bisect_left(bracelet_reps(3, 3), enc("acb"))


# every public rank checks and floors its word once, and reverses only a
# word that is its own floor: a non-necklace word, the smaller and the
# larger representative of an apalindromic bracelet, and a palindromic
# necklace.  On cold memos rank_bracelet computes A(f[:d]) once per divisor
# d of n, and reverses every necklace once.
@pytest.mark.parametrize("text,k", [("cab", 3), ("abc", 3), ("acb", 3), ("aabb", 2)])
def test_rank_checks_and_floors_once(text, k, monkeypatch):
    single = [(necklace.rank_necklaces, "necklace"), (enclosing.rank_enclosing, "enclosing"),
              (palindromic.rank_palindromic, "palindromic_necklace")]
    # read before the counters go in, which would count the oracle's reversals
    want = [oracle_rank(kind, enc(text), k) for _, kind in single]
    api._counts_upto.cache_clear()
    enclosing._joint.cache_clear()
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # rebind every import of the three word primitives, as a tracer would
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "braceletrank"]
    for name in ("validate_word", "floor_necklace", "min_rotation"):
        original, wrapper = getattr(words, name), counted(name, getattr(words, name))
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is original:
                    monkeypatch.setattr(m, key, wrapper)
    monkeypatch.setattr(necklace, "_rotation_dp", counted("_rotation_dp", necklace._rotation_dp))
    bd = rank_bracelet(enc(text), k)
    assert bd.rb == bisect_left(bracelet_reps(len(text), k), enc(text))
    assert calls["validate_word"] == calls["floor_necklace"] == 1
    assert calls["_rotation_dp"] == len(necklace.divisors(len(text)))
    assert calls["min_rotation"] == (1 if is_necklace(enc(text)) else 0)
    for (rank, _), answer in zip(single, want):
        calls.clear()
        assert rank(enc(text), k) == answer, rank.__name__
        assert calls["validate_word"] == calls["floor_necklace"] == 1, rank.__name__
        assert calls["min_rotation"] <= is_necklace(enc(text)), rank.__name__


def test_top_word_consistency():
    # two bracelets per apalindromic pair: 2 * total = necklaces + palindromic;
    # and each closed-form count is one plus the rank of the largest word,
    # the rank path it replaced
    from braceletrank.necklace import count_necklaces, rank_necklaces
    from braceletrank.palindromic import rank_palindromic, total_palindromic

    for k in (1, 2, 3, 4):
        for n in range(1, 25):
            top = ((k - 1),) * n
            nn = rank_necklaces(top, k) + 1
            pp = rank_palindromic(top, k) + 1
            assert 2 * count_bracelets(n, k) == nn + pp
            assert rank_bracelet(top, k).rb + 1 == count_bracelets(n, k), (n, k)
            assert (nn, pp) == (count_necklaces(n, k), total_palindromic(n, k)), (n, k)


def _totient(m):
    out, q = 1, 2
    while q * q <= m:
        if m % q == 0:
            out *= q - 1
            m //= q
            while m % q == 0:
                out *= q
                m //= q
        q += 1
    if m > 1:
        out *= m - 1
    return out


def test_count_matches_dihedral_average_at_scale():
    # bracelets = (necklaces + palindromic) / 2, with the necklace count
    # from the totient formula
    from braceletrank.necklace import count_necklaces

    for k in (2, 3):
        for n in range(1, 21):
            neck = sum(_totient(n // d) * k ** d
                       for d in range(1, n + 1) if n % d == 0) // n
            pal = (k ** ((n + 1) // 2) + k ** (n // 2 + 1)) // 2
            assert count_necklaces(n, k) == neck, (n, k)
            assert count_bracelets(n, k) == (neck + pal) // 2, (n, k)


def test_monotone_sampled():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randrange(2, 12)
        k = rng.randrange(2, 5)
        u = tuple(rng.randrange(k) for _ in range(n))
        w = tuple(rng.randrange(k) for _ in range(n))
        if u > w:
            u, w = w, u
        assert rank_bracelet(u, k).rb <= rank_bracelet(w, k).rb


def test_successor_differentials_at_scale():
    # the rank of the lexicographic successor exceeds the rank of v by an
    # explicitly computable 0/1 indicator, pointwise-checking all four
    # ranks far beyond enumeration reach
    from braceletrank.words import min_rotation

    def succ(v, k):
        w = list(v)
        i = len(w) - 1
        while i >= 0 and w[i] == k - 1:
            w[i] = 0
            i -= 1
        if i < 0:
            return None
        w[i] += 1
        return tuple(w)

    rng = random.Random(4)
    checked = 0
    while checked < 120:
        n = rng.choice([rng.randrange(2, 17), rng.randrange(17, 33),
                        rng.randrange(33, 49)])
        k = rng.randrange(2, 5)
        v = tuple(rng.randrange(k) for _ in range(n))
        vp = succ(v, k)
        if vp is None:
            continue
        a, b = rank_bracelet(v, k), rank_bracelet(vp, k)
        neck_v = is_necklace(v)
        mirror = min_rotation(v[::-1])
        assert b.rn - a.rn == (1 if neck_v else 0)
        assert b.rp - a.rp == (1 if neck_v and mirror == v else 0)
        assert b.rb - a.rb == (1 if neck_v and mirror >= v else 0)
        gained = 1 if neck_v and mirror > vp else 0
        lost = 1 if is_necklace(vp) and min_rotation(vp[::-1]) < v else 0
        assert b.re - a.re == gained - lost
        checked += 1


def test_validation_errors():
    with pytest.raises(ValueError):
        rank_bracelet((), 2)
    with pytest.raises(ValueError):
        rank_bracelet((0, 2), 2)
    with pytest.raises(ValueError):
        rank_bracelet((0, 1), 0)
    with pytest.raises(ValueError):
        count_bracelets(0, 2)


PUBLIC = {
    "rank_bracelet", "unrank_bracelet", "count_bracelets", "RankBreakdown",
    "rank_necklaces", "rank_palindromic", "rank_enclosing",
    "Alphabet", "InternalError",
    "enumerate_class", "oracle_rank", "oracle_enclosing", "BudgetExceededError", "DEFAULT_BUDGET",
}


def test_public_surface():
    assert len(braceletrank.__all__) == len(PUBLIC) == 14
    assert set(braceletrank.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(braceletrank, name), name
    namespace = {}
    exec("from braceletrank import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def _memos():
    """Every functools cache in the package's modules, by name."""
    mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "braceletrank"]
    return {f.__qualname__: f for m in mods for f in vars(m).values() if hasattr(f, "cache_info")}


def _clear_memos():
    for memo in _memos().values():
        memo.cache_clear()


def test_memos_are_bounded():
    # the floor memo, the joint-count memo and the one-table cache; an
    # lru_cache reports maxsize None when it is unbounded
    memos = _memos()
    assert {"_counts_upto", "_joint", "cached_table"} <= set(memos)
    for name, memo in memos.items():
        assert memo.cache_info().maxsize is not None, name


def _bytes_left_by(run):
    """(bytes, result): the sizes of the objects run() leaves alive, each
    counted once: the gc-tracked containers it made and the untracked
    objects (ints, tuples of ints) they reach.  This reads within 6 % of
    tracemalloc's count on a (200,2) rank, which tracemalloc slows 25x."""
    gc.collect()
    old = gc.get_objects()  # kept alive, so no new object reuses an id
    known = {id(o) for o in old}
    known |= {id(old), id(known)}
    result = run()
    gc.collect()
    stack = [o for o in gc.get_objects() if id(o) not in known]
    seen, held = set(known), 0
    while stack:
        o = stack.pop()
        if id(o) not in seen:
            seen.add(id(o))
            held += sys.getsizeof(o)
            stack += [r for r in gc.get_referents(o) if not gc.is_tracked(r)]
    return held, result


def test_retained_heap_is_bounded():
    # memory bounded per n: after a cold (200,2) rank the heap keeps its
    # integer memos and at most the last table built, a proper prefix's
    with open(os.path.join(os.path.dirname(__file__), "golden_large.json")) as f:
        rec = next(r for r in json.load(f) if len(r["word"]) == 200 and r["k"] == 2)
    word = tuple(int(c) for c in rec["word"])
    _clear_memos()
    held, rb = _bytes_left_by(lambda: rank_bracelet(word, 2).rb)
    assert rb == int(rec["rb"])
    assert held <= 2 ** 20, f"{held / 2 ** 20:.2f} MiB held"


def test_walk_memory_is_bounded(monkeypatch):
    # memory bounded whatever the block size: with all B(18, 2) = 7,685
    # representatives in one block, the walk streams them (listed, the block
    # alone peaked at 1.5 MiB)
    total = count_bracelets(18, 2)
    monkeypatch.setattr(api, "WALK_BLOCK", total)
    _clear_memos()
    tracemalloc.start()
    try:
        unrank_bracelet(total // 2, 18, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024, f"{peak / 1024:.0f} KiB peak"


@pytest.mark.parametrize("n,k", [(8, 2), (5, 3)])
def test_memo_reuse_is_order_free(n, k):
    # ascending, each non-necklace word reads the counts its floor left;
    # descending, it fills them first
    ws = list(itertools.product(range(k), repeat=n))
    _clear_memos()
    up = [rank_bracelet(w, k) for w in ws]
    _clear_memos()
    down = [rank_bracelet(w, k) for w in reversed(ws)][::-1]
    assert up == down
    for w, bd in zip(ws, up):
        want = [oracle_rank(kind, w, k) for kind in
                ("necklace", "palindromic_necklace", "enclosing", "bracelet")]
        assert [bd.rn, bd.rp, bd.re, bd.rb] == want, w


def _threads_rank_as_one():
    """Four threads rank overlapping word lists at once, on memos emptied
    first, and each gets the answers of a single thread."""
    rng = random.Random(17)
    pool = []
    for _ in range(200):
        k = rng.randrange(2, 5)
        pool.append((tuple(rng.randrange(k) for _ in range(rng.randrange(1, 13))), k))
    large = [(naive_min_rotation(tuple(rng.randrange(2) for _ in range(40))), 2) for _ in range(2)]
    # four overlapping lists, each with both large necklaces, in its own order
    lists = [pool[40 * i:40 * i + 80] + large for i in range(4)]
    for ws in lists:
        rng.shuffle(ws)
    _clear_memos()
    want = [[rank_bracelet(w, k) for w, k in ws] for ws in lists]
    _clear_memos()
    got, start = [None] * 4, threading.Barrier(4)

    def work(i):
        start.wait(timeout=60)
        got[i] = [rank_bracelet(w, k) for w, k in lists[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the DPs
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


def test_threads_share_memos_and_tables():
    _threads_rank_as_one()


def test_threads_share_evicting_memos(monkeypatch):
    # the same with memos of 8 and 6 entries, whose generations turn over
    # many times while the threads rank 186 distinct words
    monkeypatch.setattr(api._counts_upto, "maxsize", 8)
    monkeypatch.setattr(enclosing._joint, "maxsize", 6)
    _threads_rank_as_one()
    for memo in api._counts_upto, enclosing._joint:
        info = memo.cache_info()
        assert info.misses > 10 * info.maxsize and info.currsize <= info.maxsize


def test_memo_generations():
    # two generations of two entries: a hit in the old one moves it to the
    # young one, and a turn drops what the old one still holds
    calls = []

    @word_memo(4)
    def ident(w, k):
        calls.append(w)
        return w[0]

    sizes = []
    for x in (0, 1, 2, 0, 3, 4, 1, 0):
        assert ident((x,), 5) == x
        sizes.append(ident.cache_info().currsize)
    # young {0, 1} -> 2 turns: old {0, 1}, young {2}; 0 moves: old {1},
    # young {2, 0}; 3 turns: old {2, 0}, young {3}, and 1 is dropped; 4:
    # young {3, 4}; 1 misses and turns: old {3, 4}, young {1}, and 0 is
    # dropped, so the last 0 misses too
    assert calls == [(0,), (1,), (2,), (3,), (4,), (1,), (0,)]
    assert sizes == [1, 2, 3, 3, 3, 4, 3, 4]
    assert ident.cache_info() == (1, 7, 4, 4)
    # a bytes key keeps k, and a symbol or k above a byte keeps the tuple
    assert [ident((9,), k) for k in (10, 11, 300)] == [9, 9, 9]
    assert [ident((300,), 301), ident((300, 0), 301)] == [300, 300]
    assert calls[-5:] == [(9,), (9,), (9,), (300,), (300, 0)]
    ident.cache_clear()
    assert ident.cache_info() == (0, 0, 4, 0)


def test_evicting_memos_rank_exactly(monkeypatch):
    # memos of 6 and 4 entries evict all the time; every breakdown equals
    # the oracle's where it reaches and a rank from empty memos elsewhere,
    # across k = 1..4 and a word with symbols beyond one byte (k = 300)
    rng = random.Random(31)
    ws = [(tuple(rng.randrange(k) for _ in range(rng.randrange(1, 9))), k)
          for k in (1, 2, 3, 4) for _ in range(12)]
    ws.append(((299, 3, 280, 0, 3, 256), 300))
    rng.shuffle(ws)
    want = []
    for w, k in ws:
        _clear_memos()
        want.append(rank_bracelet(w, k))
        if k ** len(w) <= 4096:
            assert [want[-1].rn, want[-1].rp, want[-1].re, want[-1].rb] == [
                oracle_rank(kind, w, k) for kind in ("necklace", "palindromic_necklace", "enclosing", "bracelet")]
    monkeypatch.setattr(api._counts_upto, "maxsize", 6)
    monkeypatch.setattr(enclosing._joint, "maxsize", 4)
    _clear_memos()
    for _ in range(2):
        for (w, k), bd in zip(ws, want):
            assert rank_bracelet(w, k) == bd
            for memo in api._counts_upto, enclosing._joint:
                assert memo.cache_info().currsize <= memo.cache_info().maxsize
    assert api._counts_upto.cache_info().misses > len(set(ws))


@pytest.mark.parametrize("n,k,mib", [(16, 4, 3.7), (200, 2, 10.2)])
def test_memo_bytes_when_full(n, k, mib):
    # both memos at capacity, with the entry widths of real counts at
    # (n, k) and keys of length n, stay within README's worst case
    floor, joint = filled_bytes(n, k)
    assert floor + joint <= mib * 2 ** 20, f"{(floor + joint) / 2 ** 20:.2f} MiB"
