"""SubwordTable against a reference built from materialised subwords.

RefTable is the construction the rotation-order table replaced: every
cyclic subword of every length stored as a tuple in a sorted list, and
each transition found by bisecting tuples.  It is slow and O(n^3) in
memory, but each step reads straight off the definition.  The shipped
table must agree with it on every transition, size, position id and
subword.
"""

import random
import tracemalloc
from bisect import bisect_left

import pytest

from braceletrank.bounding import SubwordTable
from util import all_words, naive_min_rotation


class RefTable:
    def __init__(self, p, k):
        self.p, self.k, self.n = tuple(p), k, len(p)
        ext = self.p + self.p
        self.sub, self.pos_id = [[()]], [[0] * self.n]
        for l in range(1, self.n + 1):
            vals = sorted(set(ext[i:i + l] for i in range(self.n)))
            idx = {v: i for i, v in enumerate(vals)}
            self.sub.append(vals)
            self.pos_id.append([idx[ext[i:i + l]] for i in range(self.n)])
        self.size = [len(s) for s in self.sub]

    def code(self, val):
        # 2 * (subwords below val) + [val is a subword]
        vals = self.sub[len(val)]
        i = bisect_left(vals, val)
        return 2 * i + (i < len(vals) and vals[i] == val)

    def _next(self, l, b):
        # the least word above every word of length l strictly below
        # subword b: subword b itself, or (k,) past the last subword
        return self.sub[l][b] if b < self.size[l] else (self.k,)

    def append(self, l, code, x):
        if code % 2:
            return self.code(self.sub[l][code >> 1] + (x,))
        return 2 * bisect_left(self.sub[l + 1], self._next(l, code >> 1))

    def prepend(self, l, code, x):
        if code % 2:
            return self.code((x,) + self.sub[l][code >> 1])
        return 2 * bisect_left(self.sub[l + 1], (x,) + self._next(l, code >> 1))


def _assert_same(p, k):
    t, ref = SubwordTable(p, k), RefTable(p, k)
    assert t.size == ref.size, p
    assert t.width == [2 * s + 1 for s in ref.size], p
    for l in range(t.n + 1):
        assert l == 0 or list(t.sub[l]) == ref.sub[l], (p, l)
        assert t.pos_id[l] == ref.pos_id[l], (p, l)
    for l in range(t.n):
        app, pre = t.append_rows(l), t.prepend_rows(l)
        assert len(app) == len(pre) == k, (p, l)
        for x in range(k):
            assert app[x] == [ref.append(l, c, x) for c in range(t.width[l])], (p, l, x)
            assert pre[x] == [ref.prepend(l, c, x) for c in range(t.width[l])], (p, l, x)


@pytest.mark.parametrize("k,nmax", [(2, 8), (3, 5), (4, 4)])
def test_every_transition_matches_reference(k, nmax):
    for n in range(1, nmax + 1):
        for p in all_words(n, k):
            _assert_same(p, k)


def _scale_patterns():
    rng = random.Random(4)
    out = []
    for n in (10, 17, 24, 31, 40):
        for k in (2, 3, 4):
            out.append((tuple(rng.randrange(k) for _ in range(n)), k))
            out.append(((k - 1,) * n, k))
            for m in (2, 3, 5):  # u^m, trimmed to n
                u = tuple(rng.randrange(k) for _ in range(-(-n // m)))
                out.append(((u * m)[:n], k))
                if n % m == 0:
                    out.append((u[:n // m] * m, k))
    return out


def test_scale_patterns_match_reference():
    for p, k in _scale_patterns():
        _assert_same(p, k)


def _large_patterns():
    rng = random.Random(15)
    out = []
    for n, k in ((60, 4), (90, 3), (120, 2), (100, 4)):
        out.append((naive_min_rotation(tuple(rng.randrange(k) for _ in range(n))), k))
        u = tuple(rng.randrange(k) for _ in range(n // 6))
        out.append((naive_min_rotation(u * 6), k))
        out.append(((0,) * n, k))
        out.append(((0,) * (n - 1) + (1,), k))
    return out


def test_large_patterns_match_reference():
    # every row at every length, past the sizes above: random necklaces,
    # powers u^6, constant words and 0^(n-1)1
    for p, k in _large_patterns():
        _assert_same(p, k)


def _traced_mib(n, seed):
    rng = random.Random(seed)
    word = naive_min_rotation(tuple(rng.randrange(2) for _ in range(n)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = SubwordTable(word, 2)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table.n == n
    return size / 2 ** 20


@pytest.mark.parametrize("n,limit_mib", [(200, 6), (400, 30)])
def test_table_memory_is_quadratic(n, limit_mib):
    # materialised subwords took about 35 MiB at n = 200 and 264 MiB at 400
    assert _traced_mib(n, seed=n) <= limit_mib
