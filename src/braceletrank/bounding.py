"""Ordered cyclic-subword sets of a pattern word and bounding transitions.

For a pattern v of length n, S(v, l) is the lexicographically sorted,
deduplicated set of cyclic subwords of v of length l.  A word w (|w| = l,
w not itself a subword) is *strictly bounded* by the largest subword
s in S(v, l) with s < w; no subword lies in (s, w].  The tables built here
answer, memoised on first use, how that bound evolves when a symbol is
appended or prepended to w, which is what the joint and palindromic DPs
run on.

The DPs run on one integer bound code per word, and code order is word
order.  At length l a word w has code 2b + h, where b is the number of
subwords of length l below w and h = 1 exactly when w is subword b.  So
w equals subword i at code 2i + 1, lies strictly between subwords b-1 and
b at the even code 2b, and compares with subword i as its code does with
2i + 1.  The empty word is the one subword of length 0, at code 1.
Transitions on codes are memoised in flat arrays and filled on first use.

No subword is stored.  The n rotations of v are sorted once; the cyclic
subwords of length l are the length-l prefixes of the rotations, and
subword i is the i-th run of adjacent rotations in that order sharing their
first l symbols.  Per length the table keeps the run of every order
position and the first position of every run, and each transition is
rank arithmetic on those arrays: O(n^2) integers in all.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

from .words import _failure


class _Subwords:
    """S(v, l) as a read-only sequence: item g slices v.v at the start of
    the first rotation of group g."""

    __slots__ = ("ext", "starts", "l")

    def __init__(self, ext, starts, l):
        self.ext, self.starts, self.l = ext, starts, l

    def __len__(self):
        return len(self.starts)

    def __getitem__(self, g):
        i = self.starts[g]
        return self.ext[i:i + self.l]


class SubwordTable:
    """Subword order of a pattern plus its matching automaton.

    Attributes:
        p: the pattern word (tuple of symbol indices)
        n, k: pattern length and alphabet size
        ext, order: p + p, and the rotation starts of p sorted by rotation
        grp[l][r]: index in S(p, l) of the length-l prefix of the rotation
            at order position r; the groups are runs of the order, and
            grp[l][n] = S_l
        first[l][g]: first order position of group g, first[l][S_l] = n
        sub[l]: S(p, l) as a sequence view (item g is a tuple), for l >= 1
        pos_id[l][start]: index in S(p, l) of the subword starting at start
        prefix_id[l]: index of p[:l] in S(p, l)
        below[x]: number of rotations starting with a symbol below x
        tail[x]: sorted order positions of rotation j+1 over j with p[j] = x
        delta[j][x]: longest-suffix-matching-prefix automaton of p
        fail, chain, thresh: failure links, border chains, and the minimal
            next symbol that avoids creating a suffix below a prefix of p
        size[l], width[l]: S_l and the number of codes (2*S_l + 1) at length
            l; at l = 0 the empty word is the one group, spanning every
            order position
        rotations: the number of words whose rotations all lie above p,
            computed once per table by the necklace module

    Lengths with as many groups as the previous length share its lists: the
    groups only split as l grows, so an equal count means equal groups.

    Tables are shared through cached_table and fill their transition memos
    and rotations lazily.  Each entry is a pure function of (p, k): concurrent
    users can at worst compute one twice and store equal values.  The joint
    count and the counts up to a floor are kept as integers outside the
    table (enclosing._joint, api._counts_upto), so they outlive it.
    """

    def __init__(self, p, k: int):
        if len(p) == 0:
            raise ValueError("empty pattern")
        if any(x < 0 or x >= k for x in p):
            raise ValueError("symbol index out of range")
        self.p = p = tuple(p)
        self.k = k
        self.n = n = len(p)
        self.ext = ext = p + p
        self.order = order = sorted(range(n), key=lambda i: ext[i:i + n])
        rank = [0] * n
        for r, i in enumerate(order):
            rank[i] = r
        # lcp[r]: symbols shared by the rotations at order positions r-1, r
        lcp = [0] * n
        for r in range(1, n):
            a, b, h = order[r - 1], order[r], 0
            while h < n and ext[a + h] == ext[b + h]:
                h += 1
            lcp[r] = h
        first, grp, pos, starts = [0, n], [0] * n + [1], [0] * n, [order[0]]
        self.grp, self.first, self.pos_id = [grp] * (n + 1), [first] * (n + 1), [pos] * (n + 1)
        self.sub, self.size = [None] * (n + 1), [1] * (n + 1)
        for l in range(1, n + 1):
            cuts = [r for r in range(1, n) if lcp[r] < l]
            if len(cuts) + 1 != self.size[l - 1]:
                first, grp = [0] + cuts + [n], [0] * (n + 1)
                for r in range(1, n):
                    grp[r] = grp[r - 1] + (lcp[r] < l)
                grp[n] = len(first) - 1
                pos, starts = [grp[r] for r in rank], [order[r] for r in first[:-1]]
            self.grp[l], self.first[l], self.pos_id[l] = grp, first, pos
            self.sub[l], self.size[l] = _Subwords(ext, starts, l), len(starts)
        self.prefix_id = [pos[0] for pos in self.pos_id]
        self.below = [sum(y < x for y in p) for x in range(k)]
        # rotation j is p[j] followed by rotation j+1
        self.tail = [sorted(rank[(j + 1) % n] for j in range(n) if p[j] == x) for x in range(k)]
        self.fail = _failure(p)
        self.delta = [[0] * k for _ in range(n + 1)]
        for j in range(n + 1):
            for x in range(k):
                if j < n and x == p[j]:
                    self.delta[j][x] = j + 1
                elif j == 0:
                    self.delta[j][x] = 0
                else:
                    self.delta[j][x] = self.delta[self.fail[j]][x]
        self.chain = [[] for _ in range(n + 1)]
        for j in range(1, n + 1):
            c, jj = [], j
            while jj:
                c.append(jj)
                jj = self.fail[jj]
            self.chain[j] = c
        # thresh[j]: appending any x >= thresh[j] keeps every suffix of the
        # grown word at least the p-prefix of its length
        self.thresh = [p[0]] * (n + 1)
        for j in range(1, n + 1):
            t = self.thresh[self.fail[j]]
            self.thresh[j] = max(t, p[j]) if j < n else t
        # the transition from code c at length l on symbol x sits at
        # base[l] + c*k + x of the append/prepend memo, -1 until first use
        self.width = [2 * s + 1 for s in self.size]
        self.base = [0] * (n + 1)
        for l in range(n):
            self.base[l + 1] = self.base[l] + self.width[l] * k
        self._app_cache = [-1] * self.base[n]
        self._pre_cache = [-1] * self.base[n]
        self.rotations = None

    # ---- bound-state transitions ----

    def append_code(self, l: int, code: int, x: int) -> int:
        """Code of w.x at length l+1, given the code of w at length l.
        Correct for every w in the class the code describes."""
        i = self.base[l] + code * self.k + x
        r = self._app_cache[i]
        if r < 0:
            r = self._app_cache[i] = self._append(l, code, x)
        return r

    def prepend_code(self, l: int, code: int, x: int) -> int:
        """Code of x.w at length l+1, given the code of w at length l."""
        i = self.base[l] + code * self.k + x
        r = self._pre_cache[i]
        if r < 0:
            r = self._pre_cache[i] = self._prepend(l, code, x)
        return r

    # A code at length l spans the order positions first[l][code >> 1] up
    # to first[l][(code + 1) >> 1]: its subword's run when odd, the empty
    # boundary before run code >> 1 when even.  A grown word lands on a
    # group boundary r of the next length, where its code is 2*grp[r], plus
    # 1 if it is the group there.

    def _append(self, l, code, x):
        first, grp = self.first[l], self.grp[l + 1]
        lo, hi = first[code >> 1], first[(code + 1) >> 1]
        if lo == hi:  # a word between two runs stays between their extensions
            return 2 * grp[lo]
        # the run's rotations continue with non-decreasing symbols
        ext, order = self.ext, self.order
        r = bisect_left(order, x, lo, hi, key=lambda i: ext[i + l])
        return 2 * grp[r] + (r < hi and ext[order[r] + l] == x)

    def _prepend(self, l, code, x):
        # x.w lies among the rotations starting with x, ordered by their tails
        tail, first = self.tail[x], self.first[l]
        i = bisect_left(tail, first[code >> 1])
        hit = i < len(tail) and tail[i] < first[(code + 1) >> 1]
        return 2 * self.grp[l + 1][self.below[x] + i] + hit

    def wrap_ok(self, j: int, code: int) -> bool:
        """Whether the wrapped rotations of a finished word of length n all
        lie above p: at each border m of the final match state j, the
        rotation there is p[:m] then the word's own prefix, so comparing
        the word (bound code at length n) with the cyclic subword of p at m
        settles it."""
        pos = self.pos_id[self.n]
        return all(code > 2 * pos[m % self.n] + 1 for m in self.chain[j])


@lru_cache(maxsize=64)
def cached_table(p: tuple, k: int) -> SubwordTable:
    """Shared tables: one query's counts read the same prefixes, and so do
    unrank's probes.  The counts themselves are memoised as integers."""
    return SubwordTable(p, k)


def _strict_rows(table: SubwordTable, step) -> dict:
    # (l, s, x) -> strict bound index after step(l, code, x), None for
    # bottom; from a strict code no step lands on an exact code
    out = {}
    for l in range(1, table.n):
        for s in [None] + list(range(len(table.sub[l]))):
            for x in range(table.k):
                b = step(l, 0 if s is None else 2 * s + 2, x) >> 1
                out[(l, s, x)] = b - 1 if b else None
    return out


def build_XW(table: SubwordTable) -> dict:
    """Prepend transitions (l, s, x) -> bound index at length l+1: for every
    word w strictly bounded by subword s at length l, XW[(l, s, x)] strictly
    bounds x.w.  s = None is the bottom row; value None is bottom."""
    return _strict_rows(table, table.prepend_code)


def build_WX(table: SubwordTable) -> dict:
    """Append transitions, as build_XW for w.x (independent of x)."""
    return _strict_rows(table, table.append_code)


def dump_tables(table: SubwordTable, alphabet=None) -> list:
    """JSON-serializable dump of S(v, l) and the XW/WX rows per length."""
    xw, wx = build_XW(table), build_WX(table)
    fmt = list if alphabet is None else alphabet.decode
    out = []
    for l in range(1, table.n + 1):
        entry = {"l": l, "subwords": [fmt(v) for v in table.sub[l]], "xw": {}, "wx": {}}
        if l < table.n:
            for s in [None] + list(range(len(table.sub[l]))):
                for x in range(table.k):
                    key = f"{'bottom' if s is None else s}:{x if alphabet is None else alphabet.symbols[x]}"
                    entry["xw"][key] = xw[(l, s, x)]
                    entry["wx"][key] = wx[(l, s, x)]
        out.append(entry)
    return out
