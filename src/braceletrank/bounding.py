"""Ordered cyclic-subword sets of a pattern word and bounding transitions.

For a pattern v of length n, S(v, l) is the lexicographically sorted,
deduplicated set of cyclic subwords of v of length l.  A word w (|w| = l,
w not itself a subword) is *strictly bounded* by the largest subword
s in S(v, l) with s < w; no subword lies in (s, w].  The tables built here
answer, memoised on first use, how that bound evolves when a symbol is
appended or prepended to w, which is what the joint and palindromic DPs
run on, one table per count.

The DPs run on one integer bound code per word, and code order is word
order.  At length l a word w has code 2b + h, where b is the number of
subwords of length l below w and h = 1 exactly when w is subword b.  So
w equals subword i at code 2i + 1, lies strictly between subwords b-1 and
b at the even code 2b, and compares with subword i as its code does with
2i + 1.  The empty word is the one subword of length 0, at code 1.
The transitions of all codes of one length on every symbol are built
together, as k successor rows, on the first use of that length.  A
finished word of length n passes the wrap when its code exceeds that of
the rotation of v at its longest border, one threshold per match state.

No subword is stored.  The n rotations of v are sorted once; the cyclic
subwords of length l are the length-l prefixes of the rotations, and
subword i is the i-th run of adjacent rotations in that order sharing their
first l symbols.  Per length the table keeps the run of every order
position and the first position of every run, and each transition is
rank arithmetic on those arrays: O(n^2) integers in all.  Once filled, the
successor rows add O(k*n^2) integers for the append rows, kept per length
as they read the symbol after each run, and O(k*n*m) for the prepend rows,
kept per run structure (m of them): every length whose runs no longer
split shares one set.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache


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
    """Subword order of a pattern, its successor rows and its wrap thresholds.

    The counts walk prenecklace patterns, whose matching automaton is p
    itself (necklace._rotation_dp), so the table keeps none.

    Attributes:
        p: the pattern word, a non-empty tuple over range(k), unchecked
        n, k: pattern length and alphabet size
        ext, order: p + p, and the rotation starts of p sorted by rotation
        grp[l][r]: index in S(p, l) of the length-l prefix of the rotation
            at order position r; the groups are runs of the order, and
            grp[l][n] = S_l
        first[l][g]: first order position of group g, first[l][S_l] = n
        sub[l]: S(p, l) as a sequence view (item g is a tuple), for l >= 1
        pos_id[l][start]: index in S(p, l) of the subword starting at start,
            so p[:l] is subword pos_id[l][0]
        below[x]: number of rotations starting with a symbol below x
        tail[x]: sorted order positions of rotation j+1 over j with p[j] = x
        wrap[j]: 2*pos_id[n][j % n] + 1, the code of the rotation of p at
            j, for j >= 1, and -1 at j = 0: for a prenecklace p, a finished
            word of length n whose longest suffix matching a prefix of p is
            p[:j] has every wrapped rotation above p iff its code exceeds
            wrap[j] (see "Wrap thresholds" below)
        size[l], width[l]: S_l and the number of codes (2*S_l + 1) at length
            l; at l = 0 the empty word is the one group, spanning every
            order position

    Lengths with as many groups as the previous length share its lists: the
    groups only split as l grows, so an equal count means equal groups.
    The groups at l + 1 follow from those at l, as two rotations share a
    group at l + 1 iff they start with the same symbol and the rotations
    after them share a group at l.  So size[l] fixes both first[l] and
    grp[l + 1], and once size[l + 1] == size[l] the groups never split
    again.

    Wrap thresholds.  Let p be a prenecklace and w, of length n, end in
    p[:j], its longest suffix that is a prefix of p, with u = w[:n-j].  The
    wrapped rotation of w at a border m >= 1 (a suffix p[:m] of w) is R_m =
    p[:m].w[:n-m], and R_m > p iff w[:n-m] > p[m:], that is iff w lies
    above p[m:].p[:m], the rotation of p at m, whose code is
    2*pos_id[n][m % n] + 1: both end in p[:m].  At j = n, w = p, whose code
    is wrap[n].  For j < n the borders of w are j and the shorter borders
    m of p[:j], and R_j > p implies R_m > p for each of them.  R_m =
    p[:m].u.p[:j-m] is R_j = p[:j].u rotated by j - m.  As p is a
    prenecklace, its suffix p[j-m:] is at least its prefix p[:n-j+m], and
    both begin with p[:m] = p[j-m:j], so p[j:] >= p[m:m+n-j].  R_j > p
    means u > p[j:], so u > p[m:m+n-j], and R_m > p is settled within u.
    So the longest border decides them all.  The proof reads nothing of
    the walks but that p is a prenecklace; the walks settle the rotations
    at the other starts themselves, as each keeps every suffix that is not
    a prefix of p strictly above the prefix of its length.
    tests/reference.py still checks the counts at every border.

    A table serves one count, kept as an integer (api._counts_upto,
    enclosing._joint).  It fills its successor rows lazily (_app_cache:
    length -> rows, _pre_cache: size[l] -> rows), each a pure function of
    (p, k) stored in one assignment: concurrent users can at worst build a
    row twice.
    """

    def __init__(self, p, k: int):
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
        self.below = [sum(y < x for y in p) for x in range(k)]
        # rotation j is p[j] followed by rotation j+1
        self.tail = [sorted(rank[(j + 1) % n] for j in range(n) if p[j] == x) for x in range(k)]
        self.wrap = [-1] + [2 * self.pos_id[n][j % n] + 1 for j in range(1, n + 1)]
        self.width = [2 * s + 1 for s in self.size]
        self._app_cache, self._pre_cache = {}, {}

    # ---- bound-state transitions ----
    # A code at length l spans the order positions first[l][code >> 1] up
    # to first[l][(code + 1) >> 1]: its subword's run when odd, the empty
    # boundary before run code >> 1 when even.  A grown word lands on a
    # group boundary r of the next length, where its code is 2*grp[r], plus
    # 1 if it is the group there.

    def append_rows(self, l: int) -> list:
        """rows[x][code]: the code of w.x at length l+1, given the code of
        w at length l, for every w in the class the code describes."""
        rows = self._app_cache.get(l)
        if rows is None:
            first, grp = self.first[l], self.grp[l + 1]
            # the rotations of a run continue with non-decreasing symbols
            sym = [self.ext[i + l] for i in self.order]
            # a word between two runs stays between their extensions
            even = [2 * grp[r] for r in first]
            runs = list(zip(first, first[1:]))
            rows = []
            for x in range(self.k):
                row = [0] * self.width[l]
                row[::2] = even
                if self.size[l] == self.n:
                    # one rotation per run at l and l + 1: run j stays run j
                    # (code 2j + 1) if it continues with x, else falls on the
                    # boundary after it (2j + 2, its next symbol below x) or
                    # before it (2j)
                    step = [2] * x + [1] + [0] * (self.k - 1 - x)
                    row[1::2] = [e + step[s] for e, s in zip(even, sym)]
                else:
                    for j, (lo, hi) in enumerate(runs):
                        r = bisect_left(sym, x, lo, hi)
                        row[2 * j + 1] = 2 * grp[r] + (r < hi and sym[r] == x)
                rows.append(row)
            self._app_cache[l] = rows
        return rows

    def prepend_rows(self, l: int) -> list:
        """rows[x][code]: the code of x.w at length l+1, given the code of
        w at length l.  They read first[l], grp[l + 1], tail and below
        alone, so lengths with equal size[l] share them."""
        key = self.size[l]
        rows = self._pre_cache.get(key)
        if rows is None:
            first, grp = self.first[l], self.grp[l + 1]
            rows = []
            for x in range(self.k):
                # x.w lies among the rotations starting with x, ordered by
                # their tails; i[g] of them have tails before run g
                tail, below = self.tail[x], self.below[x]
                i = [bisect_left(tail, r) for r in first]
                even = [2 * grp[below + a] for a in i]
                row = [0] * self.width[l]
                row[::2] = even
                row[1::2] = [e + (b > a) for e, a, b in zip(even, i, i[1:])]
                rows.append(row)
            self._pre_cache[key] = rows
        return rows


@lru_cache(maxsize=1)
def cached_table(p: tuple, k: int) -> SubwordTable:
    """SubwordTable(p, k) for a joint-count memo miss (enclosing._joint),
    keeping only the last one: the count is memoised as an integer."""
    return SubwordTable(p, k)


def dump_tables(table: SubwordTable, alphabet=None) -> list:
    """JSON-serializable dump of S(v, l) and, below length n, the strict
    transitions per length: for every word w strictly bounded by subword s
    ("bottom": below every subword), xw["s:x"] and wx["s:x"] are the
    subwords strictly bounding x.w and w.x at length l+1, None for bottom.
    They are the rows of prepend_rows(l) and append_rows(l) at the even
    codes, 0 for bottom and 2s + 2, which no step takes to an odd code."""
    fmt = list if alphabet is None else alphabet.decode
    symbols = range(table.k) if alphabet is None else alphabet.symbols
    out = []
    for l in range(1, table.n + 1):
        entry = {"l": l, "subwords": [fmt(v) for v in table.sub[l]], "xw": {}, "wx": {}}
        if l < table.n:
            for key, rows in (("xw", table.prepend_rows(l)), ("wx", table.append_rows(l))):
                for code in range(0, table.width[l], 2):
                    for x, row in zip(symbols, rows):
                        b = row[code] >> 1
                        entry[key][f"{code // 2 - 1 if code else 'bottom'}:{x}"] = b - 1 if b else None
        out.append(entry)
    return out
