"""Count bracelets that enclose a word.

A bracelet encloses v when its two necklace representatives straddle v
strictly: <b> < v < <reverse(b)>.  Writing the smaller representative as a
Lyndon power c^(n/P) decomposes the count over divisors P | n; Mobius
inversion turns each term into word counts of the form

    W(d) = #{ w in Sigma^d : some rotation of w^(n/d) is  < v
                             and every rotation of (w^R)^(n/d) is > v }

which reduce to two DPs against the prefix p = v[:d]: the one-sided
rotation DP from the necklace module and a joint DP that tracks the word
and its reversal simultaneously.
"""

from __future__ import annotations

from itertools import islice

from .bounding import SubwordTable, cached_table
from .errors import check
from .necklace import (
    _class_size,
    _rotation_layers,
    _wrap_ok,
    count_all_rotations_geq,
    divisors,
    mobius_quotient,
)
from .words import min_rotation, validate_word


def _joint_count(table: SubwordTable) -> int:
    """#{w : every rotation of w >= p and every rotation of w^R > p}.

    Forward side: the usual (match, bound) pair for w.  Reversal side: the
    reversed prefix is a growing suffix of w^R, so its rotations are
    exposed one per appended symbol; open (still equal to a p-prefix)
    rotations are summarized by their longest match lm and resolved at the
    wrap, like the forward side but mirrored.

    States are nested as {j: {forward bound code: {lm*W + reverse bound
    code: count}}}, W the number of bound codes at the current length, so
    each layer maps every distinct reverse code once per symbol, into a
    list, and the innermost loop is a list and a dict lookup.

    Canonical classes.  A word of length l with strict code 1+s has settled
    its comparison with each length-d rotation of p: it is above the one at
    m iff pos_id[l][m % d] <= s.  Forward, the code is read again only at
    the wrap, at the final borders of w; each lies in the d-l symbols to
    come or extends a border b in chain[j], so only the rotations at
    M(l, j) = {1..d-l} u {d-l+b : b in chain[j]} remain.  Reverse, the code
    is that of a suffix u of w^R growing at its front; y.u meets the
    rotation at q through u as the rotation at q+|y|, so the mid-stream
    checks (q = 1) and the wraps longer than u reach 1..d-l, and those
    within u reach d-l+chain[lm]: M(l, lm), lm in j's role.  Each successor
    strict code maps to the largest 1+r, r = pos_id[l][m % d] <= s over m
    in M, else to 0; M only shrinks as l grows, so merging is exact.
    """
    d, k = table.n, table.k
    p0 = table.p[0]
    delta, width, chain = table.delta, table.width, table.chain
    app, pre = table._app_cache, table._pre_cache
    lo = [max(x, p0) for x in table.thresh]
    states = {0: {0: {0: 1}}}
    for t in range(d):
        l = t + 1  # length of the successors
        w_cur, w_next, base, top = width[t], width[l], table.base[t], table.size[l]
        pos = table.pos_id[l]
        # code -> class over the rotations at 1..d-l; exact codes and 0 stay
        reach = {pos[m] for m in range(1, d - l + 1)}
        canon, last = list(range(w_next)), 0
        for s in range(top):
            last = canon[s + 1] = s + 1 if s in reach else last
        extra = {}  # j -> codes 1+r of the rotations at d-l+b, b in chain[j], descending

        def canonical(c, j):
            ext = extra.get(j)
            if ext is None:
                ext = extra[j] = sorted({1 + pos[(d - l + b) % d] for b in chain[j]}, reverse=True)
            c0 = canon[c]
            for e in ext:
                if e <= c:
                    return e if e > c0 else c0
            return c0

        present = set().union(*(rev for fwd in states.values() for rev in fwd.values()))
        s1 = table.pos_id[t][1 % d] if t else None  # p[2..t+1] as a subword
        # per symbol: reverse code -> successor, -1 where a rotation of w^R
        # drops below p
        rmaps, pruned = {}, False
        for x in range(p0, k):
            rmap = rmaps[x] = [-1] * (l * w_cur)
            for rc in present:
                lm, br = divmod(rc, w_cur)
                if x == p0:
                    r = table.cmp_with_subword(br, t, s1) if t else 0
                    if r < 0:
                        pruned = True
                        continue
                    if r == 0:
                        lm = l  # a new rotation opens
                b2 = pre[base + br * k + x]
                if b2 < 0:
                    b2 = table.prepend_code(t, br, x)
                rmap[rc] = lm * w_next + canonical(b2, lm)
        nxt = {}
        for j, fwd in states.items():
            dj = delta[j]
            for x in range(lo[j], k):
                j2 = dj[x]
                row = nxt.setdefault(j2, {})
                rmap = rmaps[x]
                for bf, rev in fwd.items():
                    b2 = app[base + bf * k + x]
                    if b2 < 0:
                        b2 = table.append_code(t, bf, x)
                    b2 = canonical(b2, j2)
                    tgt = row.get(b2)
                    if tgt is None:
                        tgt = row[b2] = {}
                    for rc, c in rev.items():
                        nrc = rmap[rc]
                        tgt[nrc] = tgt.get(nrc, 0) + c
        if pruned:
            for row in nxt.values():
                for b2, tgt in list(row.items()):
                    tgt.pop(-1, None)
                    if not tgt:
                        del row[b2]
        states = nxt
    w_cur = width[d]
    rev_ok, total = {}, 0
    for j, fwd in states.items():
        for bf, rev in fwd.items():
            if not _wrap_ok(table, j, bf, False):
                continue
            for rc, c in rev.items():
                ok = rev_ok.get(rc)
                if ok is None:
                    ok = rev_ok[rc] = _wrap_ok(table, *divmod(rc, w_cur), True)
                if ok:
                    total += c
    return total


def _enclosing_word_count(v, k: int, d: int) -> int:
    """W(d) as described in the module docstring."""
    n = len(v)
    p = v[:d]
    pw = p * (n // d)
    table = cached_table(tuple(p), k)

    # words whose reversal's rotations all exceed p (reversal is a bijection)
    g_total = count_all_rotations_geq(p, k, strict=True)
    cls = _class_size(p)
    if pw > v:
        g_total += cls

    if table.joint is None:
        table.joint = _joint_count(table)
    wj = table.joint
    t2 = t3 = 0
    if cls:
        rots = {p[i:] + p[:i] for i in range(d)}
        if pw > v:
            # reversed class members that also pass the forward condition
            for w in {r[::-1] for r in rots}:
                if all(w[i:] + w[:i] >= p for i in range(d)):
                    t2 += 1
        if pw < v and min_rotation(p[::-1]) > p:
            # every class member of p satisfies the reversal condition
            t3 = cls
    return g_total - (wj + t2 - t3)


def rank_enclosing(v, k: int) -> int:
    """Number of distinct bracelets [b] with <b> < v < <reverse(b)>."""
    v, k = validate_word(v, k)
    n = len(v)
    if n == 1:
        return 0
    w = {d: _enclosing_word_count(v, k, d) for d in divisors(n)}
    return sum(mobius_quotient(e, w.__getitem__) for e in divisors(n))


# --- diagnostic suffix-state layers ----------------------------------------

def build_SE(v, k: int) -> dict:
    """Suffix-fragment state counts SE[(x, i, j, s)].

    For 1 <= i <= n-1 and x a symbol, SE[(x, i, j, s)] is the number of
    fragments u of length n-i-1 such that y = reverse(u) + (x,) satisfies:
    every suffix of y is >= the prefix of v of the same length, j is the
    longest suffix of y equal to a prefix of v, and s is y's bound state
    in S(v, n-i) encoded as ("exact", id) or ("strict", id).

    These are the per-layer invariants the enclosing count runs on; the
    array is exposed for inspection and ground-truth testing.
    """
    n = len(v)
    table = cached_table(tuple(v), k)
    layers = [{0: {0: 1}}] + list(islice(_rotation_layers(table), max(0, n - 2)))
    out = {}
    for i in range(1, n):
        t = n - i - 1
        for j, row in layers[t].items():
            for x in range(table.thresh[j], k):
                for b, c in row.items():
                    code = table.append_code(t, b, x)
                    check(code != 0, "an SE layer state fell to the bottom")
                    size = table.size[t + 1]
                    s = ("exact", code - 1 - size) if code > size else ("strict", code - 1)
                    key = (x, i, table.delta[j][x], s)
                    out[key] = out.get(key, 0) + c
    return out
