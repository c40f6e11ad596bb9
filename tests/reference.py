"""Reference counts the tests compare the package against.

Definition-level brute force for the DP cells and the mirrored-form sizes,
the bisect bound and bound code of a word, the package's mirrored-form
counts applied to an arbitrary word (floored first), the single-form split
of the even-length palindromic count with its odd-period correction term
(ERRATA #3), and the DPs over bound codes that the closed-walk counts
replaced.
"""

import itertools
from bisect import bisect_left, bisect_right

from braceletrank import palindromic
from braceletrank.bounding import SubwordTable
from braceletrank.errors import check
from braceletrank.words import _failure, floor_necklace, min_rotation, validate_word


def _words(n, k):
    return itertools.product(range(k), repeat=n)


def bound_of(w, table: SubwordTable, strict: bool = True):
    """Index of the bounding subword of w in S(v, |w|), or None (bottom).

    Strict mode returns the largest subword < w; weak mode the largest <= w.
    """
    vals = table.sub[len(w)]
    w = tuple(w)
    i = bisect_left(vals, w) if strict else bisect_right(vals, w)
    return i - 1 if i else None


def code_of(w, table: SubwordTable) -> int:
    """Bound code of w at length |w|: 2b + h, b the number of subwords
    below w and h = 1 when w is subword b (the empty word is subword 0)."""
    w = tuple(w)
    vals = table.sub[len(w)] if w else [()]
    b = bisect_left(vals, w)
    return 2 * b + (b < len(vals) and vals[b] == w)


# --- reference counts for the DP cell invariants ---------------------------

def _viable_doubled(dw, v):
    """Every substring of dw is >= the same-length prefix of v."""
    for a in range(len(dw)):
        for b in range(a + 1, len(dw) + 1):
            if dw[a:b] < v[: b - a]:
                return False
    return True


def _suffix_match(dw, v):
    j = 0
    for m in range(1, min(len(dw), len(v)) + 1):
        if dw[-m:] == v[:m]:
            j = m
    return j


def brute_po_cells(v, k: int) -> dict:
    """Definition-level {(i, j, s): count} for prefixes u with doubled word
    reverse(u).u strictly bounded (not itself a subword of v)."""
    v = tuple(v)
    n = len(v)
    table = SubwordTable(v, k)
    out = {}
    for i in range(1, (n - 1) // 2 + 1):
        subs = set(table.sub[2 * i])
        for u in _words(i, k):
            dw = u[::-1] + u
            if dw in subs or not _viable_doubled(dw, v):
                continue
            s = bound_of(dw, table, strict=True)
            key = (i, _suffix_match(dw, v), s)
            out[key] = out.get(key, 0) + 1
    return out


def brute_pe_cells(v, k: int) -> dict:
    """Definition-level {(i, j, s): count} for prefixes x.phi with doubled
    word reverse(phi).x.phi strictly bounded."""
    v = tuple(v)
    n = len(v)
    table = SubwordTable(v, k)
    out = {}
    for i in range(1, n // 2 + 1):
        subs = set(table.sub[2 * i - 1])
        for u in _words(i, k):
            x, phi = u[0], u[1:]
            dw = phi[::-1] + (x,) + phi
            if dw in subs or not _viable_doubled(dw, v):
                continue
            s = bound_of(dw, table, strict=True)
            key = (i, _suffix_match(dw, v), s)
            out[key] = out.get(key, 0) + 1
    return out


def brute_se_cells(v, k: int) -> dict:
    """Definition-level {(x, i, j, s): count} matching enclosing.build_SE."""
    v = tuple(v)
    n = len(v)
    table = SubwordTable(v, k)
    out = {}
    for i in range(1, n):
        t = n - i - 1
        for x in range(k):
            for u in _words(t, k):
                y = u[::-1] + (x,)
                if any(y[a:] < v[: len(y) - a] for a in range(len(y))):
                    continue
                subs = list(table.sub[len(y)])
                if tuple(y) in set(subs):
                    s = ("exact", subs.index(tuple(y)))
                else:
                    s = ("strict", bound_of(y, table, strict=True))
                key = (x, i, _suffix_match(y, v), s)
                out[key] = out.get(key, 0) + 1
    return out


def brute_size_po(v, k: int) -> int:
    v = tuple(v)
    n = len(v)
    cnt = 0
    for phi in _words((n - 1) // 2, k):
        for x in range(k):
            if min_rotation(phi + (x,) + phi[::-1]) > v:
                cnt += 1
    return cnt


def brute_size_pe(v, k: int) -> int:
    v = tuple(v)
    n = len(v)
    cnt = 0
    for phi in _words(n // 2 - 1, k):
        for x in range(k):
            for y in range(k):
                if min_rotation((x,) + phi + (y,) + phi[::-1]) > v:
                    cnt += 1
    return cnt


def brute_size_ps(v, k: int) -> int:
    v = tuple(v)
    n = len(v)
    cnt = 0
    for phi in _words(n // 2, k):
        if min_rotation(phi + phi[::-1]) > v:
            cnt += 1
    return cnt


# --- the mirrored-form sizes of an arbitrary word --------------------------

def _floor_table(v, k: int) -> SubwordTable:
    v, k = validate_word(v, k)
    return SubwordTable(floor_necklace(v, k), k)


def size_PO(v, k: int) -> int:
    """Number of words phi.x.reverse(phi) of odd length |v| whose class
    minimum is strictly above v."""
    return palindromic.size_PO_PE(_floor_table(v, k))


def size_PE(v, k: int) -> int:
    """Number of words x.phi.y.reverse(phi) of even length |v| whose class
    minimum is strictly above v."""
    return palindromic.size_PO_PE(_floor_table(v, k))


def size_PS(v, k: int) -> int:
    """Number of words phi.reverse(phi) of even length |v| whose class
    minimum is strictly above v."""
    return palindromic.size_PS(_floor_table(v, k))


# --- the closing comparison and the single-form split ----------------------

def size_X(v, k: int, j: int, s: int) -> int:
    """#symbols x with v[:j] + (x,) + value(s) >= v, comparing the first
    |v| symbols; s indexes S(v, n-1)."""
    v, k = validate_word(v, k)
    n = len(v)
    sval = SubwordTable(v, k).sub[n - 1][s]
    return sum(1 for x in range(k) if (v[:j] + (x,) + sval)[:n] >= v)


def _odd_part(n: int) -> int:
    while n % 2 == 0:
        n //= 2
    return n


def odd_period_palindromic_above(v, k: int) -> int:
    """Number of palindromic classes of length |v| with odd smallest period
    whose representative is strictly above v.

    These are exactly the classes carrying one word of each mirrored form,
    so this is the shared correction term of ge and gs.  They arise as
    (n / q)-th powers of the odd-length palindromic classes of length
    q = odd part of n.
    """
    v, k = validate_word(v, k)
    n = len(v)
    w = floor_necklace(v, k)
    q = _odd_part(n)
    if q == 1:
        return k - 1 - w[0]
    return size_PO(w[:q], k)


def ge(v, k: int) -> int:
    """Number of classes above v containing a word x.phi.y.reverse(phi)."""
    pe = size_PE(v, k)
    b = odd_period_palindromic_above(v, k)
    check((pe + b) % 2 == 0, "size_PE and the odd-period term out of parity")
    return (pe + b) // 2


def gs(v, k: int) -> int:
    """Number of classes above v containing a word phi.reverse(phi)."""
    ps = size_PS(v, k)
    b = odd_period_palindromic_above(v, k)
    check((ps + b) % 2 == 0, "size_PS and the odd-period term out of parity")
    return (ps + b) // 2


# --- the DPs over bound codes that the closed-walk counts replaced ---------

def _automaton(p, k: int):
    """(thresh, delta) of any pattern p, by slicing.  delta[j][x] is the
    longest suffix of p[:j].x that is a prefix of p.  thresh[j] is the least
    symbol x that keeps every suffix of a word with match state j at or
    above the p-prefix of its length: x >= p[b] at each border b < |p| of
    p[:j], the empty one included."""
    n = len(p)
    thresh = [max(p[b] for b in range(min(j, n - 1) + 1) if p[j - b:j] == p[:b])
              for j in range(n + 1)]
    delta = [[max(m for m in range(min(j + 1, n) + 1) if (p[:j] + (x,))[j + 1 - m:] == p[:m])
              for x in range(k)] for j in range(n + 1)]
    return thresh, delta


def _rotation_layers(table: SubwordTable):
    """Yield, after each symbol t = 1..|p|, the distribution
    {match state: {bound code: count}} of all words w of length t whose
    every suffix is >= the same-length prefix of p."""
    states = {0: {1: 1}}
    thresh, delta = _automaton(table.p, table.k)
    for t in range(table.n):
        nxt, app = {}, table.append_rows(t)
        for j, row in states.items():
            for x in range(thresh[j], table.k):
                tgt = nxt.setdefault(delta[j][x], {})
                for b, c in row.items():
                    r = app[x][b]
                    tgt[r] = tgt.get(r, 0) + c
        states = nxt
        yield states


def chains(p) -> list:
    """chains(p)[j]: the borders m >= 1 of p[:j] (its suffixes that are
    prefixes of p), longest first, from j itself along the failure links."""
    fail, out = _failure(p), [[]]
    for j in range(1, len(p) + 1):
        out.append([j] + out[fail[j]])
    return out


def wrap_ok(table: SubwordTable, borders, code: int, strict: bool) -> bool:
    """Whether a finished word of length n = |p| with bound code `code`,
    whose final match state has the borders `borders` (chains(p)[j]), has
    every wrapped rotation > p (strict), else >= p: the rotation at border
    m is p[:m] then the word's own prefix, so it compares as the word does
    with the cyclic subword of p at m."""
    pos = table.pos_id[table.n]
    return all(code >= 2 * pos[m % table.n] + 1 + strict for m in borders)


def rotation_count_dp(p, k: int, strict: bool = False) -> int:
    """#words of length |p| whose every rotation is >= p (> p when strict),
    by the DP over (match state, bound code) resolved at the wrap."""
    table = SubwordTable(tuple(p), k)
    for states in _rotation_layers(table):
        pass
    chain = chains(table.p)
    return sum(c for j, row in states.items()
               for b, c in row.items() if wrap_ok(table, chain[j], b, strict))


def joint_count_dp(table: SubwordTable) -> int:
    """#{w : every rotation of w > p and every rotation of w^R > p}.

    Forward side: the usual (match, bound) pair for w.  Reversal side: the
    reversed prefix is a growing suffix of w^R, so its rotations are
    exposed one per appended symbol; open (still equal to a p-prefix)
    rotations are summarized by their longest match lm and resolved at the
    wrap, like the forward side but mirrored.

    Canonical classes.  A word of length l with strict (even) code c has
    settled its comparison with each length-d rotation of p: it is above
    the one at m iff c > 2*pos_id[l][m % d] + 1.  Forward, the code is read
    again only at the wrap, at the final borders of w; each lies in the
    d-l symbols to come or extends a border b in chain[j], so only the
    rotations at M(l, j) = {1..d-l} u {d-l+b : b in chain[j]} remain.  Reverse, the same
    holds with the longest open match lm in j's role.  Each successor strict
    code c maps to the largest even code 2*pos_id[l][m % d] + 2 <= c over m
    in M, else to 0.
    """
    d, k = table.n, table.k
    p0 = table.p[0]
    width, chain = table.width, chains(table.p)
    thresh, delta = _automaton(table.p, k)
    lo = [max(x, p0) for x in thresh]
    states = {0: {1: {1: 1}}}
    for t in range(d):
        l = t + 1
        w_cur, w_next = width[t], width[l]
        pos = table.pos_id[l]
        reach = {2 * pos[m] + 2 for m in range(1, d - l + 1)}
        canon, last = list(range(w_next)), 0
        for c in range(2, w_next, 2):
            last = canon[c] = c if c in reach else last

        def canonical(c, j):
            for e in sorted({2 * pos[(d - l + b) % d] + 2 for b in chain[j]}, reverse=True):
                if e <= c:
                    return e if e > canon[c] else canon[c]
            return canon[c]

        opener = 2 * table.pos_id[t][1 % d] + 1  # p[1:l], the empty word at t = 0
        nxt, app, pre = {}, table.append_rows(t), table.prepend_rows(t)
        for j, fwd in states.items():
            for x in range(lo[j], k):
                j2 = delta[j][x]
                row = nxt.setdefault(j2, {})
                for bf, rev in fwd.items():
                    b2 = canonical(app[x][bf], j2)
                    tgt = row.setdefault(b2, {})
                    for rc, c in rev.items():
                        lm, br = divmod(rc, w_cur)
                        if x == p0:
                            if br < opener:
                                continue
                            if br == opener:
                                lm = l
                        nrc = lm * w_next + canonical(pre[x][br], lm)
                        tgt[nrc] = tgt.get(nrc, 0) + c
        states = nxt
    return sum(c for j, fwd in states.items() for bf, rev in fwd.items()
               if wrap_ok(table, chain[j], bf, True)
               for rc, c in rev.items()
               if wrap_ok(table, chain[rc // width[d]], rc % width[d], True))
