"""Count bracelets that enclose a word.

A bracelet encloses v when its two necklace representatives straddle v
strictly: <b> < v < <reverse(b)>.  No representative lies in (f, v], f the
floor of v (the largest necklace representative <= v), so the bracelets
enclosing v are those with <b> <= f < <reverse(b)>, less the bracelet of f
itself when f = v and f is its smaller representative.  Reversal maps the
smaller classes of those bracelets one-to-one onto the necklace classes c
with <c> > f >= <reverse(c)>, so they number U - N: U the classes with
<c> <= f or <reverse(c)> <= f, and N those with <c> <= f (the necklace
module's count).  Writing <c> as a Lyndon power decomposes U over the
periods P | n; Mobius inversion turns each term into word counts

    U(d) = #{ w in Sigma^d : min-rotation(w)^(n/d) <= f
                             or min-rotation(w^R)^(n/d) <= f }

which are k^d less J(p), the words whose rotations and whose reversal's
all lie above the prenecklace p = f[:d]: a joint DP that walks the word's
blocks on p's SubwordTable while it tracks its reversal's bound code.  At
d = n that is the floor's table, passed down; a proper prefix's table is
built only when its memoised joint count misses.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache

from .bounding import SubwordTable, cached_table
from .errors import check
from .necklace import classes_of_length, count_necklaces_upto
from .words import _failure, floor_necklace, lyndon_prefix, min_rotation, validate_word

# Prefixes whose joint count J(p) is kept, as for api.FLOOR_MEMO.
JOINT_MEMO = 4096


def _joint_count(table: SubwordTable) -> int:
    """#{w : every rotation of w > p and every rotation of w^R > p}, for
    a prenecklace p.

    Forward: w labels one closed walk with a reset on p's automaton
    (necklace._rotation_dp).  Rotated to start after a reset, w is a
    sequence of blocks p[:r].x, x > p[r]; the reverse condition holds for
    all rotations or none, so the count sums, over the passing block
    sequences of length d, the length of their last block (the one position
    0 of w falls in).  States: {run position r: {reverse code}}.

    Reverse: w^R grows at its front, exposing one rotation per symbol; open
    rotations (still equal to a p-prefix) are summarized by their longest
    match lm and resolved at the wrap, in the code lm*W + b, W the number of
    bound codes at the length.  A strict (even) code c at length l is above
    the rotation of p at m iff c > 2*pos_id[l][m % d] + 1, and only the
    rotations at M(l, lm) = {1..d-l} u {d-l+b : b in chain[lm]} are
    compared again, so each maps to its class, the largest even code
    2*pos_id[l][m % d] + 2 <= c over m in M, else 0: exact, as M only
    shrinks as l grows.  Per layer, the table's prepend rows give each b
    its successor per symbol (on p[0], the codes below p[1:l] drop and the
    code of p[1:l] opens lm = l), and each present lm fills one class list:
    the one over {1..d-l}, with the span of each chain rotation's code
    raised to it.  A reverse code then maps with two lookups.
    """
    d, k, p = table.n, table.k, table.p
    check(lyndon_prefix(p)[1] == d, "the pattern is not a prenecklace")
    p0 = p[0]
    width, chain = table.width, table.chain
    states = {0: {1: 1}}
    for t in range(d):
        l = t + 1  # length of the successors
        w_cur, w_next = width[t], width[l]
        pos = table.pos_id[l]
        # code -> class over the rotations at 1..d-l; exact codes stay, and
        # the even entries are non-decreasing
        reach = {2 * pos[m] + 2 for m in range(1, d - l + 1)}
        canon, last = list(range(w_next)), 0
        for c in range(2, w_next, 2):
            last = canon[c] = c if c in reach else last
        even = canon[::2]

        def classes(lm):
            # canon plus the rotations at d-l+b, b in chain[lm]: the code
            # e = 2r+2 of each starts a class, up to the next class start
            cl = canon
            for e in sorted([2 * pos[(d - l + b) % d] + 2 for b in chain[lm]]):
                if canon[e] < e:
                    if cl is canon:
                        cl = canon[:]
                    end = bisect_right(even, canon[e], e >> 1)
                    cl[e:2 * end:2] = [e] * (end - (e >> 1))
            return cl

        codes = set().union(*states.values())
        rows = table.prepend_rows(t)
        # on x = p0 a rotation of w^R opens at the code of p[1:l] (the
        # empty word at t = 0) and drops below p from the codes under it
        opener = 2 * table.pos_id[t][1 % d] + 1
        opened = l * w_next + classes(l)[rows[p0][opener]]
        # per symbol: reverse code -> successor, -1 where a rotation drops
        rmaps = {x: [-1] * (l * w_cur) for x in range(p0, k)}
        row0, map0 = rows[p0], rmaps[p0]
        rest = [(rows[x], rmaps[x]) for x in range(p0 + 1, k)]
        cls = {0: canon}
        for rc in codes:
            lm, br = divmod(rc, w_cur)
            cl = cls.get(lm)
            if cl is None:
                cl = cls[lm] = classes(lm)
            off = lm * w_next
            for row, rmap in rest:
                rmap[rc] = off + cl[row[br]]
            if br > opener:
                map0[rc] = off + cl[row0[br]]
            elif br == opener:
                map0[rc] = opened
        reset = {}
        nxt, get = {0: reset}, reset.get
        for r, rev in states.items():
            fr = p[r]
            if l == d:  # the last symbol closes the last block
                rev = {rc: c * (r + 1) for rc, c in rev.items()}
            for x in range(fr + 1, k):
                rmap = rmaps[x]
                for rc, c in rev.items():
                    nrc = rmap[rc]
                    reset[nrc] = get(nrc, 0) + c
            if l < d:
                rmap, tgt = rmaps[fr], {}
                tget = tgt.get
                for rc, c in rev.items():
                    nrc = rmap[rc]
                    tgt[nrc] = tget(nrc, 0) + c
                nxt[r + 1] = tgt
        for tgt in nxt.values():
            tgt.pop(-1, None)
        states = nxt
    return sum(c for rc, c in states[0].items() if table.wrap_ok(*divmod(rc, width[d])))


@lru_cache(maxsize=JOINT_MEMO)
def _joint(p: tuple, k: int) -> int:
    """_joint_count of a proper prefix p of floors, memoised per (p, k): the
    floors of different words, and unrank's probes, share prefixes."""
    return _joint_count(cached_table(p, k))


def count_union_upto(table: SubwordTable) -> int:
    """Necklace classes c with <c> <= f or <reverse(c)> <= f, f = table.p;
    unchecked.  The term of d | n is U(d) of the module docstring: all k^d
    words but J(p), p = f[:d], as a word of length d lies on the same side
    of p as its power does of f, and p^(n/d) <= f."""
    f, k, n = table.p, table.k, table.n
    return classes_of_length(n, lambda d: k ** d - (_joint_count(table) if d == n else _joint(f[:d], k)))


def rank_enclosing(v, k: int) -> int:
    """Number of distinct bracelets [b] with <b> < v < <reverse(b)>: those
    with <b> <= f < <reverse(b)>, f the floor of v (the largest necklace
    representative <= v), less the bracelet of f itself when f = v and f is
    its smaller representative, as no representative lies in (f, v]."""
    v, k = validate_word(v, k)
    f = floor_necklace(v, k)
    return (count_union_upto(SubwordTable(f, k)) - count_necklaces_upto(f, k)
            - (f == v and min_rotation(f[::-1]) > f))


# --- diagnostic suffix-state layers ----------------------------------------
# the one-sided walk over (match state, bound code) that the closed-walk
# count replaced, run for inspection only

def build_SE(v, k: int) -> dict:
    """Suffix-fragment state counts SE[(x, i, j, s)].

    For 1 <= i <= n-1 and x a symbol, SE[(x, i, j, s)] is the number of
    fragments u of length n-i-1 such that y = reverse(u) + (x,) satisfies:
    every suffix of y is >= the prefix of v of the same length, j is the
    longest suffix of y equal to a prefix of v, and s is y's bound state
    in S(v, n-i) encoded as ("exact", id) or ("strict", id).
    """
    n = len(v)
    table = SubwordTable(tuple(v), k)
    # v need not be a prenecklace: from match state j, thresh[j] is the least
    # symbol keeping every suffix at or above the v-prefix of its length,
    # and it leads to adv[j]; every larger symbol resets the match
    fail, thresh, adv = _failure(v), [v[0]], [1]
    for j in range(1, n - 1):
        t = thresh[fail[j]]
        thresh.append(max(t, v[j]))
        adv.append(j + 1 if v[j] >= t else adv[fail[j]])
    states, out = {(0, 1): 1}, {}  # {(match state, bound code): count}
    for t in range(n - 1):
        nxt, app = {}, table.append_rows(t)
        for (j, b), c in states.items():
            for x in range(thresh[j], k):
                code, j2 = app[x][b], adv[j] if x == thresh[j] else 0
                check(code != 0, "an SE layer state fell to the bottom")
                s = ("exact", code >> 1) if code & 1 else ("strict", (code >> 1) - 1)
                key = (x, n - t - 1, j2, s)
                out[key] = out.get(key, 0) + c
                nxt[(j2, code)] = nxt.get((j2, code), 0) + c
        states = nxt
    return out
