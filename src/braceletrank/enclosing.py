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
blocks on p's SubwordTable while it tracks its reversal's exact bound code.
A state is (run position, reverse code); its value is one integer holding,
in one bit field per lm, the count of each longest open match lm of the
reversal's rotations with p.  A rotation opens on the one word whose code
is that of p[1:l], which then moves to field l, so field l >= 1 holds only
that word's extensions by d - l symbols and never exceeds d*k^(d-l); field
0 never exceeds d*k^d, the weighted count of all words.  A field one bit
wider than its bound needs never carries into the next, and one addition
moves every lm at once.  At the wrap, field lm passes where the final code
exceeds the table's wrap[lm], the code of p's rotation at lm: the longest
open match decides the shorter ones (SubwordTable).  At d = n the table is
the floor's, passed down; a proper prefix's table is built only when its
memoised joint count misses.
"""

from __future__ import annotations

from itertools import accumulate

from .bounding import SubwordTable, cached_table
from .errors import check
from .memo import word_memo
from .necklace import classes_of_length, count_necklaces_upto
from .words import _failure, floor_necklace, lyndon_prefix, min_rotation, validate_word

# Prefixes whose joint count J(p) is kept (memo.word_memo).  Perfbench's
# streams hit it 92 % of the time, and 93 % at 16,384 entries, whose bytes
# would come out of api.FLOOR_MEMO's (README, "Time and memory per n").
JOINT_MEMO = 4096


def _joint_count(table: SubwordTable) -> int:
    """#{w : every rotation of w > p and every rotation of w^R > p}, for
    a prenecklace p.

    Forward: w labels one closed walk with a reset on p's automaton
    (necklace._rotation_dp).  Rotated to start after a reset, w is a
    sequence of blocks p[:r].x, x > p[r]; the reverse condition holds for
    all rotations or none, so the count sums, over the passing block
    sequences of length d, the length of their last block (the one position
    0 of w falls in).

    Reverse: w^R grows at its front, exposing one rotation per symbol, and
    is tracked by its exact bound code b (table.prepend_rows).  A state is
    (run position r, b); its value is one integer whose field lm, the
    width[lm] bits from off[lm], counts the words whose longest open
    rotation (still equal to a p-prefix) has length lm.  On x = p[0] the
    new rotation at the front compares the code with p[1:l], the opener:
    below it drops, and at it, an exact code and so a single word, it
    opens, and the word leaves its field for field l.  So field l >= 1
    only ever holds the extensions of that one word by d - l symbols, at
    most k^(d-l) words each weighted by at most d at the last layer, and
    field 0 at most the weighted count of all words, d*k^d.  Field l is
    (d*k^(d-l)).bit_length() + 1 bits wide, one bit more than its bound
    needs, so no field carries into the next, and one addition moves
    every lm at once: the code's transition does not depend on lm.  At
    the wrap, the open rotations are those at the borders m >= 1 of
    p[:lm], and each compares the final code c with the rotation of p at
    m.  The one at lm decides the others (SubwordTable), so the word passes
    iff c > T(lm) = table.wrap[lm] = 2*pos_id[d][lm] + 1 (T(0) = -1).  So
    the count reads field lm of the suffix sum of the final values over the
    codes above T(lm).
    """
    d, k, p = table.n, table.k, table.p
    check(lyndon_prefix(p)[1] == d, "the pattern is not a prenecklace")
    p0 = p[0]
    width = [(d * k ** (d - l)).bit_length() + 1 for l in range(d)]
    off = list(accumulate(width, initial=0))
    states = {0: {1: 1}}
    for t in range(d):
        l = t + 1  # length of the successors
        rows = table.prepend_rows(t)
        opener = 2 * table.pos_id[t][1 % d] + 1  # p[1:l], the empty word at t = 0
        reset = {}
        nxt, get = {0: reset}, reset.get
        for r, rev in states.items():
            fr = p[r]
            if l == d:  # the last symbol closes the last block
                rev = {b: v * (r + 1) for b, v in rev.items()}
            for x in range(fr + 1, k):
                row = rows[x]
                for b, v in rev.items():
                    nb = row[b]
                    reset[nb] = get(nb, 0) + v
            if l < d:
                row, tgt = rows[fr], {}
                tget = tgt.get
                for b, v in rev.items():
                    if fr == p0 and b <= opener:
                        if b < opener:  # the rotation at the front is below p
                            continue
                        v = 1 << off[l]  # one word: its rotation at the front opens
                    nb = row[b]
                    tgt[nb] = tget(nb, 0) + v
                nxt[r + 1] = tgt
        states = nxt
    final = states[0]
    codes = sorted(final, reverse=True)
    thresholds = sorted(zip(table.wrap[:d], range(d)), reverse=True)
    total = acc = i = 0
    for thr, lm in thresholds:  # acc: the sum of the values at codes > thr
        while i < len(codes) and codes[i] > thr:
            acc += final[codes[i]]
            i += 1
        total += (acc >> off[lm]) & ((1 << width[lm]) - 1)
    return total


@word_memo(JOINT_MEMO)
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
