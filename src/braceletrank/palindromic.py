"""Rank over palindromic necklaces.

Odd length: every palindromic class contains exactly one word of the
mirrored form phi.x.reverse(phi), so counting classes above v reduces to
counting those words.

Even length: classes are counted through the two mirrored forms
x.phi.y.reverse(phi) and phi.reverse(phi).  Each palindromic class of even
length carries exactly two such form words in total (one of each kind when
its period is odd, two of one kind when even), which gives

    #palindromic classes above v  =  (|PE(v)| + |PS(v)|) / 2

The split into the classes of each form, with the number of odd-period
palindromic classes above v as its correction term (ERRATA #3), is not
needed here; tests/reference.py keeps it as a check.

All three forms run one walk over the doubled words reverse(u).u (even
length) or reverse(phi).x.phi (odd length), grown by one symbol at each end
per layer: an append row, then a prepend row one length up, read at each
state the walk reaches.  States are grouped as in the joint DP of the
enclosing module, {j: {code: count}}: j the longest suffix matching a
v-prefix, code the exact bound code, which may be odd, so the palindromic
cyclic subwords of v are ordinary states.  A finished word in match
state j has every rotation strictly above v iff its code exceeds the
table's wrap[j], the code of the rotation of v at j: the rotation at the
longest border decides those at the shorter ones (SubwordTable), and the
joint DP reads the same thresholds at the wrap.

The forms take the SubwordTable of a necklace representative v.  size_PS
is the walk at length n; size_PO_PE is the walk at length n-1 plus one
appended symbol, a rotation of phi.x.reverse(phi) at odd n and of
x.phi.y.reverse(phi) at even n.  count_palindromic_upto runs the forms on
a necklace f's table, passed down.  rank_palindromic counts up to the
floor f of its input (necklace.floor_of), less f itself when f = v is
palindromic.
"""

from __future__ import annotations

from .bounding import SubwordTable
from .errors import InternalError, check
from .necklace import floor_of
from .words import lyndon_prefix, min_rotation, validate_length


def _grow(table, states, l, app, pre=None):
    """The states at length l of the words in states, each grown by one
    symbol x >= v[j], j its match: appended through app[x] (append_rows),
    the middle one of the odd walk at l = 1 and the closing one at l = n,
    or on each side, x.w.x, through pre[x][app[x][code]] (prepend_rows one
    length up).  No doubled word strictly bounded at l - 2 is a subword
    at l.  Words below v[:l] drop out; the one word equal to v[:l]
    matches all of it, which growth at the back cannot see.  Below that,
    v[j] advances the match j and larger symbols reset it."""
    k, p, prefix = table.k, table.p, 2 * table.pos_id[l][0] + 1
    reset = {}
    nxt = {0: reset}
    for j, words in states.items():
        pj, adv = p[j], nxt.setdefault(j + 1, {})
        for x in range(pj, k):  # one symbol's rows and target per match
            arow, prow = app[x], None if pre is None else pre[x]
            tgt = adv if x == pj else reset
            get = tgt.get
            for code, c in words.items():
                st = arow[code]
                if prow is not None:
                    st = prow[st]
                    if st & 1 > code & 1:
                        raise InternalError("a strictly bounded doubled word became a subword")
                if st > prefix:
                    o = get(st)  # stored on first insert, added on a collision
                    tgt[st] = c if o is None else o + c
                elif st == prefix:
                    nxt.setdefault(l, {})[st] = c
    return nxt


def _layers(table, final_len, sink=None):
    """States {j: {code: count}} of the doubled words of length final_len:
    grown from the empty word reverse(u).u when final_len is even, from the
    middle symbol of reverse(phi).x.phi when odd; sink sees every layer."""
    check(lyndon_prefix(table.p)[1] == table.n, "the pattern is not a prenecklace")
    states, dl = {0: {1: 1}}, 0
    while dl < final_len:
        if dl == 0 and final_len % 2:
            states, dl = _grow(table, states, 1, table.append_rows(0)), 1
        else:
            app, pre = table.append_rows(dl), table.prepend_rows(dl + 1)
            states, dl = _grow(table, states, dl + 2, app, pre), dl + 2
        if sink is not None:
            sink(dl, states)
    return states


def _above(table, states) -> int:
    """Words of length n = |v| among the states whose every rotation is
    strictly above v.  A rotation of v fails the wrap check at the border
    where it starts v, so exact codes need no test of their own."""
    return sum(c for j, words in states.items() for code, c in words.items() if code > table.wrap[j])


def size_PO_PE(table) -> int:
    """Number of words of length n = |v|, v = table.p, whose class minimum
    is strictly above v: words phi.x.reverse(phi) when n is odd,
    x.phi.y.reverse(phi) when n is even."""
    n = table.n
    return _above(table, _grow(table, _layers(table, n - 1), n, table.append_rows(n - 1)))


def size_PS(table) -> int:
    """Number of words phi.reverse(phi) of even length n = |v|, v =
    table.p, whose class minimum is strictly above v."""
    return _above(table, _layers(table, table.n))


def total_palindromic(n: int, k: int) -> int:
    """Number of palindromic necklace classes of length n over k symbols:
    the reflection average (k^ceil(n/2) + k^(floor(n/2)+1)) / 2 of
    ERRATA #2."""
    n, k = validate_length(n, k)
    return (k ** ((n + 1) // 2) + k ** (n // 2 + 1)) // 2


def count_palindromic_upto(table) -> int:
    """Palindromic necklace representatives <= f = table.p; unchecked."""
    n, greater = table.n, size_PO_PE(table)
    if n % 2 == 0:
        ps = size_PS(table)
        check((greater + ps) % 2 == 0, "size_PE and size_PS out of parity")
        greater = (greater + ps) // 2
    return total_palindromic(n, table.k) - greater


def rank_palindromic(v, k: int) -> int:
    """Number of palindromic necklace representatives strictly below v."""
    _, k, f, cut = floor_of(v, k)
    return count_palindromic_upto(SubwordTable(f, k)) - cut[1]


# --- diagnostic layer dumps -------------------------------------------------

def layer_counts(v, k: int) -> dict:
    """Strict-branch cell counts {(i, j, s): count} of the walk to length
    n - 1, n = |v|: at odd n, prefixes u of length i with doubled word
    reverse(u).u of length 2i; at even n, prefixes x.phi of length i with
    doubled word reverse(phi).x.phi of length 2i - 1; longest v-prefix
    suffix j, strictly bounded by subword s.  v must be a necklace
    representative."""
    if min_rotation(tuple(v)) != tuple(v):
        raise ValueError("layer dumps require a necklace representative")
    out = {}

    def sink(dl, states):
        for j, words in states.items():
            for code, c in words.items():
                if not code & 1:
                    out[((dl + 1) // 2, j, (code >> 1) - 1)] = c

    _layers(SubwordTable(tuple(v), k), len(v) - 1, sink)
    return out
