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
per layer.  A state is (longest suffix matching a v-prefix, bound code); the
code may be exact, so the palindromic cyclic subwords of v are ordinary
states.  A finished word counts when it passes the table's wrap check with
every rotation strictly above v, as in the joint DP of the enclosing module.

The forms take the SubwordTable of a necklace representative v.  size_PS
is the walk at length n; size_PO_PE is the walk at length n-1 plus one
appended symbol, a rotation of phi.x.reverse(phi) at odd n and of
x.phi.y.reverse(phi) at even n.  count_palindromic_upto runs the forms on
a necklace f's table, passed down.  rank_palindromic checks its input
and floors it once to f, which leaves every "classes above" count
unchanged, counts up to f, and subtracts f itself when f = v is
palindromic.
"""

from __future__ import annotations

from .bounding import SubwordTable
from .errors import InternalError, check
from .words import alphabet_size, as_index, floor_necklace, lyndon_prefix, min_rotation, validate_word


def _step(table, states, dl):
    """Grow doubled words by one symbol on each side, from length dl to
    l = dl + 2: reverse(u).u for even dl, reverse(phi).x.phi for odd dl.
    Words that fell below v[:l] are dropped; a word equal to v[:l] matches
    all of it, which growth at the back cannot see.  Below that, v[j]
    advances the match j and larger symbols reset it (SubwordTable)."""
    nxt, k, l, p = {}, table.k, dl + 2, table.p
    app, pre, get = table.append_rows(dl), table.prepend_rows(dl + 1), nxt.get
    prefix = 2 * table.pos_id[l][0] + 1
    for (j, code), c in states.items():
        pj = p[j]
        for x in range(pj, k):
            st = pre[x][app[x][code]]
            if st & 1 and not code & 1:
                raise InternalError("a strictly bounded doubled word became a subword")
            if st >= prefix:
                key = (l if st == prefix else j + 1 if x == pj else 0, st)
                nxt[key] = get(key, 0) + c
    return nxt


def _layers(table, final_len, sink=None):
    """States {(j, code): count} of the doubled words of length final_len:
    grown from the empty word reverse(u).u when final_len is even, from the
    middle symbol of reverse(phi).x.phi when odd; sink sees every layer."""
    check(lyndon_prefix(table.p)[1] == table.n, "the pattern is not a prenecklace")
    states, dl = {(0, 1): 1}, final_len % 2
    if dl:
        states = _append_one(table, states, 0)
        if sink is not None:
            sink(1, states)
    while dl < final_len:
        states = _step(table, states, dl)
        dl += 2
        if sink is not None:
            sink(dl, states)
    return states


def _append_one(table, states, l):
    """The states at length l+1 of the words of length l followed by one
    more symbol: the middle symbol of the odd walk at l = 0, and at
    l = n-1 the words reverse(u).u.x and reverse(phi).x.phi.y, rotations of
    phi.x.reverse(phi) and x.phi.y.reverse(phi).  Words are dropped and
    matched as in _step."""
    nxt, k, p = {}, table.k, table.p
    app, prefix, get = table.append_rows(l), 2 * table.pos_id[l + 1][0] + 1, nxt.get
    for (j, code), c in states.items():
        pj = p[j]
        for x in range(pj, k):
            st = app[x][code]
            if st >= prefix:
                key = (l + 1 if st == prefix else j + 1 if x == pj else 0, st)
                nxt[key] = get(key, 0) + c
    return nxt


def _above(table, states) -> int:
    """Words of length n = |v| among the states whose every rotation is
    strictly above v.  A rotation of v fails the wrap check at the border
    where it starts v, so exact codes need no test of their own."""
    return sum(c for (j, code), c in states.items() if table.wrap_ok(j, code))


def size_PO_PE(table) -> int:
    """Number of words of length n = |v|, v = table.p, whose class minimum
    is strictly above v: words phi.x.reverse(phi) when n is odd,
    x.phi.y.reverse(phi) when n is even."""
    return _above(table, _append_one(table, _layers(table, table.n - 1), table.n - 1))


def size_PS(table) -> int:
    """Number of words phi.reverse(phi) of even length n = |v|, v =
    table.p, whose class minimum is strictly above v."""
    return _above(table, _layers(table, table.n))


def total_palindromic(n: int, k: int) -> int:
    """Number of palindromic necklace classes of length n over k symbols:
    the reflection average (k^ceil(n/2) + k^(floor(n/2)+1)) / 2 of
    ERRATA #2."""
    n, k = as_index(n, "length"), alphabet_size(k)
    if n < 1:
        raise ValueError("n >= 1 required")
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
    """Number of palindromic necklace representatives strictly below v:
    those not above its floor f, the largest necklace representative <= v,
    less f when f = v and f is palindromic, as none lies in (f, v]."""
    v, k = validate_word(v, k)
    f = floor_necklace(v, k)
    return count_palindromic_upto(SubwordTable(f, k)) - (f == v and min_rotation(f[::-1]) == f)


# --- diagnostic layer dumps -------------------------------------------------

def _layer_counts(v, k, final_len, index) -> dict:
    if min_rotation(tuple(v)) != tuple(v):
        raise ValueError("layer dumps require a necklace representative")
    out, table = {}, SubwordTable(tuple(v), k)

    def sink(dl, states):
        for (j, code), c in states.items():
            if not code & 1:
                out[(index(dl), j, (code >> 1) - 1)] = c

    _layers(table, final_len, sink)
    return out


def po_layer_counts(v, k: int) -> dict:
    """Strict-branch cell counts {(i, j, s): count} of the odd-case DP:
    i prefixes u with doubled word reverse(u).u of length 2i, longest
    v-prefix suffix j, strictly bounded by subword s.  v must be a
    necklace representative."""
    if len(v) % 2 == 0:
        raise ValueError("po_layer_counts requires odd length")
    return _layer_counts(v, k, len(v) - 1, lambda dl: dl // 2)


def pe_layer_counts(v, k: int) -> dict:
    """Strict-branch cell counts {(i, j, s): count} of the even-case DP:
    prefixes x.phi of length i with doubled word reverse(phi).x.phi of
    length 2i - 1.  v must be a necklace representative."""
    if len(v) % 2:
        raise ValueError("pe_layer_counts requires even length")
    return _layer_counts(v, k, len(v) - 1, lambda dl: (dl + 1) // 2)
