"""Rank over palindromic necklaces.

Odd length: every palindromic class contains exactly one word of the
mirrored form phi.x.reverse(phi), so counting classes above v reduces to a
layered DP over the doubled words reverse(u).u of the growing prefix u,
partitioned by (longest suffix matching a v-prefix, bounding subword).

Even length: classes are counted through the two mirrored forms
x.phi.y.reverse(phi) and phi.reverse(phi).  Each palindromic class of even
length carries exactly two such form words in total (one of each kind when
its period is odd, two of one kind when even), which gives

    #palindromic classes above v  =  (|PE(v)| + |PS(v)|) / 2

The split into the classes of each form, with the number of odd-period
palindromic classes above v as its correction term (ERRATA #3), is not
needed here; tests/reference.py keeps it as a check.

The DPs require a necklace representative; public entry points floor
arbitrary words first, which leaves every "classes above" count unchanged.
"""

from __future__ import annotations

from .bounding import SubwordTable, cached_table
from .errors import check
from .words import (alphabet_size, as_index, floor_necklace, is_palindromic_necklace,
                    min_rotation, validate_word)


def _palindromic_ids(table: SubwordTable, l: int) -> list:
    return [i for i, val in enumerate(table.sub[l]) if val == val[::-1]]


def _push(table, nxt, j, code, c, dl2):
    """Add c doubled words with bound code at doubled length dl2 unless
    they became exact subwords, fell to the bottom or dipped below the
    v-prefix; the key keeps the strict index."""
    if table.prefix_id[dl2] < code <= table.size[dl2]:
        key = (j, code - 1)
        nxt[key] = nxt.get(key, 0) + c


def _step(table, states, dl, k):
    """Grow doubled words by one symbol on each side, from length dl to
    dl + 2: reverse(u).u for even dl, reverse(phi).x.phi for odd dl."""
    nxt = {}
    delta, thresh, top = table.delta, table.thresh, table.size[dl + 2]
    for (j, sidx), c in states.items():
        for x in range(thresh[j], k):
            st = table.prepend_code(dl + 1, table.append_code(dl, sidx + 1, x), x)
            check(st <= top, "a strictly bounded doubled word became a subword")
            _push(table, nxt, delta[j][x], st, c, dl + 2)
    # words whose doubled form is an exact subword feed the strict sets
    if dl == 0:
        for x in range(thresh[0], k):
            _push(table, nxt, delta[0][x], table.weak_code((x, x)), 1, 2)
    else:
        for e in _palindromic_ids(table, dl):
            j = table.match_state(table.sub[dl][e])
            for x in range(thresh[j], k):
                st = table.append_code(dl, 1 + table.size[dl] + e, x)
                _push(table, nxt, delta[j][x], table.prepend_code(dl + 1, st, x), 1, dl + 2)
    return nxt


def _layers(table, k, final_len, sink=None):
    """Strict states of the doubled words of length final_len: grown from
    the empty word reverse(u).u when final_len is even, from the single
    symbol of reverse(phi).x.phi when odd; sink sees every layer."""
    states, dl = {}, final_len % 2
    if dl:
        for x in range(table.thresh[0], k):
            _push(table, states, table.delta[0][x], table.weak_code((x,)), 1, 1)
        if sink is not None:
            sink(1, states)
    while dl < final_len:
        states = _step(table, states, dl, k)
        dl += 2
        if sink is not None:
            sink(dl, states)
    return states


def _close_one(table, j, s, exact: bool, k: int) -> int:
    """#symbols x such that inserting x opposite a doubled word of length
    n-1 with state (j, s) yields a class strictly above v; the word equals
    subword s when exact, else it is strictly bounded by it.

    Check, per border m of j plus the empty border: the rotation aligned
    there continues with x against v[m]; ties defer to comparing the
    doubled word with the cyclic subword of v following that border.
    """
    n, v = table.n, table.p
    code = 1 + s + (table.size[n - 1] if exact else 0)
    cnt = 0
    for x in range(k):
        for m in table.chain[j] + [0]:
            if x > v[m]:
                continue
            # below v, or the rotation equals v exactly
            if x < v[m] or table.cmp_with_subword(code, n - 1, table.pos_id[n - 1][(m + 1) % n]) <= 0:
                break
        else:
            cnt += 1
    return cnt


def _close_two(table, j, s, exact: bool, k: int) -> int:
    """#symbols z closing a doubled word of length n-2 as ..z z.. into a
    class strictly above v."""
    n, v = table.n, table.p
    code = 1 + s + (table.size[n - 2] if exact else 0)
    pos = table.pos_id[n - 2]
    cnt = 0
    for z in range(k):
        for m in table.chain[j] + [0]:
            if z > v[m]:
                continue
            if z < v[m]:
                break
            if z > v[(m + 1) % n]:
                continue
            if z < v[(m + 1) % n] or table.cmp_with_subword(code, n - 2, pos[(m + 2) % n]) <= 0:
                break
        else:
            # the rotation that starts at the second inserted z
            if z > v[0]:
                cnt += 1
            elif z == v[0]:
                r = table.cmp_with_subword(code, n - 2, pos[1 % n])
                if r > 0 or (r == 0 and z > v[n - 1]):
                    cnt += 1
    return cnt


def _close_all(table, states, l, close, k) -> int:
    """Closed words over the strict states of the last layer (length l)
    plus the palindromic exact subwords of that length."""
    total = sum(c * close(table, j, s, False, k) for (j, s), c in states.items())
    for e in _palindromic_ids(table, l):
        total += close(table, table.match_state(table.sub[l][e]), e, True, k)
    return total


def _floored(v, k, odd: int, name: str):
    v, k = validate_word(v, k)
    if len(v) % 2 != odd:
        raise ValueError(f"{name} requires {'odd' if odd else 'even'} length")
    return floor_necklace(v, k), k


def size_PO(v, k: int) -> int:
    """Number of words phi.x.reverse(phi) of odd length |v| whose class
    minimum is strictly above v."""
    v, k = _floored(v, k, 1, "size_PO")
    n = len(v)
    if n == 1:
        return k - 1 - v[0]
    table = cached_table(v, k)
    return _close_all(table, _layers(table, k, n - 1), n - 1, _close_one, k)


def size_PE(v, k: int) -> int:
    """Number of words x.phi.y.reverse(phi) of even length |v| whose class
    minimum is strictly above v."""
    v, k = _floored(v, k, 0, "size_PE")
    table, n = cached_table(v, k), len(v)
    return _close_all(table, _layers(table, k, n - 1), n - 1, _close_one, k)


def size_PS(v, k: int) -> int:
    """Number of words phi.reverse(phi) of even length |v| whose class
    minimum is strictly above v."""
    v, k = _floored(v, k, 0, "size_PS")
    n = len(v)
    if n == 2:
        return sum(1 for z in range(k) if (z, z) > v)
    table = cached_table(v, k)
    return _close_all(table, _layers(table, k, n - 2), n - 2, _close_two, k)


def _greater_even(v, k: int) -> int:
    pe, ps = size_PE(v, k), size_PS(v, k)
    check((pe + ps) % 2 == 0, "size_PE and size_PS out of parity")
    return (pe + ps) // 2


def total_palindromic(n: int, k: int) -> int:
    """Number of palindromic necklace classes of length n over k symbols:
    the reflection average (k^ceil(n/2) + k^(floor(n/2)+1)) / 2 of
    ERRATA #2."""
    n, k = as_index(n, "length"), alphabet_size(k)
    if n < 1:
        raise ValueError("n >= 1 required")
    return (k ** ((n + 1) // 2) + k ** (n // 2 + 1)) // 2


def rank_palindromic(v, k: int) -> int:
    """Number of palindromic necklace representatives strictly below v."""
    v, k = validate_word(v, k)
    n = len(v)
    if n == 1:
        return v[0]
    w = floor_necklace(v, k)
    greater = size_PO(w, k) if n % 2 == 1 else _greater_even(w, k)
    pal_w = is_palindromic_necklace(w)
    rank_at_w = total_palindromic(n, k) - greater - (1 if pal_w else 0)
    return rank_at_w + (1 if pal_w and w < v else 0)


# --- diagnostic layer dumps -------------------------------------------------

def _layer_counts(v, k, final_len, index) -> dict:
    if min_rotation(tuple(v)) != tuple(v):
        raise ValueError("layer dumps require a necklace representative")
    out = {}

    def sink(dl, states):
        for (j, sidx), c in states.items():
            out[(index(dl), j, sidx)] = c

    _layers(cached_table(tuple(v), k), k, final_len, sink)
    return out


def po_layer_counts(v, k: int) -> dict:
    """Strict-branch cell counts {(i, j, s): count} of the odd-case DP:
    i prefixes u with doubled word reverse(u).u of length 2i, longest
    v-prefix suffix j, strictly bounded by subword s.  v must be a
    necklace representative."""
    n = len(v)
    return _layer_counts(v, k, n - 1 if n % 2 else n - 2, lambda dl: dl // 2)


def pe_layer_counts(v, k: int) -> dict:
    """Strict-branch cell counts {(i, j, s): count} of the even-case DP:
    prefixes x.phi of length i with doubled word reverse(phi).x.phi of
    length 2i - 1.  v must be a necklace representative."""
    return _layer_counts(v, k, len(v) - 1, lambda dl: (dl + 1) // 2)
