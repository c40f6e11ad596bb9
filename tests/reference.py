"""Reference counts the tests compare the package against.

Definition-level brute force for the DP cells and the mirrored-form sizes,
the bisect bound of a word, and the single-form split of the even-length
palindromic count with its odd-period correction term (ERRATA #3).
"""

import itertools
from bisect import bisect_left, bisect_right

from braceletrank.bounding import SubwordTable, cached_table
from braceletrank.errors import check
from braceletrank.palindromic import size_PE, size_PO, size_PS
from braceletrank.words import floor_necklace, min_rotation, validate_word


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
    top = (n - 1) // 2 if n % 2 else (n - 2) // 2
    for i in range(1, top + 1):
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


# --- the closing comparison and the single-form split ----------------------

def size_X(v, k: int, j: int, s: int) -> int:
    """#symbols x with v[:j] + (x,) + value(s) >= v, comparing the first
    |v| symbols; s indexes S(v, n-1)."""
    v, k = validate_word(v, k)
    n = len(v)
    sval = cached_table(v, k).sub[n - 1][s]
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
