"""Brute-force ground truth by exhaustive enumeration.

Everything here scans all k^n words, canonicalizes, and counts directly;
it exists to validate the polynomial counting routines at desk scale.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left

from .words import (
    is_palindromic_necklace,
    min_rotation,
    bracelet_representative,
)

DEFAULT_BUDGET = 2 ** 24

KINDS = ("necklace", "bracelet", "palindromic_necklace")


class BudgetExceededError(Exception):
    """Raised when an enumeration would scan more than the word budget."""


def _check_budget(n, k, budget):
    budget = DEFAULT_BUDGET if budget is None else budget
    if k ** n > budget:
        raise BudgetExceededError(f"{k}^{n} words exceed budget {budget}")


def _words(n, k):
    return itertools.product(range(k), repeat=n)


def enumerate_class(kind: str, n: int, k: int, budget: int | None = None) -> list:
    """Sorted list of representatives of the given class."""
    if kind not in KINDS:
        raise ValueError(f"unknown class kind {kind!r}")
    _check_budget(n, k, budget)
    out = []
    for w in _words(n, k):
        if kind == "necklace":
            if min_rotation(w) == w:
                out.append(w)
        elif kind == "bracelet":
            if bracelet_representative(w) == w:
                out.append(w)
        else:
            if min_rotation(w) == w and is_palindromic_necklace(w):
                out.append(w)
    return out


def oracle_enclosing(v, k: int, budget: int | None = None) -> list:
    """Sorted bracelet representatives whose two necklace representatives
    strictly straddle v."""
    v = tuple(v)
    n = len(v)
    _check_budget(n, k, budget)
    out = []
    for w in _words(n, k):
        if min_rotation(w) != w:
            continue
        g = min_rotation(w[::-1])
        if g > w and w < v < g:
            out.append(w)
    return out


def oracle_rank(kind: str, v, k: int, budget: int | None = None) -> int:
    """Number of class representatives strictly below v (for 'enclosing',
    the number of bracelets enclosing v)."""
    v = tuple(v)
    if kind == "enclosing":
        return len(oracle_enclosing(v, k, budget))
    reps = enumerate_class(kind, len(v), k, budget)
    return bisect_left(reps, v)


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
    from .bounding import SubwordTable, bound_of

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
    from .bounding import SubwordTable, bound_of

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
    from .bounding import SubwordTable, bound_of

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
