"""Brute-force ground truth by exhaustive enumeration.

Everything here scans all k^n words, canonicalizes, and counts directly;
it exists to validate the polynomial counting routines at desk scale.
Inputs are checked like those of the polynomial entry points.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right

from .words import (
    alphabet_size,
    as_index,
    bracelet_representative,
    is_palindromic_necklace,
    min_rotation,
    validate_word,
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
    n, k = as_index(n, "length"), alphabet_size(k)
    if n < 1:
        raise ValueError("n >= 1 required")
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


def _mirror_pairs(necklaces: list) -> list:
    """The pairs (w, g) of a necklace representative w given and the
    representative g of its reversal, where g > w."""
    return [(w, g) for w in necklaces for g in [min_rotation(w[::-1])] if g > w]


def oracle_enclosing(v, k: int, budget: int | None = None) -> list:
    """Sorted bracelet representatives whose two necklace representatives
    strictly straddle v."""
    v, k = validate_word(v, k)
    pairs = _mirror_pairs(enumerate_class("necklace", len(v), k, budget))
    return [w for w, g in pairs if w < v < g]


def enclosing_counter(necklaces: list):
    """v -> len(oracle_enclosing(v, k)) for the words v of the length of the
    sorted necklace representatives given: over the pairs w < g of a
    representative and that of its reversal, #{w < v} - #{g <= v}."""
    pairs = _mirror_pairs(necklaces)
    lo = [w for w, _ in pairs]
    hi = sorted(g for _, g in pairs)
    return lambda v: bisect_left(lo, v) - bisect_right(hi, v)


def oracle_rank(kind: str, v, k: int, budget: int | None = None) -> int:
    """Number of class representatives strictly below v (for 'enclosing',
    the number of bracelets enclosing v)."""
    v, k = validate_word(v, k)
    if kind == "enclosing":
        return len(oracle_enclosing(v, k, budget))
    reps = enumerate_class(kind, len(v), k, budget)
    return bisect_left(reps, v)

