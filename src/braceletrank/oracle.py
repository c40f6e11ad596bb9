"""Brute-force ground truth by exhaustive enumeration.

One scan of all k^n words lists the necklace representatives, with one
min_rotation per word.  Every other class is read off each representative w
and g = min_rotation(w[::-1]), the representative of its reversal: w is a
bracelet representative when g >= w, a palindromic one when g == w, and the
smaller side of a mirror pair when g > w.  It exists to validate the
polynomial counting routines at desk scale.  Inputs are checked like those
of the polynomial entry points.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right

from .words import as_index, min_rotation, validate_length, validate_word

DEFAULT_BUDGET = 2 ** 24

KINDS = ("necklace", "bracelet", "palindromic_necklace")


class BudgetExceededError(Exception):
    """Raised when an enumeration would scan more than the word budget."""


def _necklaces(n, k, budget) -> list:
    """Sorted necklace representatives of length n over k symbols, after
    checking n, k and the budget of k^n words."""
    n, k = validate_length(n, k)
    budget = DEFAULT_BUDGET if budget is None else as_index(budget, "budget")
    if k ** n > budget:
        raise BudgetExceededError(f"{k}^{n} words exceed budget {budget}")
    return [w for w in itertools.product(range(k), repeat=n) if min_rotation(w) == w]


def _mirrored(n, k, budget) -> list:
    """The pairs (w, g) of each necklace representative w, in order, and the
    representative g of its reversal."""
    return [(w, min_rotation(w[::-1])) for w in _necklaces(n, k, budget)]


def enumerate_class(kind: str, n: int, k: int, budget: int | None = None) -> list:
    """Sorted list of representatives of the given class."""
    if kind not in KINDS:
        raise ValueError(f"unknown class kind {kind!r}")
    if kind == "necklace":
        return _necklaces(n, k, budget)
    return [w for w, g in _mirrored(n, k, budget) if (g >= w if kind == "bracelet" else g == w)]


def oracle_enclosing(v, k: int, budget: int | None = None) -> list:
    """Sorted bracelet representatives whose two necklace representatives
    strictly straddle v."""
    v, k = validate_word(v, k)
    return [w for w, g in _mirrored(len(v), k, budget) if w < v < g]


def _ranker(n, k, budget=None):
    """v -> (rn, rp, re, rb) for any word v of length n, each by bisection:
    the necklace, palindromic and bracelet representatives below v, and the
    bracelets enclosing v.  Over the mirror pairs w < g, re is
    #{w < v} - #{g <= v} and rb is rp + #{w < v}."""
    necklaces, pal, lo, hi = [], [], [], []
    for w, g in _mirrored(n, k, budget):
        necklaces.append(w)
        if g == w:
            pal.append(w)
        elif g > w:
            lo.append(w)
            hi.append(g)
    hi.sort()

    def ranks(v):
        rp, below = bisect_left(pal, v), bisect_left(lo, v)
        return bisect_left(necklaces, v), rp, below - bisect_right(hi, v), rp + below
    return ranks


def oracle_rank(kind: str, v, k: int, budget: int | None = None) -> int:
    """Number of class representatives strictly below v (for 'enclosing',
    the number of bracelets enclosing v)."""
    v, k = validate_word(v, k)
    if kind == "enclosing":
        return len(oracle_enclosing(v, k, budget))
    reps = enumerate_class(kind, len(v), k, budget)
    return bisect_left(reps, v)
