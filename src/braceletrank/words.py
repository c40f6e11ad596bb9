"""Word primitives for cyclic words under rotation and reflection.

Words are tuples of symbol indices (0-based) over an ordered alphabet of
size k.  All functions are pure and all values immutable.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

Word = tuple  # tuple of ints, each < k


@dataclass(frozen=True)
class Alphabet:
    """An ordered alphabet of distinct single-character symbols.

    Symbol order is the order given, not character-code order.
    """

    symbols: str

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")

    @property
    def k(self) -> int:
        return len(self.symbols)

    def encode(self, text: str) -> Word:
        """Map a string to a word of symbol indices."""
        if not text:
            raise ValueError("empty word")
        try:
            return tuple(self.symbols.index(c) for c in text)
        except ValueError:
            raise ValueError(f"word {text!r} uses symbols outside alphabet {self.symbols!r}") from None

    def decode(self, word: Word) -> str:
        return "".join(self.symbols[x] for x in word)


def _require_integer_type(t, what: str):
    if t is bool or not hasattr(t, "__index__"):
        raise TypeError(f"{what} must be an integer, not {t.__name__}")


def as_index(x, what: str = "symbol") -> int:
    """x as a Python int through operator.index, so numpy integers pass;
    bools and non-integers such as floats raise TypeError."""
    _require_integer_type(type(x), what)
    return operator.index(x)


def alphabet_size(k) -> int:
    k = as_index(k, "alphabet size")
    if k < 1:
        raise ValueError("alphabet size must be >= 1")
    return k


def validate_word(word, k):
    """The input check of every public entry point that takes a word:
    returns (word, k) with k an int >= 1 and word a non-empty tuple of ints
    in range(k), symbols checked as by as_index."""
    k = alphabet_size(k)
    word = tuple(word)
    if not word:
        raise ValueError("empty word")
    for t in set(map(type, word)):
        _require_integer_type(t, "symbol")
    word = tuple(map(operator.index, word))
    if min(word) < 0 or max(word) >= k:
        raise ValueError("symbol index out of range for alphabet")
    return word, k


def _check_nonempty(w: Word):
    if len(w) == 0:
        raise ValueError("empty word")


def period(w: Word) -> int:
    """Smallest p such that w is its length-p prefix repeated."""
    _check_nonempty(w)
    n = len(w)
    for p in range(1, n + 1):
        if n % p == 0 and w == w[:p] * (n // p):
            return p
    return n


def min_rotation(w: Word) -> Word:
    """Lexicographically smallest rotation (Booth's algorithm)."""
    _check_nonempty(w)
    n = len(w)
    s = w + w
    f = [-1] * (2 * n)
    best = 0
    for j in range(1, 2 * n):
        sj = s[j]
        i = f[j - best - 1]
        while i != -1 and sj != s[best + i + 1]:
            if sj < s[best + i + 1]:
                best = j - i - 1
            i = f[i]
        if sj != s[best + i + 1]:
            if sj < s[best]:
                best = j
            f[j - best] = -1
        else:
            f[j - best] = i + 1
    return w[best:] + w[: best]


def is_necklace(w: Word) -> bool:
    """True iff w is the smallest rotation of itself."""
    return w == min_rotation(w)


def bracelet_representative(w: Word) -> Word:
    """Smallest word reachable by rotations and reflection."""
    return min(min_rotation(w), min_rotation(w[::-1]))


def is_palindromic_necklace(w: Word) -> bool:
    """True iff w's rotation class coincides with its reflected class."""
    return min_rotation(w) == min_rotation(w[::-1])


def _failure(v: Word) -> list:
    """KMP failure function; fail[j] = longest proper border of v[:j]."""
    m = len(v)
    fail = [0] * (m + 1)
    j = 0
    for i in range(1, m):
        while j and v[i] != v[j]:
            j = fail[j]
        if v[i] == v[j]:
            j += 1
        fail[i + 1] = j
    return fail


# --- prenecklace machinery (prefixes of necklaces) -------------------------

def is_prenecklace(w: Word) -> bool:
    """True iff w is a prefix of some necklace, i.e. no suffix of w is
    smaller than the prefix of w of the same length."""
    return _lyn_or_none(w) is not None


def _lyn_or_none(w):
    # Duval state for a prenecklace; None if w is not one
    l = 1
    for t in range(1, len(w)):
        c = w[t - l]
        if w[t] < c:
            return None
        if w[t] > c:
            l = t + 1
    return l


def floor_necklace(w: Word, k: int) -> Word:
    """Largest necklace representative <= w over a k-letter alphabet."""
    _check_nonempty(w)
    if any(x < 0 or x >= k for x in w):
        raise ValueError("symbol index out of range")
    if is_necklace(w):
        return w
    n = len(w)
    for i in range(n - 1, -1, -1):
        if not is_prenecklace(w[:i]):
            continue
        for x in range(w[i] - 1, -1, -1):
            p = w[:i] + (x,)
            if _lyn_or_none(p) is None:
                continue
            q = _complete_necklace(p, n, k)
            if q is not None:
                return q
    raise AssertionError("unreachable: the all-minimal word is a necklace")


def _complete_necklace(p, n, k):
    """Largest necklace of length n with prenecklace prefix p, or None."""
    w = list(p)
    while len(w) < n:
        for x in range(k - 1, -1, -1):
            l = _lyn_or_none(tuple(w) + (x,))
            if l is None:
                continue
            if _can_finish(w + [x], l, n, k):
                w.append(x)
                break
        else:
            return None
    l = _lyn_or_none(tuple(w))
    return tuple(w) if l is not None and n % l == 0 else None


def _can_finish(w, l, n, k):
    # copy-filling keeps the Lyndon prefix length l; breaking above the
    # copied symbol at any position makes the whole word Lyndon
    t = len(w)
    if t == n:
        return n % l == 0
    if n % l == 0:
        return True
    ww = list(w)
    for m in range(t + 1, n + 1):
        if ww[m - 1 - l] < k - 1:
            return True
        ww.append(ww[m - 1 - l])
    return False
