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


def min_rotation(w: Word) -> Word:
    """Lexicographically smallest rotation: Duval's Lyndon factorisation
    of w + w, one lyndon_prefix scan per run of equal factors, where it
    starts at the last such run that begins before |w|."""
    _check_nonempty(w)
    n, s = len(w), w + w
    i = best = 0
    while i < n:
        best = i
        p, j = lyndon_prefix(s, i)  # s[i:j] is a run of factors s[i:i + p], then a prefix of one
        i += (j - i) // p * p
    return w[best:] + w[:best]


def bracelet_representative(w: Word) -> Word:
    """Smallest word reachable by rotations and reflection."""
    return min(min_rotation(w), min_rotation(w[::-1]))


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


def lyndon_prefix(w: Word, start: int = 0) -> tuple:
    """Duval's scan of w[start:]: (p, i), p the length of its longest
    Lyndon prefix and i where a symbol first drops below its copy p places
    back, else len(w), which makes w[start:] a prenecklace; a necklace when
    p also divides len(w) - start."""
    n, m, i = len(w), start, start + 1  # w[m] is w[i]'s copy, p = i - m places back
    while i < n and w[m] <= w[i]:
        m = start if w[m] < w[i] else m + 1
        i += 1
    return i - m, i


def at_most_reversal(w, runs) -> bool:
    """True iff no rotation of reverse(w) is below w, for a necklace w with
    runs[j] = 1 where w[j] == w[0], else 0: w is then its bracelet's
    representative.  w[0] is w's least symbol and its leading run, r long,
    its longest: a necklace other than a constant word neither ends in w[0]
    nor has a longer run.  So a rotation of reverse(w) below w begins with
    r copies of w[0]: it reads one of w's runs of that length backwards,
    and only those rotations are compared.  A C-level search for the runs
    and slice comparisons, for symbols of any size."""
    n, r = len(w), runs.find(0)
    if r < 0:
        return True
    run, rr = runs[:r], w[::-1] * 2
    j = 0
    while j >= 0:  # the run w[j:j + r] read backwards starts rr at n - j - r
        if rr[n - j - r:2 * n - j - r] < w:
            return False
        j = runs.find(run, j + r + 1)
    return True


def bracelet_reps_from(prefix: Word, n: int, k: int):
    """Each bracelet representative of length n over k symbols that begins
    with prefix, in lexicographic order.  The FKM walk (Fredricksen, Kessler
    & Maiorana; Ruskey, Savage & Wang, J. Algorithms 13(3), 1992) lists the
    prenecklaces that begin with prefix, from the smallest, prefix repeated
    with its Lyndon period: raise the last symbol below k-1 and repeat the
    word up to it, until that symbol is in prefix.  The raised position ends
    the longest Lyndon prefix, of length p, and the word is a necklace when
    p | n; a necklace is yielded when at_most_reversal holds."""
    a = list(prefix) or [0]
    p, i = lyndon_prefix(a)
    if i < len(a):  # a prefix that is no prenecklace begins none
        return
    a = (a[:p] * (n // p + 1))[:n]  # a prenecklace repeats its Lyndon prefix
    runs = bytearray(map(a[0].__eq__, a))
    top, fixed = k - 1, len(prefix)
    while True:
        if n % p == 0 and at_most_reversal(a, runs):
            yield tuple(a)
        i = n - 1
        while i >= 0 and a[i] == top:
            i -= 1
        if i < fixed:
            return
        a[i] += 1
        p = i + 1
        a[p:] = (a[:p] * (n // p))[:n - p]
        # a raised a[0] makes a constant word; any other raised symbol
        # leaves the least one
        runs[i] = i == 0
        runs[p:] = (runs[:p] * (n // p))[:n - p]


def floor_necklace(w: Word, k: int) -> Word:
    """Largest necklace representative <= w over a k-letter alphabet.

    Walks down the prenecklaces with Duval's scan (lyndon_prefix).  A
    prenecklace with p | n is a necklace.  Otherwise every necklace below w
    first differs from it at or before w[p-1], the last symbol that rose
    above its copy: lowering a copied symbol leaves the prenecklaces.  So
    the floor of w is the floor of w with w[p-1] lowered by one and every
    later symbol raised to k-1.
    """
    _check_nonempty(w)
    if any(x < 0 or x >= k for x in w):
        raise ValueError("symbol index out of range")
    w, n = list(w), len(w)
    while True:
        p, i = lyndon_prefix(w)
        if i == n and n % p == 0:
            return tuple(w)
        w[p - 1:] = [w[p - 1] - 1] + [k - 1] * (n - p)
