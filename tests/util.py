"""Tiny independent helpers for the test suite.

These deliberately re-derive everything by direct enumeration or a
textbook algorithm, so tests do not lean on the code under test.
"""

import itertools

ABC = "abcd"


def enc(text, alphabet=ABC):
    return tuple(alphabet.index(c) for c in text)


def dec(word, alphabet=ABC):
    return "".join(alphabet[x] for x in word)


def all_words(n, k):
    return itertools.product(range(k), repeat=n)


def rotations(w):
    return [w[i:] + w[:i] for i in range(len(w))]


def naive_min_rotation(w):
    return min(rotations(w))


def necklace_reps(n, k):
    return sorted(w for w in all_words(n, k) if w == naive_min_rotation(w))


def is_palindromic_necklace(w):
    """True iff w's rotation class coincides with its reflected class."""
    return naive_min_rotation(w) == naive_min_rotation(w[::-1])


def palindromic_reps(n, k):
    return [w for w in necklace_reps(n, k)
            if naive_min_rotation(w[::-1]) == w]


def bracelet_reps(n, k):
    return sorted(w for w in all_words(n, k)
                  if w == min(naive_min_rotation(w), naive_min_rotation(w[::-1])))


def lyndon_prefix_length(w):
    """Length of the longest prefix of w that is a Lyndon word.

    A Lyndon word is strictly smaller than all of its proper rotations;
    the longest Lyndon prefix is the first factor of the standard
    factorization (Duval's algorithm).
    """
    n = len(w)
    i, j = 0, 1
    while j < n and w[i] <= w[j]:
        i = 0 if w[i] < w[j] else i + 1
        j += 1
    return j - i


def match_state(p, w):
    """Length of the longest suffix of w that is a prefix of p."""
    return max(m for m in range(min(len(w), len(p)) + 1) if w[len(w) - m:] == p[:m])


def period(w):
    """Smallest p such that w is its length-p prefix repeated."""
    if not w:
        raise ValueError("empty word")
    n = len(w)
    return next(p for p in range(1, n + 1) if n % p == 0 and w == w[:p] * (n // p))


def is_necklace(w):
    """True iff w is the smallest rotation of itself."""
    return w == naive_min_rotation(w)


def prenecklaces(n, k):
    """(w, p) for every prenecklace w (a prefix of a necklace) of length n
    over k symbols, in lexicographic order, with p the length of its
    longest Lyndon prefix: w is a necklace exactly when p divides n.  The
    FKM algorithm (Fredricksen, Kessler & Maiorana): raise the last symbol
    below k-1, then repeat the prefix up to it to length n."""
    a, p = [0] * n, 1
    while True:
        yield tuple(a), p
        i = n - 1
        while i >= 0 and a[i] == k - 1:
            i -= 1
        if i < 0:
            return
        a[i] += 1
        for j in range(i + 1, n):
            a[j] = a[j - i - 1]
        p = i + 1


def is_prenecklace(w):
    """True iff w is a prefix of a necklace: Duval's scan reaches the end,
    every symbol at or above its copy one Lyndon-prefix length back."""
    p = 1
    for i in range(1, len(w)):
        if w[i] < w[i - p]:
            return False
        if w[i] > w[i - p]:
            p = i + 1
    return True
