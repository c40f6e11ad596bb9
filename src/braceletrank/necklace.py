"""Rank over necklaces: count necklace representatives below a word.

The rank of a word v is the number of representatives <= its floor f, the
largest necklace representative <= v, less f itself when f = v: no
representative lies in (f, v] (floor_of, the floor step of every rank).
Necklace representatives of length n are exactly the powers c^(n/e) of
Lyndon words c with e | n, so the count up to f decomposes over divisors
and the per-divisor terms reduce, by Mobius inversion, to counts of words
all of whose rotations lie above the prefix p = f[:d], a prenecklace (a
prefix of a necklace).  That last count
counts closed walks on p's matching automaton, along which the symbols of p
are the forced ones.
"""

from __future__ import annotations

from .errors import check
from .words import floor_necklace, lyndon_prefix, min_rotation, validate_length, validate_word


def divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(m: int) -> int:
    res, q = 1, 2
    while q * q <= m:
        if m % q == 0:
            m //= q
            if m % q == 0:
                return 0
            res = -res
        q += 1
    return -res if m > 1 else res


def _rotation_dp(p: tuple, k: int) -> int:
    """#words of length d = |p| over k symbols whose every rotation is > p,
    for a prenecklace p (a prefix of a necklace).

    A word whose rotations all stay >= p labels exactly one closed walk of
    length d on p's automaton: its state at each position is the longest
    suffix of the cyclic word up to there that is a prefix of p.  From state
    j < d the symbol p[j] is forced and each larger one resets to state 0.
    A walk without a reset stays on the forced cycle through state d and
    reads a rotation of p, so the words above p are the walks with a reset.
    Each cuts into blocks p[:r].x, x > p[r]; by the block that position 0
    falls in, with c(r) = k-1-p[r] and B(m) the block sequences of length m,

        A(p) = sum over r < d of (r+1) c(r) B(d-r-1),
        B(0) = 1,  B(m) = sum over r < m of c(r) B(m-r-1).

    O(d^2) from p and k alone (Kociumaka, Radoszewski & Rytter, SIAM J.
    Discrete Math. 30(4), 2016)."""
    d = len(p)
    check(lyndon_prefix(p)[1] == d, "the pattern is not a prenecklace")
    c = [k - 1 - x for x in p]
    b = [1]
    for m in range(1, d):
        b.append(sum(c[r] * b[m - r - 1] for r in range(m) if c[r]))
    return sum((r + 1) * c[r] * b[d - r - 1] for r in range(d) if c[r])


def mobius_quotient(e: int, term) -> int:
    """(1/e) * sum over d | e of mobius(e/d) * term(d): the classes of
    smallest period e among those whose words term(d) counts per length d.
    term is called only where the Mobius factor is non-zero; a division
    that is not exact raises InternalError."""
    total = 0
    for d in divisors(e):
        mu = mobius(e // d)
        if mu:
            total += mu * term(d)
    check(total % e == 0, f"Mobius sum {total} not divisible by {e}")
    return total // e


def classes_of_length(n: int, term) -> int:
    """The sum over e | n of mobius_quotient(e, term): the classes of every
    period e | n, term(d) called once per divisor d of n."""
    values = {d: term(d) for d in divisors(n)}
    return sum(mobius_quotient(e, values.__getitem__) for e in divisors(n))


def count_necklaces(n: int, k: int) -> int:
    """Number of necklaces of length n over k symbols: (1/n) * sum over
    d | n of phi(d) * k^(n/d), summed as the Lyndon words of lengths e | n."""
    n, k = validate_length(n, k)
    return classes_of_length(n, lambda d: k ** d)


def count_necklaces_upto(f, k: int) -> int:
    """Necklace representatives <= f, a necklace representative; unchecked.
    The term of d | n counts #{w in Sigma^d : min-rotation(w) <= p} =
    k^d - A(p), p = f[:d]: that is #{w : min-rotation(w)^(n/d) <= f}, as
    p^(n/d) <= f and any other word of length d lies on the same side of p
    as its power does of f."""
    return classes_of_length(len(f), lambda d: k ** d - _rotation_dp(f[:d], k))


def floor_of(v, k) -> tuple:
    """The floor step of every public rank: (v, k, f, cut), v and k as
    validate_word returns them and f = floor_necklace(v, k), each run once.
    No necklace representative lies in (f, v], and each of the four sets
    compares v with necklace representatives alone, so each rank is its
    count up to f less cut[i], the amount that counts f itself.  For the
    necklace, palindromic, enclosing and bracelet ranks in turn, cut is
    (1, g == f, g > f, g >= f) when f = v, g = min_rotation(reverse(f)),
    read only then, and all 0 when f < v."""
    v, k = validate_word(v, k)
    f = floor_necklace(v, k)
    if f != v:
        return v, k, f, (0, 0, 0, 0)
    g = min_rotation(f[::-1])
    return v, k, f, (1, g == f, g > f, g >= f)


def rank_necklaces(v, k: int) -> int:
    """Number of necklace representatives of length |v| strictly below v."""
    _, k, f, cut = floor_of(v, k)
    return count_necklaces_upto(f, k) - cut[0]
