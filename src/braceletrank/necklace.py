"""Rank over necklaces: count necklace representatives below a word.

Necklace representatives of length n are exactly the powers c^(n/e) of
Lyndon words c with e | n, so the rank decomposes over divisors and the
per-divisor terms reduce, by Mobius inversion, to counts of words all of
whose rotations stay at or above a prefix of the query word.  That last
count, shared with the enclosing-bracelet module, counts closed walks on the
prefix's matching automaton.
"""

from __future__ import annotations

from .bounding import SubwordTable, cached_table
from .errors import check
from .words import alphabet_size, as_index, validate_word


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


def _forced_run(table: SubwordTable) -> list:
    """F: the |p| forced symbols read from state 0 of p's automaton.  From
    state j, symbols >= thresh[j] keep every suffix at or above the p-prefix
    of its length: thresh[j] is forced, to f(j) = delta[j][thresh[j]] >= 1,
    and each larger one extends no border, so it resets to state 0."""
    delta, thresh = table.delta, table.thresh
    out, j = [], 0
    for _ in range(table.n):
        out.append(thresh[j])
        j = delta[j][thresh[j]]
    return out


def _forced_cycles(table: SubwordTable) -> list:
    """The cycles of f with length L | d = |p|, as (the word they read,
    whether they pass state d): the L closed walks of length d without a
    reset, one per start state, reading the rotations of word^(d/L)."""
    d, delta, thresh = table.n, table.delta, table.thresh
    seen, out = [0] * (d + 1), []  # 0 unseen, 1 on the current path, 2 done
    for s in range(d + 1):
        path, j = [], s
        while not seen[j]:
            seen[j] = 1
            path.append(j)
            j = delta[j][thresh[j]]
        if seen[j] == 1 and d % (len(path) - path.index(j)) == 0:
            cyc = path[path.index(j):]
            out.append((tuple(thresh[i] for i in cyc), d in cyc))
        for i in path:
            seen[i] = 2
    return out


def _rotation_dp(table: SubwordTable) -> tuple:
    """(#words of length d = |p| whose every rotation is >= p, and > p).

    Such a word labels exactly one closed walk of length d on p's automaton:
    its state at each position is the longest suffix of the cyclic word up
    to there that is a prefix of p.  A walk with a reset cuts into blocks
    F[:r].x, x > F[r]; by the block that position 0 falls in, with
    c(r) = k-1-F[r] and B(m) the block sequences of length m,

        A(p) = sum over r < d of (r+1) c(r) B(d-r-1)  +  forced cycles,
        B(0) = 1,  B(m) = sum over r < m of c(r) B(m-r-1).

    A rotation equal to p enters state d, which no block shorter than d
    does, so the strict count drops the forced cycle through d.  O(d^2)
    (Kociumaka, Radoszewski & Rytter, SIAM J. Discrete Math. 30(4), 2016)."""
    d, k = table.n, table.k
    c = [k - 1 - x for x in _forced_run(table)]
    b = [1]
    for m in range(1, d):
        b.append(sum(c[r] * b[m - r - 1] for r in range(m) if c[r]))
    blocks = sum((r + 1) * c[r] * b[d - r - 1] for r in range(d) if c[r])
    cycles = _forced_cycles(table)
    total = blocks + sum(len(w) for w, _ in cycles)
    return total, total - sum(len(w) for w, through in cycles if through)


def count_all_rotations_geq(table: SubwordTable, strict: bool = False) -> int:
    """Number of words u with |u| = |p| such that every rotation of u is
    >= p (or > p when strict), p the table's pattern."""
    if table.rotations is None:
        table.rotations = _rotation_dp(table)
    return table.rotations[bool(strict)]


def _class_size(table: SubwordTable) -> int:
    """Number of words whose smallest rotation equals p (0 if p is not a
    necklace representative).  Rotation 0 sorts first exactly when p is its
    own smallest rotation, and the groups at length |p| are p's distinct
    rotations, as many as its period."""
    n = table.n
    return table.size[n] if table.prefix_id[n] == 0 else 0


def _count_min_rot_below(v, k: int, d: int) -> int:
    """#{w in Sigma^d : min-rotation(w)^(n/d) < v}, where d | n = |v|.

    The power comparison reduces to the prefix p = v[:d]: any class minimum
    below p qualifies, and the boundary class of p itself qualifies exactly
    when p repeated dips below v.
    """
    p = v[:d]
    table = cached_table(p, k)
    g = k ** d - count_all_rotations_geq(table)
    if p * (len(v) // d) < v:
        g += _class_size(table)
    return g


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


def count_necklaces(n: int, k: int) -> int:
    """Number of necklaces of length n over k symbols: (1/n) * sum over
    d | n of phi(d) * k^(n/d), summed as the Lyndon words of lengths e | n."""
    n, k = as_index(n, "length"), alphabet_size(k)
    if n < 1:
        raise ValueError("n >= 1 required")
    return sum(mobius_quotient(e, lambda d: k ** d) for e in divisors(n))


def rank_necklaces(v, k: int) -> int:
    """Number of necklace representatives of length |v| strictly below v."""
    v, k = validate_word(v, k)
    n = len(v)
    g = {d: _count_min_rot_below(v, k, d) for d in divisors(n)}
    return sum(mobius_quotient(e, g.__getitem__) for e in divisors(n))
