"""Rank over necklaces: count necklace representatives below a word.

Necklace representatives of length n are exactly the powers c^(n/e) of
Lyndon words c with e | n, so the rank decomposes over divisors and the
per-divisor terms reduce, by Mobius inversion, to counts of words all of
whose rotations stay at or above a prefix of the query word.  That last
count is the workhorse DP shared with the enclosing-bracelet module.
"""

from __future__ import annotations

from .bounding import SubwordTable, cached_table
from .errors import check
from .words import alphabet_size, as_index, min_rotation, period, validate_word


def divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(m: int) -> int:
    if m == 1:
        return 1
    res, q = 1, 2
    while q * q <= m:
        if m % q == 0:
            m //= q
            if m % q == 0:
                return 0
            res = -res
        q += 1
    if m > 1:
        res = -res
    return res


def _rotation_layers(table: SubwordTable):
    """Yield, after each symbol t = 1..|p|, the distribution
    {match state: {bound code: count}} of all words w of length t whose
    every suffix is >= the same-length prefix of p."""
    k, delta, thresh = table.k, table.delta, table.thresh
    memo = table._app_cache
    states = {0: {0: 1}}
    for t in range(table.n):
        base = table.base[t]
        nxt = {}
        for j, row in states.items():
            dj = delta[j]
            for x in range(thresh[j], k):
                tgt = nxt.setdefault(dj[x], {})
                for b, c in row.items():
                    r = memo[base + b * k + x]
                    if r < 0:
                        r = table.append_code(t, b, x)
                    tgt[r] = tgt.get(r, 0) + c
        states = nxt
        yield states


def _rotation_dp(table: SubwordTable):
    """Final distribution {match state: {bound code: count}} of all words w
    of length |p| whose every suffix is >= the same-length prefix of p and
    whose every rotation is therefore undecided only at the wrap."""
    for states in _rotation_layers(table):
        pass
    return states


def _wrap_ok(table: SubwordTable, j, b, strict: bool) -> bool:
    """Resolve the wrapped rotations of a finished word against p.

    For every border m of the final match state j, the rotation starting at
    that border equals p[:m] followed by the word's own prefix; comparing
    the word (bound code b) with the cyclic subword of p starting at
    position m settles it.
    """
    d = table.n
    for m in table.chain[j]:
        r = table.cmp_with_subword(b, d, table.pos_id[d][m % d])
        if r < 0 or (r == 0 and strict):
            return False
    return True


def count_all_rotations_geq(w, k: int, strict: bool = False) -> int:
    """Number of words u with |u| = |w| such that every rotation of u is
    >= w (or > w when strict)."""
    w, k = validate_word(w, k)
    table = cached_table(w, k)
    if table.rotations is None:
        table.rotations = _rotation_dp(table)
    return sum(c for j, row in table.rotations.items()
               for b, c in row.items() if _wrap_ok(table, j, b, strict))


def _class_size(p) -> int:
    """Number of words whose smallest rotation equals p (0 if p is not a
    necklace representative)."""
    return period(p) if min_rotation(p) == p else 0


def _count_min_rot_below(v, k: int, d: int) -> int:
    """#{w in Sigma^d : min-rotation(w)^(n/d) < v}, where d | n = |v|.

    The power comparison reduces to the prefix p = v[:d]: any class minimum
    below p qualifies, and the boundary class of p itself qualifies exactly
    when p repeated dips below v.
    """
    n = len(v)
    p = v[:d]
    g = k ** d - count_all_rotations_geq(p, k)
    if p * (n // d) < v:
        g += _class_size(p)
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


def count_lyndon_below(w, k: int) -> int:
    """Number of Lyndon words of length |w| strictly smaller than w."""
    w, k = validate_word(w, k)
    return mobius_quotient(len(w), lambda d: _count_min_rot_below(w, k, d))


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
