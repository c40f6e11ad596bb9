"""Bracelet ranking, unranking and counting: the public facade.

A bracelet is an equivalence class of words under rotation and reflection.
The rank of a word v is the number of bracelet representatives strictly
below v.  With f its floor (the largest necklace representative <= v), N,
P and E count the necklace and palindromic necklace representatives <= f
and the bracelets with smaller representative <= f < larger, each bracelet
with smaller representative <= f twice in all.  So rb = (N + P + E) / 2 -
[f = v <= <reverse(f)>] = (rn + rp + re + mirror_adjust) / 2.

Unranking searches, then walks.  A binary search per position, one rank
per probe, narrows the block of representatives that begin with the prefix
chosen so far; once that block holds at most WALK_BLOCK of them,
words.bracelet_reps_from walks it: FKM prenecklace steps, keeping the
necklaces that no rotation of their reversal undercuts.  Unrank counts the
representatives as they come and keeps the (z - below)-th, so its memory
does not grow with the block.  The walk costs O(n) per prenecklace, of
which perfbench's blocks hold 1.4-5.2 per representative, and saves the
probes of the last ~log_k(2 * n * WALK_BLOCK) positions, each a rank with
its own joint DP.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounding import SubwordTable
from .enclosing import count_union_upto
from .errors import check
from .memo import word_memo
from .necklace import count_necklaces, count_necklaces_upto
from .palindromic import count_palindromic_upto, total_palindromic
from .words import (as_index, bracelet_reps_from, bracelet_representative, floor_necklace, min_rotation,
                    validate_word)

# Floors whose counts are kept (memo.word_memo).  Perfbench's rank_small
# stream misses the memo on 26 % of its words at 4,096 entries, 20 % here,
# and 19 % when nothing is evicted.  With the joint memo full too, these
# entries at n = 16 fit in the bytes of the two 4,096-entry lru_caches
# they replaced (README, "Time and memory per n"; tests/memo_sizing.py).
FLOOR_MEMO = 24000
# Largest block of representatives unrank walks instead of probing further;
# on perfbench's unrank shapes 512 and 1024 tie and 2048 is slower, also
# with the packed joint DP's cheaper ranks (README).
WALK_BLOCK = 1024


@dataclass(frozen=True)
class RankBreakdown:
    """rb = (rn + rp + re + mirror_adjust) // 2.

    mirror_adjust is 1 exactly when the query word is itself the larger
    necklace representative of an apalindromic bracelet: that bracelet
    contributes one representative below the word but is neither counted
    twice by rn nor once by the strictly-straddling re.
    """

    word: tuple
    n: int
    k: int
    rn: int
    rp: int
    re: int
    rb: int
    mirror_adjust: int = 0


@word_memo(FLOOR_MEMO)
def _counts_upto(f: tuple, k: int) -> int:
    """(N, P, E) up to the necklace f, packed as N + P*2^b + E*2^(2b), and
    memoised per (f, k): every word with floor f shares them.  Each is at
    most k^n, n = |f|, so b = n*(k-1).bit_length() + 1 bits hold it.  P and
    U, the necklace classes c with <c> <= f or <reverse(c)> <= f, run on
    f's table, built here once; E = U - N."""
    table = SubwordTable(f, k)
    nc, pc, uc = count_necklaces_upto(f, k), count_palindromic_upto(table), count_union_upto(table)
    check((uc + pc) % 2 == 0, f"counts up to the floor out of parity: N={nc} P={pc} U={uc}")
    b = len(f) * (k - 1).bit_length() + 1
    check(min(nc, pc, uc - nc) >= 0 and max(nc, pc, uc - nc) >> b == 0,
          f"counts up to the floor out of range: N={nc} P={pc} U={uc}")
    return nc | pc << b | (uc - nc) << 2 * b


def rank_bracelet(word, k: int) -> RankBreakdown:
    """Rank of word over all bracelets of its length (0-based)."""
    word, k = validate_word(word, k)
    f = floor_necklace(word, k)
    b = len(f) * (k - 1).bit_length() + 1  # the field width _counts_upto packs with
    counts, mask = _counts_upto(f, k), (1 << b) - 1
    nc, pc, ec = counts & mask, counts >> b & mask, counts >> 2 * b
    on = f == word
    g = min_rotation(f[::-1]) if on else None
    rn, rp, re = nc - on, pc - (on and g == f), ec - (on and g > f)
    rb = (nc + pc + ec) // 2 - (on and g >= f)
    return RankBreakdown(word, len(word), k, rn, rp, re, rb, int(on and g < f))


def count_bracelets(n: int, k: int) -> int:
    """Total number of bracelets of length n over k symbols: the average
    (N + P) / 2 of the necklace and palindromic-necklace counts."""
    return (count_necklaces(n, k) + total_palindromic(n, k)) // 2  # both check n and k


def unrank_bracelet(z: int, n: int, k: int) -> tuple:
    """The bracelet representative of rank z (0-based) among bracelets of
    length n.  The search keeps the ranks [below, upto) of the block of
    representatives that begin with its prefix, read off its own probes;
    once upto - below <= WALK_BLOCK, the walk streams the block, which
    must hold exactly that many, and the answer is its (z - below)-th."""
    z = as_index(z, "rank")
    total = count_bracelets(n, k)  # checks n and k
    n, k = as_index(n), as_index(k)
    if not 0 <= z < total:
        raise ValueError(f"rank {z} out of range [0, {total})")
    prefix, below, upto = (), 0, total
    while len(prefix) < n and upto - below > WALK_BLOCK:
        fill = (0,) * (n - len(prefix) - 1)
        ranks, lo, hi = {}, 0, k - 1
        # largest x with rank(prefix + x + fill) <= z
        while lo < hi:
            mid = (lo + hi + 1) // 2
            ranks[mid] = rank_bracelet(prefix + (mid,) + fill, k).rb
            if ranks[mid] <= z:
                lo = mid
            else:
                hi = mid - 1
        prefix += (lo,)
        below, upto = ranks.get(lo, below), ranks.get(lo + 1, upto)
    found, answer = 0, None
    for w in bracelet_reps_from(prefix, n, k):
        if found == z - below:
            answer = w
        found += 1
    check(found == upto - below,
          f"unrank({z}) walked {found} representatives where the ranks count {upto - below}")
    check(rank_bracelet(answer, k).rb == z, f"unrank({z}) re-ranks differently")
    check(bracelet_representative(answer) == answer, f"unrank({z}) is no bracelet representative")
    return answer
