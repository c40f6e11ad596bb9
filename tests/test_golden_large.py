"""Exact ranks far beyond the oracle's reach.

golden_large.json holds rn/rp/re/rb of ten seeded random necklace
representatives.  The first six (n = 100..128 at k = 2, n = 60..72 at k = 3
and 4) were computed by the tuple-state implementation that preceded the
integer-coded DPs (commit e81b56d); the next two (n = 150 at k = 2, n = 90 at
k = 3) by the integer-coded DPs before the joint DP merged its bound codes
into canonical classes (commit bf1fb8b); the last two (n = 200 at k = 2 from
random.Random(200), n = 120 at k = 3 from random.Random(120), each the
smallest rotation of a uniform random word) by the DPs over bound codes that
preceded the closed-walk counts (commit 16f1539).  Five more words are not
necklaces, so the ranks that floor their input reach the floor's tables and
add one for the floor: the smallest rotation of a uniform random word with
its second half redrawn (random.Random(1000 * k + n)) at n = 100 and 200 for
k = 2, n = 120 for k = 3 and n = 80 for k = 4, and an unrank-style probe at
n = 120, k = 2 (a necklace prefix from random.Random(2120), one symbol raised
to 1, then zeros), all computed before the necklace and enclosing ranks
floored their input (commit 091cb77).  The last eighteen are periodic: each
necklace is u^m with u the smallest rotation of a primitive word drawn from
random.Random(100 * n + 10 * k + m) (redrawn until primitive), m = 2 and 3 at
(n, k) = (60, 2), (96, 2), (120, 2), (72, 3) and m = 2 and 4 at (80, 4), each
followed by its lexicographic successor when the successor floors back to it;
their proper periods are the divisor terms whose prefix repeated equals the
floor.  They were computed before the divisor sums counted up to the floor
(commit c04e261).  A change to the DPs that alters any answer at scale shows
here.
"""

import json
import os

import pytest

from braceletrank import rank_bracelet, rank_enclosing, rank_necklaces, rank_palindromic
from braceletrank.words import floor_necklace, min_rotation
from util import period

with open(os.path.join(os.path.dirname(__file__), "golden_large.json")) as f:
    GOLDEN = json.load(f)


def _word(rec):
    return tuple(int(c) for c in rec["word"])


def _id(rec):
    w, k = _word(rec), rec["k"]
    m = len(w) // period(floor_necklace(w, k))
    return (f"n{len(w)}k{k}" + (f"-pow{m}" if m > 1 else "")
            + ("" if min_rotation(w) == w else "-nonnecklace"))


@pytest.mark.parametrize("rec", GOLDEN, ids=_id)
def test_golden_large(rec):
    word = _word(rec)
    bd = rank_bracelet(word, rec["k"])
    # each standalone rank subtracts its own boundary term, apart from the
    # breakdown's
    alone = [rank(word, rec["k"]) for rank in (rank_necklaces, rank_palindromic, rank_enclosing)]
    assert [bd.rn, bd.rp, bd.re, bd.rb] == [int(rec[x]) for x in ("rn", "rp", "re", "rb")]
    assert alone == [bd.rn, bd.rp, bd.re]
