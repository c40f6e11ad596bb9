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
floored their input (commit 091cb77).  A change to the DPs that alters any
answer at scale shows here.
"""

import json
import os

import pytest

from braceletrank.api import rank_bracelet
from braceletrank.bounding import cached_table
from braceletrank.words import min_rotation

with open(os.path.join(os.path.dirname(__file__), "golden_large.json")) as f:
    GOLDEN = json.load(f)


def _word(rec):
    return tuple(int(c) for c in rec["word"])


def _id(rec):
    w = _word(rec)
    return f"n{len(w)}k{rec['k']}" + ("" if min_rotation(w) == w else "-nonnecklace")


@pytest.mark.parametrize("rec", GOLDEN, ids=_id)
def test_golden_large(rec):
    word = _word(rec)
    bd = rank_bracelet(word, rec["k"])
    cached_table.cache_clear()  # the tables of one large word are not reused
    assert [bd.rn, bd.rp, bd.re, bd.rb] == [int(rec[x]) for x in ("rn", "rp", "re", "rb")]
