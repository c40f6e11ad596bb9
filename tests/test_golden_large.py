"""Exact ranks far beyond the oracle's reach.

golden_large.json holds rn/rp/re/rb of ten seeded random necklace
representatives.  The first six (n = 100..128 at k = 2, n = 60..72 at k = 3
and 4) were computed by the tuple-state implementation that preceded the
integer-coded DPs (commit e81b56d); the next two (n = 150 at k = 2, n = 90 at
k = 3) by the integer-coded DPs before the joint DP merged its bound codes
into canonical classes (commit bf1fb8b); the last two (n = 200 at k = 2 from
random.Random(200), n = 120 at k = 3 from random.Random(120), each the
smallest rotation of a uniform random word) by the DPs over bound codes that
preceded the closed-walk counts (commit 16f1539).  A change to the DPs that
alters any answer at scale shows here.
"""

import json
import os

import pytest

from braceletrank.api import rank_bracelet
from braceletrank.bounding import cached_table

with open(os.path.join(os.path.dirname(__file__), "golden_large.json")) as f:
    GOLDEN = json.load(f)


@pytest.mark.parametrize("rec", GOLDEN, ids=lambda r: f"n{len(r['word'])}k{r['k']}")
def test_golden_large(rec):
    word = tuple(int(c) for c in rec["word"])
    bd = rank_bracelet(word, rec["k"])
    cached_table.cache_clear()  # the tables of one large word are not reused
    assert [bd.rn, bd.rp, bd.re, bd.rb] == [int(rec[x]) for x in ("rn", "rp", "re", "rb")]
