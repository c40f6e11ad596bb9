from collections import Counter

import pytest

from braceletrank.bounding import SubwordTable
from braceletrank.enclosing import _joint_count, build_SE, rank_enclosing
from braceletrank.oracle import oracle_enclosing
from reference import brute_se_cells
from util import (all_words, enc, is_necklace, lyndon_prefix_length, naive_min_rotation,
                  prenecklaces)


def test_rank_enclosing_examples():
    assert rank_enclosing(enc("acc"), 4) == 1
    for n in range(1, 8):
        assert rank_enclosing((0,) * n, 2) == 0
    found = oracle_enclosing(enc("aaca"), 4)
    assert enc("aabc") in found
    assert rank_enclosing(enc("aaca"), 4) == len(found)


@pytest.mark.parametrize("k,nmax", [(2, 9), (3, 6), (4, 4)])
def test_rank_enclosing_oracle(k, nmax):
    for n in range(1, nmax + 1):
        for v in all_words(n, k):
            assert rank_enclosing(v, k) == len(oracle_enclosing(v, k))


# over 3 symbols build_SE's own automaton also meets patterns that are not
# prenecklaces and whose least next symbol is not the pattern's
@pytest.mark.parametrize("k,nmax", [(2, 6), (3, 5)])
def test_se_cells_ground_truth_small(k, nmax):
    for n in range(2, nmax + 1):
        for v in all_words(n, k):
            assert build_SE(v, k) == brute_se_cells(v, k)


def test_enclosing_reps_share_prefix_and_dip():
    # every enclosing bracelet representative extends a proper prefix of v
    # with a strictly smaller symbol, at a position allowed by the Lyndon
    # prefix of the shared part
    for k, nmax in ((2, 9), (3, 6), (4, 4)):
        for n in range(2, nmax + 1):
            for v in all_words(n, k):
                if not is_necklace(v):
                    continue
                for b in oracle_enclosing(v, k):
                    i = 0
                    while b[i] == v[i]:
                        i += 1
                    assert 1 <= i <= n - 1
                    assert b[i] < v[i]
                    l = lyndon_prefix_length(v[:i])
                    assert b[i] >= v[i - l]


def test_enclosing_bracelets_are_apalindromic():
    for n in range(2, 9):
        for v in all_words(n, 2):
            for b in oracle_enclosing(v, 2):
                assert naive_min_rotation(b[::-1]) != b


@pytest.mark.parametrize("k,dmax", [(2, 10), (3, 6), (4, 5), (5, 4), (8, 3)])
def test_joint_count_matches_definition(k, dmax):
    # _joint_count(p) = #{w : every rotation of w > p and every rotation of
    # w^R > p}, i.e. min-rotation(w) > p < min-rotation(w^R), for every
    # prenecklace p (the ranks floor their input, so no other p is reached)
    for d in range(1, dmax + 1):
        words = list(all_words(d, k))
        least = {w: naive_min_rotation(w) for w in words}
        pairs = Counter((least[w], least[w[::-1]]) for w in words)
        for p, _ in prenecklaces(d, k):
            want = sum(c for (a, b), c in pairs.items() if a > p and b > p)
            assert _joint_count(SubwordTable(p, k)) == want, p
