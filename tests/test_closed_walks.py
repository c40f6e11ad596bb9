"""The closed-walk counts against the DPs over bound codes they replaced.

necklace._rotation_dp counts the words whose rotations all lie above a
pattern as closed walks on the pattern's automaton, and
enclosing._joint_count walks the blocks of those words while it tracks the
reversal.  Both take prenecklace patterns (prefixes of necklaces), the only
ones the ranks reach, as they floor their input first.  reference.py keeps
the earlier DPs over (match state, bound code), an independent algorithm for
any pattern that reaches sizes the oracle cannot; its count of the words
whose rotations stay at or above the pattern adds the pattern's rotation
class when the pattern is a necklace.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braceletrank.bounding import SubwordTable
from braceletrank.enclosing import _joint_count
from braceletrank.necklace import _rotation_dp
from braceletrank.palindromic import size_PO_PE, size_PS
from braceletrank.words import floor_necklace
from reference import chains, joint_count_dp, rotation_count_dp
from util import (all_words, is_necklace, is_prenecklace, naive_min_rotation, necklace_reps,
                  period, prenecklaces)


def _agree(p, k):
    walks = _rotation_dp(p, k)
    assert walks == rotation_count_dp(p, k, strict=True), p
    cls = period(p) if is_necklace(p) else 0
    assert rotation_count_dp(p, k) == walks + cls, p
    assert _joint_count(SubwordTable(p, k)) == joint_count_dp(SubwordTable(p, k)), p


@pytest.mark.parametrize("k,dmax", [(2, 10), (3, 6), (4, 5)])
def test_every_small_pattern(k, dmax):
    for d in range(1, dmax + 1):
        for p, _ in prenecklaces(d, k):
            _agree(p, k)


def _large_patterns():
    # Each case carries the number it was added under, so a case inserted
    # anywhere renames no other: a new one takes the next free number.  The
    # random words come from one seeded stream in the order written, so a
    # new random case goes after the last draw.
    rng = random.Random(6)
    out = []
    for i, k, d in ((0, 2, 60), (2, 2, 45), (4, 3, 40), (6, 4, 30)):
        w = tuple(rng.randrange(k) for _ in range(d))
        out += [(i, w, k), (i + 1, naive_min_rotation(w), k)]
    for i, unit, k in ((8, (0, 1), 2), (9, (0, 0, 1, 0, 1), 2), (10, (0, 2, 1), 3), (11, (1, 0, 3), 4)):
        out.append((i, unit * (60 // len(unit)), k))
    out += [(12, (0,) * 60, 2), (13, (1,) * 60, 2), (14, (2,) * 40, 3)]
    # border chains of depth 59 and 17: a Lyndon word and a periodic necklace
    out += [(15, (0,) * 59 + (1,), 2), (16, (0, 0, 0, 1) * 15, 2)]
    # wider alphabets, so wider packed fields in the joint count: random
    # words as above, the floor 0 (k-1)^(d-1) of a word starting with the
    # top symbol, and a power
    for i, k, d in ((17, 8, 30), (19, 5, 40)):
        w = tuple(rng.randrange(k) for _ in range(d))
        out += [(i, w, k), (i + 1, naive_min_rotation(w), k)]
    out += [(21, (0,) + (7,) * 29, 8), (22, (0, 4, 1, 3) * 15, 5)]
    # a Lyndon word that nearly every word lies above, so that the late
    # fields of the joint count come close to their bound d*k^(d-l): one
    # symbol narrower, field l would carry into field l + 1
    out.append((23, (0,) * 29 + (1,), 8))
    return [pytest.param(p if is_prenecklace(p) else floor_necklace(p, k), k, id=f"{i}-d{len(p)}k{k}")
            for i, p, k in out]


@pytest.mark.parametrize("p,k", _large_patterns())
def test_random_periodic_and_constant_patterns(p, k):
    _agree(p, k)


@st.composite
def random_prenecklaces(draw, dmax=20):
    # a prefix of the floor of a random word: any prenecklace can come up
    n, k = draw(st.integers(1, dmax)), draw(st.integers(2, 8))
    w = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return floor_necklace(tuple(w), k)[:draw(st.integers(1, n))], k


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_prenecklaces())
def test_joint_count_on_random_prenecklaces(drawn):
    p, k = drawn
    assert _joint_count(SubwordTable(p, k)) == joint_count_dp(SubwordTable(p, k)), p


@pytest.mark.parametrize("k,nmax", [(2, 10), (3, 6), (4, 5)])
def test_divisor_terms_match_definition(k, nmax):
    # for every necklace f and d | n = |f|, the terms of p = f[:d] count the
    # words w of length d by the powers of their class minima: those up to
    # f, and those whose own or whose reversal's is up to f
    for n in range(1, nmax + 1):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            m = n // d
            powers = [(naive_min_rotation(w) * m, naive_min_rotation(w[::-1]) * m)
                      for w in all_words(d, k)]
            for f in necklace_reps(n, k):
                p = f[:d]
                assert k ** d - _rotation_dp(p, k) == sum(a <= f for a, _ in powers), (f, d)
                union = sum(a <= f or b <= f for a, b in powers)
                assert k ** d - _joint_count(SubwordTable(p, k)) == union, (f, d)


def _counts(table):
    return (_joint_count(table), size_PO_PE(table), size_PS(table) if table.n % 2 == 0 else None)


def test_wrap_at_every_border_changes_no_count():
    # SubwordTable.wrap keeps the threshold of the longest border alone.  The
    # largest threshold over every border of p[:j] (reference.chains), set on
    # the same table, must give the same joint and palindromic counts, on
    # prenecklaces beyond the exhaustive sizes: powers with deep border
    # chains, and prefixes of length 20, 23, ... of the floors and necklaces
    # of seeded random words.  Only tables whose two threshold lists differ
    # are counted; there must be many of them
    rng = random.Random(28)
    patterns = [((0, 0, 0, 1) * 15, 2), ((0, 1) * 40, 2), ((0, 0, 1, 0, 1) * 12, 2),
                ((0, 1, 2) * 20, 3), ((0, 0, 2, 1) * 10, 3), ((0, 3, 1) * 25, 4), ((0,) * 79 + (1,), 2)]
    for n in range(20, 81, 5):
        for k in (2, 3, 4):
            w = tuple(rng.randrange(k) for _ in range(n))
            for f in (floor_necklace(w, k), naive_min_rotation(w)):
                patterns += [(f[:d], k) for d in range(20, n + 1, 3)]
    changed = 0
    for p, k in patterns:
        assert is_prenecklace(p), p
        table = SubwordTable(p, k)
        pos, n = table.pos_id[table.n], table.n
        wrap = [max((2 * pos[m % n] + 1 for m in borders), default=-1) for borders in chains(p)]
        if wrap != table.wrap:
            changed += 1
            want = _counts(table)
            table.wrap = wrap
            assert _counts(table) == want, (p, k)
    assert changed >= 150, changed
