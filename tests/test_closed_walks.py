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
from braceletrank.enclosing import _enclosing_word_count, _joint_count
from braceletrank.necklace import _rotation_dp, closed_walk_counts
from braceletrank.words import floor_necklace
from reference import joint_count_dp, rotation_count_dp
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
    rng = random.Random(6)
    out = []
    for k, d in ((2, 60), (2, 45), (3, 40), (4, 30)):
        w = tuple(rng.randrange(k) for _ in range(d))
        out += [(w, k), (naive_min_rotation(w), k)]
    for unit, k in (((0, 1), 2), ((0, 0, 1, 0, 1), 2), ((0, 2, 1), 3), ((1, 0, 3), 4)):
        out.append((unit * (60 // len(unit)), k))
    out += [((0,) * 60, 2), ((1,) * 60, 2), ((2,) * 40, 3)]
    # border chains of depth 59 and 17: a Lyndon word and a periodic necklace
    out += [((0,) * 59 + (1,), 2), ((0, 0, 0, 1) * 15, 2)]
    out = [(p if is_prenecklace(p) else floor_necklace(p, k), k) for p, k in out]
    return [pytest.param(p, k, id=f"{i}-d{len(p)}k{k}") for i, (p, k) in enumerate(out)]


@pytest.mark.parametrize("p,k", _large_patterns())
def test_random_periodic_and_constant_patterns(p, k):
    _agree(p, k)


@st.composite
def random_prenecklaces(draw, dmax=20):
    # a prefix of the floor of a random word: any prenecklace can come up
    n, k = draw(st.integers(1, dmax)), draw(st.integers(2, 4))
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
    # f, and those whose reversal's lies above f
    for n in range(1, nmax + 1):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            m = n // d
            powers = [(naive_min_rotation(w) * m, naive_min_rotation(w[::-1]) * m)
                      for w in all_words(d, k)]
            for f in necklace_reps(n, k):
                table, above = SubwordTable(f, k), closed_walk_counts(f, k)
                assert k ** d - above[d] == sum(a <= f for a, _ in powers), (f, d)
                assert _enclosing_word_count(table, d, above) == sum(a <= f < b for a, b in powers), (f, d)
