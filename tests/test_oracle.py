import pytest

from braceletrank.oracle import (
    BudgetExceededError,
    enclosing_counter,
    enumerate_class,
    oracle_enclosing,
    oracle_rank,
)
from util import all_words, enc, naive_min_rotation


def _totient(m):
    out, q = 1, 2
    while q * q <= m:
        if m % q == 0:
            out *= q - 1
            m //= q
            while m % q == 0:
                out *= q
                m //= q
        q += 1
    if m > 1:
        out *= m - 1
    return out


def test_necklace_counts_burnside():
    for k, nmax in ((2, 12), (3, 8)):
        for n in range(1, nmax + 1):
            want = sum(_totient(n // d) * k ** d
                       for d in range(1, n + 1) if n % d == 0) // n
            assert len(enumerate_class("necklace", n, k)) == want


def test_odd_palindromic_counts():
    for k in (2, 3):
        for n in range(1, 12, 2):
            reps = enumerate_class("palindromic_necklace", n, k)
            assert len(reps) == k ** ((n + 1) // 2)


def test_bracelet_composition():
    # a bracelet is one palindromic class or a pair of mirrored classes
    for n in range(1, 10):
        neck = enumerate_class("necklace", n, 2)
        pal = enumerate_class("palindromic_necklace", n, 2)
        brac = enumerate_class("bracelet", n, 2)
        assert 2 * len(brac) == len(neck) + len(pal)
        for b in brac:
            partner = naive_min_rotation(b[::-1])
            assert (partner == b) == (b in pal)
            assert partner >= b


def test_sorted_and_deduplicated():
    reps = enumerate_class("bracelet", 8, 2)
    assert reps == sorted(set(reps))
    assert len(reps) == 30
    assert reps[0] == enc("aaaaaaaa") and reps[1] == enc("aaaaaaab")


def test_enclosing_examples():
    assert oracle_enclosing(enc("acc"), 4) == [enc("abd")]
    assert oracle_enclosing((0,) * 6, 2) == []
    assert enc("aabc") in oracle_enclosing(enc("aaca"), 4)


@pytest.mark.parametrize("n,k", [(8, 2), (5, 3)])
def test_enclosing_counter_matches_scan(n, k):
    count = enclosing_counter(enumerate_class("necklace", n, k))
    for w in all_words(n, k):
        assert count(w) == len(oracle_enclosing(w, k)), w


def test_oracle_rank():
    assert oracle_rank("bracelet", enc("bbbbbbbb"), 2) == 29
    assert oracle_rank("necklace", enc("abab"), 2) == 3
    assert oracle_rank("palindromic_necklace", enc("acc"), 4) == 5
    assert oracle_rank("enclosing", enc("acc"), 4) == 1


def test_budget_enforced():
    with pytest.raises(BudgetExceededError):
        enumerate_class("necklace", 30, 2, budget=2 ** 20)
    with pytest.raises(BudgetExceededError):
        oracle_rank("bracelet", (0,) * 30, 2, budget=2 ** 20)
    # generous budget passes
    assert len(enumerate_class("necklace", 4, 2, budget=16)) == 6


def test_unknown_kind():
    with pytest.raises(ValueError):
        enumerate_class("lyndon", 4, 2)
