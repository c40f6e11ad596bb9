from bisect import bisect_left

import pytest

from braceletrank import cli, oracle, words
from braceletrank.oracle import (
    BudgetExceededError,
    _ranker,
    enumerate_class,
    oracle_enclosing,
    oracle_rank,
)
from util import all_words, dec, enc, naive_min_rotation, necklace_reps


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
def test_ranker_matches_scan(n, k):
    ranks = _ranker(n, k)
    reps = [enumerate_class(kind, n, k) for kind in ("necklace", "palindromic_necklace", "bracelet")]
    for w in all_words(n, k):
        rn, rp, re, rb = ranks(w)
        assert re == len(oracle_enclosing(w, k)), w
        assert [rn, rp, rb] == [bisect_left(r, w) for r in reps], w


@pytest.mark.parametrize("n,k", [(8, 2), (5, 3)])
def test_one_scan_per_answer(n, k, monkeypatch, capsys):
    # each answer scans the k^n words once; all but the necklace set's then
    # read the reversal's representative once per necklace, N in all
    calls, real = [], words.min_rotation

    def counted(w):
        calls.append(w)
        return real(w)
    monkeypatch.setattr(words, "min_rotation", counted)
    monkeypatch.setattr(oracle, "min_rotation", counted)
    v = tuple(i % k for i in range(n))
    word = f"--alphabet {'abc'[:k]} --word {dec(v)}"
    length = f"--alphabet {'abc'[:k]} --length {n}"
    full, necklace_only = k ** n + len(necklace_reps(n, k)), k ** n
    cases = [(f"rank {word} --use-oracle --breakdown", full), (f"verify {length}", full),
             (f"enumerate {length} --set bracelet", full),
             (f"enumerate {length} --set palindromic", full),
             (f"count {length} --set bracelet --use-oracle", full),
             (lambda: oracle_enclosing(v, k), full),
             (f"rank {word} --set necklace --use-oracle", necklace_only),
             (f"count {length} --set necklace --use-oracle", necklace_only),
             (f"enumerate {length} --set necklace", necklace_only),
             (lambda: oracle_rank("necklace", v, k), necklace_only)]
    for case, want in cases:
        calls.clear()
        if callable(case):
            case()
        else:
            assert cli.main(case.split()) == 0, case
        assert len(calls) == want, case
    capsys.readouterr()


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
