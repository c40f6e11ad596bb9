import random
from bisect import bisect_left

import pytest

from braceletrank import words
from braceletrank.bounding import SubwordTable
from braceletrank.necklace import rank_necklaces
from braceletrank.words import (
    Alphabet,
    at_most_reversal,
    bracelet_reps_from,
    bracelet_representative,
    floor_necklace,
    lyndon_prefix,
    min_rotation,
)
from reference import chains
from util import (all_words, bracelet_reps, enc, is_necklace, is_palindromic_necklace, lyndon_prefix_length,
                  match_state, naive_min_rotation, necklace_reps, period, prenecklaces, rotations)


def test_alphabet_roundtrip():
    al = Alphabet("ab")
    assert al.k == 2
    assert al.encode("abba") == (0, 1, 1, 0)
    assert al.decode((0, 1, 1, 0)) == "abba"
    with pytest.raises(ValueError):
        al.encode("abc")
    with pytest.raises(ValueError):
        al.encode("")
    with pytest.raises(ValueError):
        Alphabet("aa")


def test_period_examples():
    assert period(enc("aabaab")) == 3
    assert period(enc("aaaa")) == 1
    assert period(enc("aaab")) == 4


def test_period_is_orbit_size():
    for n in range(1, 8):
        for w in all_words(n, 2):
            assert period(w) == len(set(rotations(w)))


def test_min_rotation_examples():
    assert min_rotation(enc("bababa")) == enc("ababab")
    assert min_rotation(enc("aaaa")) == enc("aaaa")
    assert min_rotation(enc("cbaa")) == enc("aacb")


def test_min_rotation_exhaustive():
    for n in range(1, 11):
        for w in all_words(n, 2):
            assert min_rotation(w) == naive_min_rotation(w)
    for n in range(1, 9):
        for w in all_words(n, 3):
            assert min_rotation(w) == naive_min_rotation(w)


def test_bracelet_representative_examples():
    assert bracelet_representative(enc("cbaa")) == enc("aabc")
    assert bracelet_representative(enc("aaaa")) == enc("aaaa")
    assert bracelet_representative(enc("adb")) == enc("abd")


def test_palindromic_examples():
    assert is_palindromic_necklace(enc("ababab"))
    assert is_palindromic_necklace(enc("aaaa"))
    assert not is_palindromic_necklace(enc("abc"))


def test_palindromic_matches_orbit_membership():
    for n in range(1, 8):
        for w in all_words(n, 3):
            expect = w[::-1] in set(rotations(w))
            assert is_palindromic_necklace(w) == expect
            for u in rotations(w):
                assert is_palindromic_necklace(u) == expect


def _is_lyndon(w):
    return all(w < r for r in rotations(w)[1:] if r != w) and len(set(rotations(w))) == len(w)


def test_lyndon_prefix_examples():
    assert lyndon_prefix_length(enc("aabaa")) == 3
    assert lyndon_prefix_length(enc("aaaa")) == 1
    assert lyndon_prefix_length(enc("ab")) == 2


def test_lyndon_prefix_brute():
    for n in range(1, 9):
        for w in all_words(n, 2):
            best = max(l for l in range(1, n + 1) if _is_lyndon(w[:l]))
            assert lyndon_prefix_length(w) == best
    for n in range(1, 6):
        for w in all_words(n, 3):
            best = max(l for l in range(1, n + 1) if _is_lyndon(w[:l]))
            assert lyndon_prefix_length(w) == best


@pytest.mark.parametrize("k,nmax", [(2, 10), (3, 6), (4, 5)])
def test_duval_scan(k, nmax):
    # the package's scan, shared by floor_necklace and the rotation count's
    # prenecklace check: the longest Lyndon prefix of every word, and the
    # end of the word reached exactly on the FKM generator's prenecklaces
    for n in range(1, nmax + 1):
        pre = dict(prenecklaces(n, k))
        for w in all_words(n, k):
            p, i = lyndon_prefix(w)
            assert p == lyndon_prefix_length(w), w
            assert (i == n) == (w in pre), w
            assert i == n or w[i] < w[i - p], w


@pytest.mark.parametrize("k,nmax", [(1, 6), (2, 10), (3, 6), (4, 5)])
def test_prenecklaces_from(k, nmax, monkeypatch):
    # the walk's FKM steps from every prefix, with the reversal check made to
    # accept all: it sees each necklace among the reference generator's
    # prenecklaces that begin with the prefix, in order, each with the run
    # mask the walk carries along, and none for a prefix that is no
    # prenecklace
    seen = []

    def accept(w, runs):
        seen.append((tuple(w), bytes(runs)))
        return True

    monkeypatch.setattr(words, "at_most_reversal", accept)
    for n in range(1, nmax + 1):
        necklaces = [w for w, p in prenecklaces(n, k) if n % p == 0]
        for m in range(n + 1):
            for u in all_words(m, k):
                seen.clear()
                want = [w for w in necklaces if w[:m] == u]
                assert list(bracelet_reps_from(u, n, k)) == want, u
                assert seen == [(w, _runs(w)) for w in want], u


@pytest.mark.parametrize("k,nmax", [(1, 6), (2, 10), (3, 6), (4, 5)])
def test_bracelet_reps_from(k, nmax):
    # the package's FKM walk from every prefix against brute force: the
    # bracelet representatives that begin with it, none for a prefix that no
    # prenecklace begins with
    for n in range(1, nmax + 1):
        reps = bracelet_reps(n, k)
        for m in range(n + 1):
            for u in all_words(m, k):
                assert list(bracelet_reps_from(u, n, k)) == [w for w in reps if w[:m] == u], u


def _runs(w):
    return bytes(x == w[0] for x in w)


@pytest.mark.parametrize("k,nmax", [(2, 12), (3, 8), (4, 6)])
def test_reversal_check_on_every_necklace(k, nmax):
    for n in range(1, nmax + 1):
        for w in necklace_reps(n, k):
            assert at_most_reversal(w, _runs(w)) == (bracelet_representative(w) == w), w


def test_reversal_check_beyond_one_byte():
    # symbols up to 70,000, two to four per word, so runs and ties come up;
    # every third word is a palindrome, and of the 827 apalindromic
    # necklaces 414 are no representative
    rng, k = random.Random(19), 70000
    for i in range(2000):
        alphabet = rng.sample(range(k), rng.randint(2, 4))
        w = [rng.choice(alphabet) for _ in range(rng.randint(1, 16))]
        if i % 3 == 0:
            w += w[-2::-1] if i % 2 else w[::-1]
        w = naive_min_rotation(tuple(w))
        assert at_most_reversal(w, _runs(w)) == (bracelet_representative(w) == w), w


def _chain_match(table, w):
    """The match state after reading w, stepping along the table's border
    chains: from state j, the longest border b of p[:j] (or 0) with
    p[b] == x grows to b + 1, and none resets to 0."""
    p, chain, j = table.p, chains(table.p), 0
    for x in w:
        j = next((b + 1 for b in chain[j] + [0] if b < table.n and p[b] == x), 0)
    return j


def test_suffix_prefix_match():
    # the match state after reading w: the longest suffix of w that is a
    # prefix of the pattern
    assert _chain_match(SubwordTable(enc("aab"), 2), enc("baa")) == 2
    assert _chain_match(SubwordTable(enc("aa"), 2), enc("bb")) == 0
    # definitional lower bound: anything ending in v[:j] matches at least j
    rng = random.Random(1)
    for _ in range(100):
        v = tuple(rng.randrange(3) for _ in range(rng.randrange(2, 9)))
        j = rng.randrange(1, len(v) + 1)
        head = tuple(rng.randrange(3) for _ in range(rng.randrange(0, 6)))
        assert _chain_match(SubwordTable(v, 3), head + v[:j]) >= j


def test_suffix_prefix_match_brute():
    for nv in range(1, 6):
        for v in all_words(nv, 2):
            table = SubwordTable(v, 2)
            for nw in range(0, 6):
                for w in all_words(nw, 2):
                    assert _chain_match(table, w) == match_state(v, w), (v, w)


def test_wrap_thresholds_match_definition():
    # wrap[j]: the code 2i + 1 of the rotation of p at j, i its index among
    # the sorted distinct rotations, for j >= 1, else -1; the palindromic
    # walk and the joint count read it at the wrap
    for k, nmax in ((2, 7), (3, 5)):
        for n in range(1, nmax + 1):
            for p in all_words(n, k):
                rots = sorted(set(rotations(p)))
                want = [-1] + [2 * rots.index(p[j % n:] + p[:j % n]) + 1 for j in range(1, n + 1)]
                assert SubwordTable(p, k).wrap == want, p


@pytest.mark.parametrize("k,nmax", [(2, 8), (3, 5)])
def test_longest_border_decides_the_wrap(k, nmax):
    # for a prenecklace p, a word w of length n with longest p-prefix suffix
    # p[:j] exceeds wrap[j] exactly when its rotation at every border m >= 1
    # (a suffix p[:m] of w) lies strictly above p
    for n in range(1, nmax + 1):
        for p, _ in prenecklaces(n, k):
            rots, wrap = sorted(set(rotations(p))), SubwordTable(p, k).wrap
            for w in all_words(n, k):
                borders = [m for m in range(1, n + 1) if w[n - m:] == p[:m]]
                i = bisect_left(rots, w)
                code = 2 * i + (i < len(rots) and rots[i] == w)
                want = all(w[n - m:] + w[:n - m] > p for m in borders)
                assert (code > wrap[max(borders, default=0)]) == want, (p, w)


def test_empty_words_rejected():
    with pytest.raises(ValueError):
        min_rotation(())
    with pytest.raises(ValueError):
        period(())


def test_floor_necklace_exhaustive():
    import bisect

    for k, nmax in ((2, 9), (3, 6), (4, 4)):
        for n in range(1, nmax + 1):
            reps = necklace_reps(n, k)
            for w in all_words(n, k):
                i = bisect.bisect_right(reps, w)
                assert floor_necklace(w, k) == reps[i - 1]


def test_floor_necklace_past_the_oracle():
    # no necklace lies in (floor(w), w].  rank_necklaces floors its input
    # itself, so the rank identity below holds by construction; the
    # non-necklace words of golden_large.json, ranked before the necklace
    # ranks floored, check that it counts none there
    rng = random.Random(17)
    for _ in range(60):
        n, k = rng.randint(17, 200), rng.randint(2, 4)
        w = tuple(rng.randrange(k) for _ in range(n))
        f = floor_necklace(w, k)
        assert is_necklace(f) and f <= w and floor_necklace(f, k) == f
        assert rank_necklaces(w, k) == rank_necklaces(f, k) + (f < w)


def test_is_necklace():
    # a necklace is its own smallest rotation and its own floor
    for n in range(1, 9):
        for w in all_words(n, 2):
            assert is_necklace(w) == (w == min_rotation(w)) == (floor_necklace(w, 2) == w)


def test_canonical_forms():
    w = enc("cbaa")
    assert min_rotation(w) == enc("aacb")
    assert bracelet_representative(w) == enc("aabc")
    assert period(w) == 4
    assert not is_palindromic_necklace(w)
    w = enc("bababa")
    assert min_rotation(w) == enc("ababab")
    assert period(w) == 2
    assert is_palindromic_necklace(w)
