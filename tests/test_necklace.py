import random
from bisect import bisect_left

from braceletrank.necklace import mobius_quotient, rank_necklaces
from braceletrank.necklace import _rotation_dp as count_all_rotations_above
from util import (all_words, enc, is_necklace, is_prenecklace, naive_min_rotation,
                  necklace_reps, period, prenecklaces, rotations)


def count_all_rotations_geq(w, k):
    """Those above w plus w's own rotation class when w is a necklace."""
    return count_all_rotations_above(w, k) + (period(w) if is_necklace(w) else 0)


def count_lyndon_below(w, k):
    """Number of Lyndon words of length |w| strictly smaller than w, for a
    necklace w: the divisor terms count those up to w."""
    upto = mobius_quotient(len(w), lambda d: k ** d - count_all_rotations_above(w[:d], k))
    return upto - _is_lyndon(w)


def _brute_all_rot_geq(w, k, strict=False):
    return sum(1 for u in all_words(len(w), k)
               if all(r > w if strict else r >= w for r in rotations(u)))


def test_count_all_rotations_geq_examples():
    for n in range(1, 7):
        assert count_all_rotations_geq((0,) * n, 2) == 2 ** n
    # abab: the qualifying classes are {abab, baba}, {abbb, ...}, {bbbb}
    assert count_all_rotations_geq(enc("abab"), 2) == 7
    assert count_all_rotations_above(enc("abab"), 2) == 5
    # the top word admits only itself
    for n in range(1, 6):
        top = (1,) * n
        assert count_all_rotations_geq(top, 2) == _brute_all_rot_geq(top, 2) == 1
        assert count_all_rotations_above(top, 2) == 0


def test_prenecklace_generator():
    # FKM yields exactly the length-n prefixes of the necklaces of lengths
    # n..2n-1, and the necklaces among them are the p | n ones
    for k, nmax in ((1, 4), (2, 6), (3, 4), (4, 3)):
        for n in range(1, nmax + 1):
            got = list(prenecklaces(n, k))
            pre = {w[:n] for m in range(n, 2 * n) for w in necklace_reps(m, k)}
            assert [w for w, _ in got] == sorted(pre)
            assert all(is_prenecklace(w) == (w in pre) for w in all_words(n, k))
            assert [w for w, p in got if n % p == 0] == necklace_reps(n, k)


def test_count_all_rotations_geq_brute():
    # on prenecklaces, the only patterns the ranks reach
    for k, nmax in ((2, 9), (3, 5)):
        for n in range(1, nmax + 1):
            for w, _ in prenecklaces(n, k):
                assert count_all_rotations_above(w, k) == _brute_all_rot_geq(w, k, strict=True)
                assert count_all_rotations_geq(w, k) == _brute_all_rot_geq(w, k)


def _is_lyndon(w):
    return len(set(rotations(w))) == len(w) and w == naive_min_rotation(w)


def test_count_lyndon_below_examples():
    assert count_lyndon_below(enc("b"), 2) == 1
    assert count_lyndon_below(enc("abb"), 2) == 1
    assert count_lyndon_below(enc("bbbb"), 2) == 3


def test_count_lyndon_below_brute():
    for k, nmax in ((2, 11), (3, 7)):
        for n in range(1, nmax + 1):
            lyn = sorted(w for w in all_words(n, k) if _is_lyndon(w))
            for w, p in prenecklaces(n, k):
                if n % p == 0:  # a necklace, as the necklace ranks pass
                    assert count_lyndon_below(w, k) == bisect_left(lyn, w)


def test_lyndon_totals_sum_to_kn():
    # sum over e | n of e * (#Lyndon words of length e) = k^n
    for k in (2, 3):
        for n in range(1, 15):
            total = 0
            for e in range(1, n + 1):
                if n % e == 0:
                    count = count_lyndon_below(((k - 1),) * e, k) + (1 if e == 1 else 0)
                    total += e * count
            assert total == k ** n


def test_rank_necklaces_examples():
    assert rank_necklaces(enc("aaaa"), 2) == 0
    assert rank_necklaces(enc("abab"), 2) == 3
    assert rank_necklaces(enc("acc"), 4) == 8


def test_rank_necklaces_oracle_small():
    for k, nmax in ((2, 8), (3, 5), (4, 4)):
        for n in range(1, nmax + 1):
            reps = necklace_reps(n, k)
            for v in all_words(n, k):
                assert rank_necklaces(v, k) == bisect_left(reps, v)


def _totient(m):
    out, q, mm = 1, 2, m
    while q * q <= mm:
        if mm % q == 0:
            out *= q - 1
            mm //= q
            while mm % q == 0:
                out *= q
                mm //= q
        q += 1
    if mm > 1:
        out *= mm - 1
    return out


def test_top_rank_matches_burnside():
    for k in (2, 3, 4):
        for n in range(1, 15):
            want = sum(_totient(n // d) * k ** d for d in range(1, n + 1)
                       if n % d == 0) // n
            assert rank_necklaces(((k - 1),) * n, k) + 1 == want


def test_rank_necklaces_monotone():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(2, 14)
        k = rng.randrange(2, 5)
        u = tuple(rng.randrange(k) for _ in range(n))
        w = tuple(rng.randrange(k) for _ in range(n))
        if u > w:
            u, w = w, u
        assert rank_necklaces(u, k) <= rank_necklaces(w, k)
