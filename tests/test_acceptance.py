"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criterion 6's parity property is implemented in its corrected form
2*rb = rn + rp + re + mirror_adjust: the plain sum rn + rp + re is odd
whenever the query word is the larger representative of an apalindromic
bracelet (e.g. acb over a three-letter alphabet), so the unadjusted parity
claim is not satisfiable together with oracle-exact component ranks.
ERRATA.md records the details.
"""

import os
import random
import time
from bisect import bisect_left

from braceletrank.api import count_bracelets, rank_bracelet, unrank_bracelet
from braceletrank.enclosing import build_SE
from braceletrank.oracle import enumerate_class
from braceletrank.palindromic import layer_counts, total_palindromic
from braceletrank.words import min_rotation
from reference import brute_pe_cells, brute_po_cells, brute_se_cells
from util import all_words, dec, is_necklace

FIG1 = """aaaaaaaa aaaaaaab aaaaaabb aaaaabab aaaaabbb aaaabaab aaaababb aaaabbbb
aaabaaab aaabaabb aaababab aaabbabb aaabbabb aaabbbbb aabaabab aabaabbb
aabababb aababbab aababbbb aabbaabb aabbabbb aabbbbbb abababab abababbb
ababbabb ababbbbb abbabbbb abbbabbb abbbbbbb bbbbbbbb""".split()


def test_criterion_1_figure_reproduction():
    t0 = time.monotonic()
    words = [dec(unrank_bracelet(z, 8, 2), "ab") for z in range(30)]
    elapsed = time.monotonic() - t0
    assert len(words) == len(set(words)) == 30
    assert count_bracelets(8, 2) == 30
    for pos in list(range(1, 12)) + list(range(14, 31)):
        assert words[pos - 1] == FIG1[pos - 1], f"entry {pos}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS: 30 bracelets of length 8 reproduced "
          f"(entries 1-11, 14-30 verbatim) in {elapsed:.2f}s")


def _sweep(n, k):
    neck = enumerate_class("necklace", n, k)
    pal = enumerate_class("palindromic_necklace", n, k)
    brac = enumerate_class("bracelet", n, k)
    pairs = [(r, min_rotation(r[::-1])) for r in neck]
    apal = [(r, g) for r, g in pairs if g > r]
    for v in all_words(n, k):
        bd = rank_bracelet(v, k)
        want_re = sum(1 for r, g in apal if r < v < g)
        want = (bisect_left(neck, v), bisect_left(pal, v), want_re,
                bisect_left(brac, v))
        got = (bd.rn, bd.rp, bd.re, bd.rb)
        assert got == want, (n, k, v, got, want)


def test_criterion_2_oracle_equivalence_exhaustive():
    t0 = time.monotonic()
    checked = 0
    for k, nmax in ((2, 10), (3, 7), (4, 5)):
        for n in range(1, nmax + 1):
            _sweep(n, k)
            checked += k ** n
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 PASS: rn/rp/re/rb equal the oracle on {checked} "
          f"words in {elapsed:.1f}s")


def test_criterion_3_layer_dp_ground_truth():
    cells = 0
    for n in range(1, 9):
        for v in all_words(n, 2):
            got = build_SE(v, 2)
            want = brute_se_cells(v, 2)
            assert got == want, (n, v)
            cells += len(want)
            if not is_necklace(v):
                continue
            if n < 3:
                continue
            got = layer_counts(v, 2)
            want = (brute_po_cells if n % 2 == 1 else brute_pe_cells)(v, 2)
            assert got == want, (n, v)
            cells += len(want)
    print(f"\nACCEPTANCE 3 PASS: {cells} DP cells equal definition-based "
          f"brute force (n <= 8, k = 2)")


def test_criterion_4_odd_palindromic_totals():
    for n in range(1, 14, 2):
        assert total_palindromic(n, 2) == 2 ** ((n + 1) // 2)
        reps = enumerate_class("palindromic_necklace", n, 2)
        assert total_palindromic(n, 2) == len(reps)
    print("\nACCEPTANCE 4 PASS: odd palindromic totals equal 2^((n+1)/2) "
          "and the oracle for odd n <= 13")


def test_criterion_5_rank_unrank_inverse():
    for n, k in ((8, 2), (10, 2), (5, 3)):
        reps = enumerate_class("bracelet", n, k)
        total = count_bracelets(n, k)
        assert total == len(reps)
        for z, rep in enumerate(reps):
            assert rank_bracelet(rep, k).rb == z
            got = unrank_bracelet(z, n, k)
            assert got == rep
    print("\nACCEPTANCE 5 PASS: rank/unrank are mutually inverse for "
          "(8,2), (10,2), (5,3)")


def test_criterion_6_parity_and_monotonicity():
    rng = random.Random(20240817)
    samples = {}
    total = 10_000
    for _ in range(total):
        r = rng.random()
        if r < 0.85:
            n = rng.randrange(1, 17)
        elif r < 0.97:
            n = rng.randrange(17, 41)
        else:
            n = rng.randrange(41, 65)
        k = rng.randrange(2, 5)
        w = tuple(rng.randrange(k) for _ in range(n))
        samples.setdefault((n, k), []).append(w)
    checked = adjusted = 0
    for (n, k), words in sorted(samples.items()):
        ranked = []
        for w in words:
            bd = rank_bracelet(w, k)
            assert 2 * bd.rb == bd.rn + bd.rp + bd.re + bd.mirror_adjust
            assert (bd.rn + bd.rp + bd.re + bd.mirror_adjust) % 2 == 0
            adjusted += bd.mirror_adjust
            ranked.append((w, bd.rb))
            checked += 1
        ranked.sort()
        for (u, ru), (w, rw) in zip(ranked, ranked[1:]):
            assert ru <= rw, (n, k, u, w)
    print(f"\nACCEPTANCE 6 PASS: adjusted parity and monotonicity on "
          f"{checked} random words (n <= 64, k <= 4); "
          f"{adjusted} words needed the mirror adjustment")


def test_criterion_7_polynomial_scale_smoke():
    rng = random.Random(7)
    for n, k in ((100, 2), (60, 4)):
        w = min_rotation(tuple(rng.randrange(k) for _ in range(n)))
        t0 = time.monotonic()
        bd = rank_bracelet(w, k)
        elapsed = time.monotonic() - t0
        assert elapsed < 60, f"n={n} k={k} took {elapsed:.1f}s"
        assert bd.rb > 0
        print(f"\nACCEPTANCE 7 PASS (part): rank_bracelet n={n} k={k} in "
              f"{elapsed:.2f}s")


def test_criterion_8_errata_file_and_total_gate():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(here, "ERRATA.md")
    assert os.path.exists(path), "ERRATA.md missing"
    with open(path) as f:
        text = f.read()
    assert "aaabbabb" in text            # the duplicated printed entry
    assert "aaababbb" in text            # what position 12 must be
    assert "n=4" in text and "7" in text  # the closed-form discrepancy table
    for k in (2, 3):
        for n in range(1, 11):
            reps = enumerate_class("palindromic_necklace", n, k)
            assert total_palindromic(n, k) == len(reps), (n, k)
    print("\nACCEPTANCE 8 PASS: errata recorded; shipped palindromic totals "
          "match the oracle for n <= 10, k <= 3")
