from bisect import bisect_left

import pytest

from braceletrank.bounding import SubwordTable
from braceletrank.palindromic import (
    _above,
    _grow,
    _layers,
    layer_counts,
    rank_palindromic,
    total_palindromic,
)
from reference import (
    brute_pe_cells,
    brute_po_cells,
    brute_size_pe,
    brute_size_po,
    brute_size_ps,
    code_of,
    ge,
    gs,
    odd_period_palindromic_above,
    size_PE,
    size_PO,
    size_PS,
    size_X,
)
from util import all_words, enc, is_necklace, palindromic_reps, rotations


def test_size_x_examples():
    # every extension stays above the all-minimal word
    assert size_X((0,) * 5, 2, 0, 0) == 2
    assert size_X((0,) * 5, 2, 2, 0) == 2
    # v = aab, s = the largest length-2 subword (ba)
    t = SubwordTable(enc("aab"), 2)
    s = list(t.sub[2]).index(enc("ba"))
    assert size_X(enc("aab"), 2, 0, s) == 2


def test_size_x_matches_internal_closure_on_reachable_states():
    # the simple comparison and the closing step (one appended symbol, then
    # the wrap check) agree wherever the layer DP can actually land
    for k, nmax in ((2, 9), (3, 7)):
        for n in range(3, nmax + 1, 2):
            for v in all_words(n, k):
                if not is_necklace(v):
                    continue
                cells = layer_counts(v, k)
                t = SubwordTable(v, k)
                seen = set()
                for (i, j, s) in cells:
                    if i == (n - 1) // 2 and (j, s) not in seen:
                        seen.add((j, s))
                        closed = _above(t, _grow(t, {j: {2 * s + 2: 1}}, n, t.append_rows(n - 1)))
                        assert closed == size_X(v, k, j, s)


def test_exact_states_are_the_palindromic_subwords():
    # at every length the walks hold each palindromic cyclic subword of v
    # once, as its exact code with its longest suffix matching a v-prefix,
    # and no other exact code
    for n in range(1, 10):
        for v in all_words(n, 2):
            if not is_necklace(v):
                continue
            t = SubwordTable(v, 2)
            layers = {}

            def sink(l, states):
                layers[l] = {(j, code): c for j, words in states.items()
                             for code, c in words.items() if code % 2}

            _layers(t, n, sink)
            _layers(t, n - 1, sink)
            assert sorted(layers) == list(range(1, n + 1))
            for l, exact in layers.items():
                want = {}
                for w in t.sub[l]:
                    if w == w[::-1]:
                        j = max((m for m in range(1, l + 1) if w[l - m:] == v[:m]), default=0)
                        want[(j, code_of(w, t))] = 1
                assert exact == want, (v, l)


def test_size_po_examples():
    for n in (3, 5, 7):
        for k in (2, 3):
            assert size_PO((0,) * n, k) == k ** ((n + 1) // 2) - 1
            assert size_PO(((k - 1),) * n, k) == 0
    assert size_PO(enc("aabab"), 2) == brute_size_po(enc("aabab"), 2)


def test_size_pe_ps_examples():
    assert size_PE((1, 1, 1, 1), 2) == 0
    assert size_PE(enc("aaab"), 2) == brute_size_pe(enc("aaab"), 2)
    for n in (4, 6):
        for k in (2, 3):
            assert size_PE((0,) * n, k) == k ** (n // 2 + 1) - 1
    assert size_PS(enc("aaab"), 2) == brute_size_ps(enc("aaab"), 2)
    assert size_PS(enc("ab"), 2) == 1
    assert size_PS((1, 1, 1, 1), 2) == 0


@pytest.mark.parametrize("k,nmax", [(2, 9), (3, 6), (4, 4)])
def test_sizes_match_brute_force_all_words(k, nmax):
    # arbitrary words, not only necklace representatives
    for n in range(2, nmax + 1):
        for v in all_words(n, k):
            if n % 2 == 1:
                assert size_PO(v, k) == brute_size_po(v, k)
            else:
                assert size_PE(v, k) == brute_size_pe(v, k)
                assert size_PS(v, k) == brute_size_ps(v, k)


def _has_centered_form(w):
    n = len(w)
    return w[n // 2 + 1:] == tuple(reversed(w[1:n // 2]))


def _has_split_form(w):
    n = len(w)
    return w[n // 2:] == tuple(reversed(w[:n // 2]))


def _brute_ge_gs_b(v, k):
    n = len(v)
    ge_n = gs_n = b_n = 0
    seen = set()
    for w in all_words(n, k):
        if w in seen:
            continue
        cls = set(rotations(w))
        seen |= cls
        rep = min(cls)
        if rep <= v:
            continue
        has_c = any(_has_centered_form(r) for r in cls)
        has_s = any(_has_split_form(r) for r in cls)
        ge_n += has_c
        gs_n += has_s
        b_n += has_c and has_s
    return ge_n, gs_n, b_n


@pytest.mark.parametrize("k,nmax", [(2, 10), (3, 6)])
def test_ge_gs_match_class_counts(k, nmax):
    for n in range(2, nmax + 1, 2):
        for v in all_words(n, k):
            if not is_necklace(v):
                continue
            want_ge, want_gs, want_b = _brute_ge_gs_b(v, k)
            assert ge(v, k) == want_ge
            assert gs(v, k) == want_gs
            assert odd_period_palindromic_above(v, k) == want_b


def test_ge_known_value():
    assert ge(enc("aaaa"), 2) == 4


def test_total_palindromic():
    assert total_palindromic(5, 2) == 8
    assert total_palindromic(2, 2) == 3
    assert total_palindromic(4, 2) == 6
    for k in (2, 3):
        for n in range(1, 11):
            assert total_palindromic(n, k) == len(palindromic_reps(n, k))


def even_palindromic_closed_form(n: int, k: int) -> int:
    """The published closed-form candidate for the even-length palindromic
    class count, kept for ERRATA #2: it overcounts from n = 4, k = 2 on."""
    if n % 2 == 1:
        raise ValueError("even lengths only")
    l = (n + 2) // 4 if (n // 2) % 2 == 1 else n // 4
    num = k ** (n // 2) * (k + 2) + k ** l
    assert num % 2 == 0, "closed-form numerator is odd"
    return num // 2 - k


ERRATA_2_TABLE = {  # (n, k): (candidate, enumerated)
    (2, 2): (3, 3), (4, 2): (7, 6), (6, 2): (16, 12), (8, 2): (32, 24), (10, 2): (66, 48),
    (2, 3): (6, 6), (4, 3): (21, 18), (6, 3): (69, 54), (8, 3): (204, 162), (10, 3): (618, 486),
}


def test_closed_form_discrepancy_documented():
    # the closed-form candidate overcounts at n=4, k=2: 7 against 6
    assert even_palindromic_closed_form(4, 2) == 7
    assert total_palindromic(4, 2) == 6
    for (n, k), (candidate, enumerated) in ERRATA_2_TABLE.items():
        assert even_palindromic_closed_form(n, k) == candidate, (n, k)
        assert total_palindromic(n, k) == enumerated, (n, k)  # enumerated in test_total_palindromic


def test_totals_match_reflection_average_at_scale():
    # the shipped total is the dihedral reflection average; the
    # mirrored-form DPs evaluated at the minimal word must reproduce it far
    # beyond enumeration reach, which exercises the whole PE/PS/PO machinery
    for k in (2, 3, 4):
        for n in range(1, 33):
            want = (k ** ((n + 1) // 2) + k ** (n // 2 + 1)) // 2
            assert total_palindromic(n, k) == want, (n, k)
            w = (0,) * n
            above = size_PO(w, k) if n % 2 else (size_PE(w, k) + size_PS(w, k)) // 2
            assert above + 1 == want, (n, k)


def test_rank_palindromic_examples():
    assert rank_palindromic((0,) * 6, 2) == 0
    assert rank_palindromic(enc("acc"), 4) == 5
    for n in (4, 5):
        for k in (2, 3):
            top = ((k - 1),) * n
            assert rank_palindromic(top, k) == total_palindromic(n, k) - 1


@pytest.mark.parametrize("k,nmax", [(2, 9), (3, 6), (4, 4)])
def test_rank_palindromic_oracle(k, nmax):
    for n in range(1, nmax + 1):
        reps = sorted(palindromic_reps(n, k))
        for v in all_words(n, k):
            assert rank_palindromic(v, k) == bisect_left(reps, v)


def test_odd_uniqueness_of_centered_words():
    # every palindromic class of odd length has exactly one centered word
    for k, nmax in ((2, 11), (3, 11)):
        for n in range(1, nmax + 1, 2):
            for rep in palindromic_reps(n, k):
                cls = set(rotations(rep))
                centered = [w for w in cls
                            if w[(n + 1) // 2:] == tuple(reversed(w[: (n - 1) // 2]))]
                assert len(centered) == 1


def test_even_form_coverage():
    # every palindromic class of even length has 1..2 words of each form,
    # both forms simultaneously only for odd-period classes
    for k, nmax in ((2, 10), (3, 10)):
        for n in range(2, nmax + 1, 2):
            for rep in palindromic_reps(n, k):
                cls = set(rotations(rep))
                c = sum(1 for w in cls if _has_centered_form(w))
                s = sum(1 for w in cls if _has_split_form(w))
                assert 1 <= c + s
                assert c <= 2 and s <= 2
                assert c + s == 2


def test_layer_ground_truth_small():
    for n in range(3, 7):
        for v in all_words(n, 2):
            if not is_necklace(v):
                continue
            brute = brute_po_cells if n % 2 == 1 else brute_pe_cells
            assert layer_counts(v, 2) == brute(v, 2)


def test_rejects_wrong_parity_and_bad_words():
    with pytest.raises(ValueError):
        rank_palindromic((), 2)
    with pytest.raises(ValueError):
        rank_palindromic((5,), 2)
