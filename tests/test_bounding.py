import random

import pytest

from braceletrank.bounding import SubwordTable, dump_tables
from braceletrank.words import Alphabet
from reference import bound_of, code_of
from util import all_words, enc, is_prenecklace, match_state, naive_min_rotation, period


def test_subword_lists_examples():
    t = SubwordTable(enc("aabb"), 2)
    assert list(t.sub[2]) == [enc("aa"), enc("ab"), enc("ba"), enc("bb")]
    assert list(t.sub[3]) == [enc("aab"), enc("abb"), enc("baa"), enc("bba")]
    assert list(SubwordTable(enc("aaaa"), 2).sub[2]) == [enc("aa")]


def test_subword_lists_are_cyclic_and_sorted():
    for n in range(1, 8):
        for v in all_words(n, 2):
            t = SubwordTable(v, 2)
            ext = v + v
            for l in range(1, n + 1):
                want = sorted(set(tuple(ext[i:i + l]) for i in range(n)))
                assert list(t.sub[l]) == want
                assert all(t.sub[l][t.pos_id[l][i]] == tuple(ext[i:i + l])
                           for i in range(n))


def test_bound_of_examples():
    t = SubwordTable(enc("aabb"), 2)
    assert t.sub[2][bound_of(enc("ab"), t, strict=True)] == enc("aa")
    assert bound_of(enc("aa"), t, strict=True) is None
    assert t.sub[2][bound_of(enc("bb"), t, strict=False)] == enc("bb")


def test_bound_of_soundness():
    for v in all_words(5, 2):
        t = SubwordTable(v, 2)
        for l in range(1, 6):
            for w in all_words(l, 2):
                s = bound_of(w, t, strict=True)
                below = [u for u in t.sub[l] if u < w]
                assert (s is None) == (not below)
                if below:
                    assert t.sub[l][s] == max(below)


def _strict_class(table, l, s):
    """All words of length l strictly bounded by s (None = bottom)."""
    out = []
    for w in all_words(l, table.k):
        b = bound_of(w, table, strict=True)
        if b == s and tuple(w) not in set(table.sub[l]):
            out.append(w)
    return out


def _key(s, x):
    return f"{'bottom' if s is None else s}:{x}"


@pytest.mark.parametrize("k,nmax,lmax", [(2, 7, 5), (3, 5, 4)])
def test_xw_wx_laws(k, nmax, lmax):
    """Every word in a strict-bound class transitions to the same bound."""
    for n in range(1, nmax + 1):
        for v in all_words(n, k):
            t = SubwordTable(v, k)
            dump = dump_tables(t)
            for l in range(1, min(lmax, n - 1) + 1):
                xw, wx = dump[l - 1]["xw"], dump[l - 1]["wx"]
                for s in [None] + list(range(len(t.sub[l]))):
                    cls = _strict_class(t, l, s)
                    for x in range(k):
                        for w in cls:
                            assert bound_of((x,) + w, t, strict=True) == xw[_key(s, x)]
                            assert bound_of(w + (x,), t, strict=True) == wx[_key(s, x)]


def test_table_totality():
    for v in all_words(6, 2):
        t = SubwordTable(v, 2)
        dump = dump_tables(t)
        for l in range(1, 6):
            keys = {_key(s, x) for s in [None] + list(range(len(t.sub[l]))) for x in range(2)}
            assert set(dump[l - 1]["xw"]) == keys
            assert set(dump[l - 1]["wx"]) == keys
        assert dump[5]["xw"] == dump[5]["wx"] == {}


def _successor(w, k):
    """The least word of length |w| above w, None if there is none."""
    i = len(w)
    while i and w[i - 1] == k - 1:
        i -= 1
    return w[:i - 1] + (w[i - 1] + 1,) + (0,) * (len(w) - i) if i else None


def _class_words(t, l):
    """(code, w) for every subword w of length l at its odd code, and for
    one word w in each non-empty strict class 2b: the least word above
    subword b - 1 (the word of zeros at b = 0), if it lies below subword b."""
    subs = list(t.sub[l]) if l else [()]
    out = [(2 * i + 1, s) for i, s in enumerate(subs)]
    for b in range(len(subs) + 1):
        w = _successor(subs[b - 1], t.k) if b else (0,) * l
        if w is not None and (b == len(subs) or w < subs[b]):
            out.append((2 * b, w))
    return out


def _rows_match_codes(t):
    # the successor rows of every length against the codes of the grown
    # words, read off the sorted subwords alone
    for l in range(t.n):
        app, pre = t.append_rows(l), t.prepend_rows(l)
        for code, w in _class_words(t, l):
            assert code_of(w, t) == code, (t.p, w)
            for x in range(t.k):
                assert app[x][code] == code_of(w + (x,), t), (t.p, l, w, x)
                assert pre[x][code] == code_of((x,) + w, t), (t.p, l, w, x)


def test_exact_state_transitions_match_values():
    for n in range(1, 7):
        for v in all_words(n, 2):
            _rows_match_codes(SubwordTable(v, 2))
    # long patterns, whose lengths share prepend rows once the runs stop
    # splitting and whose append rows past the longest repeated subword take
    # one rotation per run: random words, their floors, and powers, whose
    # runs never become single rotations
    rng = random.Random(26)
    for n, k in ((20, 2), (60, 2), (30, 3), (45, 3), (20, 4), (40, 4)):
        w = tuple(rng.randrange(k) for _ in range(n))
        unit = w[:rng.choice([e for e in range(1, n // 2 + 1) if n % e == 0])]
        for v in (w, naive_min_rotation(w), unit * (n // len(unit))):
            _rows_match_codes(SubwordTable(v, k))


def test_prepend_from_bottom():
    # bottom rows: words below every subword
    v = enc("bbcb", "abcd")
    t = SubwordTable(v, 4)
    for l in range(1, 4):
        low = (0,) * l  # strictly below every subword of v
        assert bound_of(low, t, strict=True) is None
        for x in range(4):
            want = bound_of((x,) + low, t, strict=True)
            got = t.prepend_rows(l)[x][0]  # code 0: bottom
            assert (want is None) == (got == 0)
            if want is not None:
                assert got == 2 * want + 2  # strict, not exact
        assert t.append_rows(l)[0][0] == 0


@pytest.mark.parametrize("k,nmax", [(2, 6), (3, 4)])
def test_codes_follow_word_order(k, nmax):
    # every word of every length below n, not only subwords and strict
    # classes: codes rise with the word and each step lands on the code of
    # the grown word
    for n in range(1, nmax + 1):
        for v in all_words(n, k):
            t = SubwordTable(v, k)
            for l in range(n):
                codes = [code_of(w, t) for w in all_words(l, k)]
                assert codes == sorted(codes), (v, l)
                for w, code in zip(all_words(l, k), codes):
                    for x in range(k):
                        assert t.append_rows(l)[x][code] == code_of(w + (x,), t), (v, w, x)
                        assert t.prepend_rows(l)[x][code] == code_of((x,) + w, t), (v, w, x)


def test_dump_tables_shape():
    al = Alphabet("ab")
    out = dump_tables(SubwordTable(al.encode("aabb"), 2), al)
    assert [e["l"] for e in out] == [1, 2, 3, 4]
    assert out[1]["subwords"] == ["aa", "ab", "ba", "bb"]
    assert "0:a" in out[0]["xw"] and "bottom:b" in out[0]["wx"]


def _suffixes_geq_prefixes(w, p):
    return all(w[a:] >= p[:len(w) - a] for a in range(len(w)))


def _small_patterns():
    return [(p, k) for k, dmax in ((2, 7), (3, 5))
            for d in range(1, dmax + 1) for p in all_words(d, k)]


def test_thresh_and_class_size_match_definitions():
    # on a prenecklace p, the walks' automaton is p itself: the least
    # symbol that keeps every suffix of a word with match state j < |p| at
    # or above the same-length prefix of p is p[j], which advances the
    # match to j + 1, and every larger symbol resets it to 0
    for p, k in _small_patterns():
        if not is_prenecklace(p):
            continue
        layer = [()]  # the words of one length with the property
        for _ in range(len(p)):
            grown = []
            for w in layer:
                j = match_state(p, w)
                for x in range(k):
                    ok = _suffixes_geq_prefixes(w + (x,), p)
                    assert ok == (x >= p[j]), (p, w, x)
                    if ok:
                        assert match_state(p, w + (x,)) == (j + 1 if x == p[j] else 0), (p, w, x)
                        grown.append(w + (x,))
            layer = grown
    # the class size read off the sorted rotations (the distinct rotations
    # of p), against the period, also at lengths past the oracle's reach
    rng = random.Random(11)
    patterns = _small_patterns()
    for _ in range(60):
        d, k = rng.randint(8, 200), rng.randint(2, 4)
        w = tuple(rng.randrange(k) for _ in range(d))
        unit = naive_min_rotation(w[:rng.choice([e for e in range(1, d + 1) if d % e == 0])])
        patterns += [(w, k), (naive_min_rotation(w), k), (unit * (d // len(unit)), k)]
    for p, k in patterns:
        assert SubwordTable(p, k).size[len(p)] == period(p), p
