"""Properties of the facade on random words past the oracle's reach
(n <= 20, k <= 4), drawn by hypothesis with a fixed derandomized seed."""

from hypothesis import given, settings
from hypothesis import strategies as st

from braceletrank import count_bracelets, rank_bracelet, unrank_bracelet
from braceletrank.words import min_rotation

SETTINGS = dict(deadline=None, derandomize=True, database=None)


@st.composite
def shapes(draw, nmax=20):
    return draw(st.integers(1, nmax)), draw(st.integers(2, 4))


@st.composite
def words(draw, count=1):
    n, k = draw(shapes())
    word = st.lists(st.integers(0, k - 1), min_size=n, max_size=n).map(tuple)
    return k, [draw(word) for _ in range(count)]


@settings(max_examples=10, **SETTINGS)
@given(st.data())
def test_rank_of_unrank_is_identity(data):
    n, k = data.draw(shapes())
    z = data.draw(st.integers(0, count_bracelets(n, k) - 1))
    assert rank_bracelet(unrank_bracelet(z, n, k), k).rb == z


@settings(max_examples=30, **SETTINGS)
@given(words(count=2))
def test_rank_is_monotone(drawn):
    k, (u, v) = drawn
    u, v = sorted((u, v))
    assert rank_bracelet(u, k).rb <= rank_bracelet(v, k).rb


@settings(max_examples=20, **SETTINGS)
@given(shapes())
def test_top_word_ranks_last(shape):
    n, k = shape
    assert rank_bracelet((k - 1,) * n, k).rb + 1 == count_bracelets(n, k)


@settings(max_examples=30, **SETTINGS)
@given(words())
def test_mirror_adjusted_parity(drawn):
    k, (w,) = drawn
    bd = rank_bracelet(w, k)
    adjust = int(min_rotation(w) == w and min_rotation(w[::-1]) < w)
    assert bd.mirror_adjust == adjust
    assert bd.rn + bd.rp + bd.re + adjust == 2 * bd.rb
