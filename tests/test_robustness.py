"""Input validation of the public entry points, and internal self-checks
that must fire even under python -O."""

import os
import subprocess
import sys

import pytest

from braceletrank import (
    count_bracelets,
    enumerate_class,
    oracle_enclosing,
    oracle_rank,
    rank_bracelet,
    rank_enclosing,
    rank_necklaces,
    rank_palindromic,
    unrank_bracelet,
)
from braceletrank.necklace import count_necklaces
from braceletrank.palindromic import total_palindromic

# every public entry point, called with one argument replaced
WORD_CALLS = [(f, lambda f, a: f(a, 2)) for f in (rank_bracelet, rank_necklaces, rank_palindromic,
                                                  rank_enclosing, oracle_enclosing)]
WORD_CALLS.append((oracle_rank, lambda f, a: f("bracelet", a, 2)))
LENGTH_CALLS = [(f, lambda f, a: f(a, 2)) for f in (count_bracelets, count_necklaces,
                                                    total_palindromic)]
LENGTH_CALLS.append((enumerate_class, lambda f, a: f("bracelet", a, 2)))
CALLS = ([(f, call, (0, 1, 1)) for f, call in WORD_CALLS]
         + [(f, call, 6) for f, call in LENGTH_CALLS]
         + [(unrank_bracelet, lambda f, a: f(a, 6, 2), 5)])
ENTRY_IDS = [f.__name__ for f, _, _ in CALLS]
# the arguments before the alphabet size, where they are not one word
LEADING_ARGS = {count_bracelets: (6,), count_necklaces: (6,), total_palindromic: (6,),
                oracle_rank: ("bracelet", (0, 1, 1)), enumerate_class: ("bracelet", 6),
                unrank_bracelet: (5, 6)}


@pytest.mark.parametrize("fn,call,good", CALLS, ids=ENTRY_IDS)
def test_rejects_bools_and_floats(fn, call, good):
    bad = [(True, False), (0.0, 1.0)] if isinstance(good, tuple) else [True, float(good)]
    for arg in bad:
        with pytest.raises(TypeError, match="must be an integer, not"):
            call(fn, arg)


@pytest.mark.parametrize("fn,call,good", CALLS, ids=ENTRY_IDS)
def test_rejects_bad_alphabet_size(fn, call, good):
    args = LEADING_ARGS.get(fn, ((0, 1, 1),))
    with pytest.raises(TypeError, match="must be an integer, not"):
        fn(*args, 2.0)
    for k in (0, -3):
        with pytest.raises(ValueError, match="alphabet size must be >= 1"):
            fn(*args, k)


@pytest.mark.parametrize("fn,call,good", CALLS, ids=ENTRY_IDS)
def test_accepts_numpy_integers(fn, call, good):
    np = pytest.importorskip("numpy")
    arg = np.array(good, dtype=np.int64) if isinstance(good, tuple) else np.int64(good)
    assert call(fn, arg) == call(fn, good)


@pytest.mark.parametrize("fn,call", WORD_CALLS, ids=[f.__name__ for f, _ in WORD_CALLS])
def test_rejects_out_of_range_and_empty(fn, call):
    with pytest.raises(ValueError, match="out of range"):
        call(fn, (0, 2))
    with pytest.raises(ValueError, match="out of range"):
        call(fn, (0, -1))
    with pytest.raises(ValueError, match="empty word"):
        call(fn, ())


@pytest.mark.parametrize("fn,call", LENGTH_CALLS, ids=[f.__name__ for f, _ in LENGTH_CALLS])
def test_rejects_nonpositive_length(fn, call):
    for n in (0, -3):
        with pytest.raises(ValueError, match="n >= 1 required"):
            call(fn, n)


# the oracle's entry points, each with the arguments before its budget
BUDGET_CALLS = [(enumerate_class, ("bracelet", 3, 2)), (oracle_rank, ("bracelet", (0, 1, 1), 2)),
                (oracle_enclosing, ((0, 1, 1), 2))]


@pytest.mark.parametrize("fn,args", BUDGET_CALLS, ids=[f.__name__ for f, _ in BUDGET_CALLS])
def test_rejects_non_integer_budget(fn, args):
    for budget in (2.5, True, "9"):
        with pytest.raises(TypeError, match="budget must be an integer, not"):
            fn(*args, budget=budget)
    assert fn(*args, budget=8) == fn(*args)


# Each snippet makes one component off by one; the named self-check must
# catch it.  Run under -O, which strips assert statements.
OFF_BY_ONE = {
    "rank_parity": """
import braceletrank.api as m
real = m.count_union_upto
m.count_union_upto = lambda table: real(table) + 1
m.rank_bracelet((0, 1, 1, 0, 1), 2)
""",
    # E = U - N past its field of the floor memo's int (n = 5, k = 2: six
    # bits), by an even amount, so that the parity check passes
    "rank_range": """
import braceletrank.api as m
real = m.count_union_upto
m.count_union_upto = lambda table: real(table) + 2 ** 6
m.rank_bracelet((0, 1, 1, 0, 1), 2)
""",
    "mobius_divisibility": """
import braceletrank.necklace as m
real = m._rotation_dp
m._rotation_dp = lambda p, k: real(p, k) + (len(p) == 6)
m.rank_necklaces((0, 1, 1, 0, 1, 1), 2)
""",
    # the joint count of the full-length prefix alone: U(n) moves by one,
    # which the divisor sum of e = n no longer divides
    "joint_count": """
import braceletrank.enclosing as m
real = m._joint_count
m._joint_count = lambda table: real(table) + (table.n == 6)
m.rank_enclosing((0, 0, 1, 0, 1, 1), 2)
""",
    # the closed-walk counts take only prenecklaces (prefixes of necklaces),
    # whose forced symbols are the pattern itself; (1, 0) is none
    "prenecklace_rotation_dp": """
from braceletrank.necklace import _rotation_dp
_rotation_dp((1, 0), 2)
""",
    "prenecklace_joint_count": """
from braceletrank.bounding import SubwordTable
from braceletrank.enclosing import _joint_count
_joint_count(SubwordTable((1, 0), 2))
""",
    "prenecklace_palindromic": """
from braceletrank.bounding import SubwordTable
from braceletrank.palindromic import size_PS
size_PS(SubwordTable((1, 0), 2))
""",
    "palindromic_parity": """
import braceletrank.palindromic as m
real = m.size_PS
m.size_PS = lambda table: real(table) + 1
m.rank_palindromic((0, 0, 1, 0, 1, 1), 2)
""",
    # make every rank of unrank(5, 6, 2)'s answer, found by one unpatched
    # call, one too low: all 13 bracelets of length 6 fit in one walked
    # block, which no rank bounds, so only the final re-rank can notice.
    "unrank_rerank": """
import dataclasses
import braceletrank.api as m
real, answer = m.rank_bracelet, m.unrank_bracelet(5, 6, 2)
def rank(w, k):
    bd = real(w, k)
    return dataclasses.replace(bd, rb=bd.rb - (tuple(w) == answer))
m.rank_bracelet = rank
m.unrank_bracelet(5, 6, 2)
""",
    # one too high: the re-rank fires here too, as the walk lists only
    # representatives; the representative check behind it re-checks the
    # walk's filter, words.at_most_reversal, with bracelet_representative,
    # which shares no code with it
    "unrank_representative": """
import dataclasses
import braceletrank.api as m
real, answer = m.rank_bracelet, m.unrank_bracelet(5, 6, 2)
def rank(w, k):
    bd = real(w, k)
    return dataclasses.replace(bd, rb=bd.rb + (tuple(w) == answer))
m.rank_bracelet = rank
m.unrank_bracelet(5, 6, 2)
""",
    # every word above unrank(5, 16, 2)'s answer ranks one higher: the search
    # takes the same path, but the upper end of the block it walks moves up
    # by one, so the walk lists one representative fewer than the ranks say
    "unrank_walk": """
import dataclasses
import braceletrank.api as m
real, answer = m.rank_bracelet, m.unrank_bracelet(5, 16, 2)
def rank(w, k):
    bd = real(w, k)
    return dataclasses.replace(bd, rb=bd.rb + (tuple(w) > answer))
m.rank_bracelet = rank
m.unrank_bracelet(5, 16, 2)
""",
    # the walk's filter lets every necklace through: all 13 bracelets of
    # length 6 share one walked block, which then lists 14 necklaces
    "unrank_walk_filter": """
import braceletrank.api as api
import braceletrank.words as m
m.at_most_reversal = lambda w, runs: True
api.unrank_bracelet(5, 6, 2)
""",
    # every strict code's prepend successor made exact
    "prepend_rows": """
from braceletrank.bounding import SubwordTable
import braceletrank.palindromic as m
real = SubwordTable.prepend_rows
def rows(table, l):
    return [[c | 1 if i % 2 == 0 else c for i, c in enumerate(row)] for row in real(table, l)]
SubwordTable.prepend_rows = rows
m.rank_palindromic((0, 0, 1, 0, 1, 1), 2)
""",
}
# the message of the check that must fire, where another could fire first
# or where it matters which one does
MESSAGES = {"prepend_rows": "a strictly bounded doubled word became a subword",
            "prenecklace_palindromic": "the pattern is not a prenecklace",
            "rank_parity": "counts up to the floor out of parity",
            "rank_range": "counts up to the floor out of range",
            "unrank_walk": "representatives where the ranks count",
            "unrank_walk_filter": "walked 14 representatives where the ranks count 13"}


@pytest.mark.parametrize("name", sorted(OFF_BY_ONE))
def test_self_checks_fire_under_optimize(name):
    code = ("import braceletrank\nassert False, 'asserts are live'\ntry:\n"
            + "".join("    " + line + "\n" for line in OFF_BY_ONE[name].strip().splitlines())
            + "except braceletrank.InternalError as e:\n    print('InternalError:', e)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("InternalError:"), out.stdout + out.stderr
    assert MESSAGES.get(name, "") in out.stdout
