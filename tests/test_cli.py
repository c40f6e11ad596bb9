import json
import os

import pytest

from braceletrank.cli import _parser, main

# `tables` output, plain and with --se --layers, for four necklaces (k = 2
# aperiodic and periodic, k = 3, k = 4), recorded from the implementation
# that stored every cyclic subword as a tuple (commit 068ef60)
with open(os.path.join(os.path.dirname(__file__), "golden_tables.json")) as f:
    GOLDEN_TABLES = json.load(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rank_bracelet(capsys):
    code, out, _ = run(capsys, "rank", "--alphabet", "ab", "--word", "abababab",
                       "--set", "bracelet")
    assert code == 0 and out.strip() == "22"


def test_rank_breakdown(capsys):
    code, out, _ = run(capsys, "rank", "--alphabet", "abcd", "--word", "acc",
                       "--breakdown")
    assert code == 0
    assert out.strip() == "rn=8 rp=5 re=1 rb=7"


def test_rank_json_roundtrip(capsys):
    code, out, _ = run(capsys, "rank", "--alphabet", "ab", "--word", "aabaabab",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"word", "n", "k", "rn", "rp", "re", "rb"}
    assert all(isinstance(doc[f], str) for f in ("rn", "rp", "re", "rb"))
    code, out, _ = run(capsys, "unrank", "--alphabet", "ab",
                       "--length", str(doc["n"]), "--index", doc["rb"])
    assert code == 0 and out.strip() == doc["word"]


def test_rank_other_sets(capsys):
    code, out, _ = run(capsys, "rank", "--alphabet", "ab", "--word", "abab",
                       "--set", "necklace")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "rank", "--alphabet", "abcd", "--word", "acc",
                       "--set", "enclosing")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "rank", "--alphabet", "abcd", "--word", "acc",
                       "--set", "palindromic", "--use-oracle")
    assert code == 0 and out.strip() == "5"


def test_unrank(capsys):
    code, out, _ = run(capsys, "unrank", "--alphabet", "ab", "--length", "8",
                       "--index", "0")
    assert code == 0 and out.strip() == "aaaaaaaa"
    code, out, _ = run(capsys, "unrank", "--alphabet", "ab", "--length", "8",
                       "--index", "30", "--one-based")
    assert code == 0 and out.strip() == "bbbbbbbb"


def test_unrank_one_based_range(capsys):
    # the range is reported in the base the index was given in
    for index in ("0", "31"):
        code, out, err = run(capsys, "unrank", "--alphabet", "ab", "--length", "8",
                             "--index", index, "--one-based")
        assert code == 1 and out == ""
        assert err.strip() == f"error: rank {index} out of range [1, 30]"
    code, _, err = run(capsys, "unrank", "--alphabet", "ab", "--length", "8",
                       "--index", "30")
    assert code == 1 and err.strip() == "error: rank 30 out of range [0, 30)"


@pytest.mark.parametrize("set_", ["bracelet", "necklace", "palindromic", "enclosing"])
@pytest.mark.parametrize("flag", [None, "--json", "--breakdown"])
def test_oracle_prints_what_the_ranks_print(capsys, set_, flag):
    for alphabet, word in (("abcd", "acc"), ("ab", "aabbab"), ("ab", "babbaa"),
                           ("abc", "cacb"), ("ab", "b")):
        argv = ["rank", "--alphabet", alphabet, "--word", word, "--set", set_]
        argv += [flag] if flag else []
        if flag == "--breakdown" and set_ != "bracelet":
            # --breakdown splits the bracelet rank alone: both paths refuse it
            for extra in ([], ["--use-oracle"]):
                with pytest.raises(SystemExit) as e:
                    main(argv + extra)
                assert e.value.code == 2
            continue
        code, fast, _ = run(capsys, *argv)
        assert code == 0
        code, slow, _ = run(capsys, *argv, "--use-oracle")
        assert code == 0 and slow == fast, (argv, fast, slow)


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--alphabet", "ab", "--length", "8",
                       "--set", "bracelet")
    assert code == 0 and out.strip() == "30"
    code, out, _ = run(capsys, "count", "--alphabet", "ab", "--length", "8",
                       "--set", "bracelet", "--use-oracle")
    assert code == 0 and out.strip() == "30"
    code, out, _ = run(capsys, "count", "--alphabet", "ab", "--length", "6",
                       "--set", "necklace")
    assert code == 0 and out.strip() == "14"
    code, out, _ = run(capsys, "count", "--alphabet", "ab", "--length", "6",
                       "--set", "palindromic")
    assert code == 0 and out.strip() == "12"


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--alphabet", "ab", "--length", "8",
                       "--set", "bracelet")
    lines = out.split()
    assert code == 0 and len(lines) == 30 and lines[0] == "aaaaaaaa"
    code, out, _ = run(capsys, "enumerate", "--alphabet", "abcd",
                       "--set", "enclosing", "--word", "acc", "--json")
    assert code == 0 and json.loads(out) == ["abd"]


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--alphabet", "ab", "--length", "6")
    assert code == 0
    assert out.startswith("PASS")


def test_tables(capsys):
    code, out, _ = run(capsys, "tables", "--alphabet", "ab", "--word", "aabb",
                       "--se", "--layers")
    assert code == 0
    doc = json.loads(out)
    assert doc["tables"][1]["subwords"] == ["aa", "ab", "ba", "bb"]
    assert doc["se"] and doc["layers"] is not None


def test_exit_codes(capsys):
    code, _, err = run(capsys, "rank", "--alphabet", "ab", "--word", "abc")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "enumerate", "--alphabet", "ab", "--length", "40",
                       "--set", "necklace", "--budget", "1000")
    assert code == 3
    code, _, err = run(capsys, "unrank", "--alphabet", "ab", "--length", "8",
                       "--index", "99")
    assert code == 1
    # the tables verb's only gate is Alphabet.encode: SubwordTable checks nothing
    assert run(capsys, "tables", "--alphabet", "ab", "--word", "abc") == (
        1, "", "error: word 'abc' uses symbols outside alphabet 'ab'\n")
    assert run(capsys, "tables", "--alphabet", "ab", "--word", "") == (1, "", "error: empty word\n")


@pytest.mark.parametrize("case", GOLDEN_TABLES, ids=lambda c: " ".join(c["argv"][4:]))
def test_tables_output_is_unchanged(capsys, case):
    code, out, _ = run(capsys, *case["argv"])
    assert code == 0 and out == case["stdout"]


def test_json_matches_plain(capsys):
    _, plain, _ = run(capsys, "rank", "--alphabet", "ab", "--word", "aabbab")
    _, js, _ = run(capsys, "rank", "--alphabet", "ab", "--word", "aabbab", "--json")
    assert json.loads(js)["rb"] == plain.strip()


def test_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("BRACELET_BUDGET", "100")
    code, _, err = run(capsys, "enumerate", "--alphabet", "ab", "--length", "10",
                       "--set", "necklace")
    assert code == 3
    # the variable bounds the oracle alone: a plain rank neither refuses it,
    # as it refuses --budget, nor enumerates, which a budget of 1 would stop
    rank = ["rank", "--alphabet", "ab", "--word", "abababab"]
    monkeypatch.setenv("BRACELET_BUDGET", "1")
    assert run(capsys, *rank) == (0, "22\n", "")
    assert run(capsys, *rank, "--use-oracle") == (3, "", "error: 2^8 words exceed budget 1\n")
    # --budget beats the variable, both ways
    assert run(capsys, *rank, "--use-oracle", "--budget", "256") == (0, "22\n", "")
    monkeypatch.setenv("BRACELET_BUDGET", "256")
    assert run(capsys, *rank, "--use-oracle", "--budget", "255") == (
        3, "", "error: 2^8 words exceed budget 255\n")
    # a variable that is no integer is named in the error
    monkeypatch.setenv("BRACELET_BUDGET", "abc")
    assert run(capsys, "enumerate", "--alphabet", "ab", "--length", "3", "--set", "necklace") == (
        1, "", "error: BRACELET_BUDGET must be an integer, not 'abc'\n")


# each verb's flags, written out apart from the CLI's own table, after the
# argv its cases start from (which holds the verb's required flags)
DECLARED = {
    "rank": ("rank --alphabet ab --word abab",
             "--alphabet --word --set --json --budget --breakdown --use-oracle"),
    "unrank": ("unrank --alphabet ab --length 4 --index 0",
               "--alphabet --length --index --json --one-based"),
    "count": ("count --alphabet ab --length 4", "--alphabet --length --set --budget --use-oracle"),
    "enumerate": ("enumerate --alphabet ab", "--alphabet --set --json --budget --length --word"),
    "verify": ("verify --alphabet ab --length 4", "--alphabet --length --budget"),
    "tables": ("tables --alphabet ab --word aabb", "--alphabet --word --se --layers"),
}
ALL_FLAGS = ("--alphabet --word --length --index --set --json --budget --breakdown --use-oracle "
             "--one-based --se --layers")
# a value for each flag that takes one; the others are switches
VALUES = {"--alphabet": "abc", "--word": "ba", "--length": "3", "--index": "1", "--set": "necklace",
          "--budget": "100"}


def _flag_matrix(declared):
    """base + flag (+ value) for each verb and each flag it declares, or not."""
    return [f"{base} {flag} {VALUES.get(flag, '')}".rstrip()
            for base, flags in DECLARED.values() for flag in ALL_FLAGS.split()
            if (flag in flags.split()) == declared]


@pytest.mark.parametrize("argv", _flag_matrix(declared=False))
def test_flags_a_verb_ignores_are_refused(capsys, argv):
    flag = [t for t in argv.split() if t.startswith("--")][-1]
    with pytest.raises(SystemExit) as e:
        main(argv.split())
    assert e.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", _flag_matrix(declared=True))
def test_flags_a_verb_declares_parse(argv):
    flag = [t for t in argv.split() if t.startswith("--")][-1]
    args = _parser().parse_args(argv.split())
    assert str(getattr(args, flag[2:].replace("-", "_"))) == VALUES.get(flag, "True")


@pytest.mark.parametrize("argv", [
    "rank --alphabet ab --word abab --set necklace --breakdown",
    "rank --alphabet ab --word abab --budget 1",
    "count --alphabet ab --length 30 --budget 1",
    "enumerate --alphabet ab --set bracelet --length 3 --word ab",
    "enumerate --alphabet abc --set enclosing --word acc --length 7",
])
def test_rank_refuses_the_flags_it_would_ignore(capsys, argv):
    # as do count and enumerate: --breakdown splits the bracelet rank only,
    # --budget bounds only the oracle's enumeration, --word is the query of
    # the enclosing set alone and --length lists the other sets
    # (test_oracle_prints_what_the_ranks_print covers --breakdown with the
    # other sets)
    with pytest.raises(SystemExit) as e:
        main(argv.split())
    assert e.value.code == 2
    assert "applies to" in capsys.readouterr().err
