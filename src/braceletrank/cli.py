"""Command-line interface: rank, unrank, count, enumerate, verify, tables.

Three tables declare it: SETS gives each set its oracle kind, rank and
count, VERBS gives each verb its handler, help text and flags, and FLAGS
gives each flag its argparse spec, so a flag that several verbs take is
declared once.

Exit codes: 0 success, 1 validation error, 2 verification failure,
3 enumeration budget exceeded.  All counts print in full decimal.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from operator import attrgetter

from . import oracle
from .api import count_bracelets, rank_bracelet, unrank_bracelet
from .bounding import SubwordTable, dump_tables
from .enclosing import build_SE, rank_enclosing
from .necklace import count_necklaces, rank_necklaces
from .oracle import BudgetExceededError
from .palindromic import layer_counts, rank_palindromic, total_palindromic
from .words import Alphabet

# set -> (its oracle kind, its single-set rank, its count); --set lists them
# in this order, and the enclosing set, which a word defines, has no count
SETS = {"bracelet": ("bracelet", rank_bracelet, count_bracelets),
        "necklace": ("necklace", rank_necklaces, count_necklaces),
        "palindromic": ("palindromic_necklace", rank_palindromic, total_palindromic),
        "enclosing": ("enclosing", rank_enclosing, None)}

# the bracelet set's ranks in print order, its parts' then its own, as
# RankBreakdown names them and oracle._ranker returns them
_PARTS = ("rn", "rp", "re", "rb")


def _budget(args):
    if args.budget is not None:
        return args.budget
    env = os.environ.get("BRACELET_BUDGET")
    try:
        return int(env) if env else None
    except ValueError:
        raise ValueError(f"BRACELET_BUDGET must be an integer, not {env!r}") from None


def _print(args, doc, lines):
    """Print doc as JSON under --json, else each of lines."""
    for line in [json.dumps(doc)] if args.json else lines:
        print(line)


def _cmd_rank(args, alphabet):
    """rn/rp/re/rb for the bracelet set, the set's own rank for the others;
    by brute-force enumeration under --use-oracle."""
    word, k = alphabet.encode(args.word), alphabet.k
    kind, rank, _ = SETS[args.set]
    if args.set != "bracelet":
        ranks = {args.set: oracle.oracle_rank(kind, word, k, _budget(args)) if args.use_oracle
                 else rank(word, k)}
    else:
        ranks = dict(zip(_PARTS, oracle._ranker(len(word), k, _budget(args))(word) if args.use_oracle
                         else attrgetter(*_PARTS)(rank(word, k))))
    text = (" ".join(f"{f}={r}" for f, r in ranks.items()) if args.breakdown
            else ranks["rb" if args.set == "bracelet" else args.set])
    doc = {"word": args.word, "n": len(word), "k": k, **{f: str(r) for f, r in ranks.items()}}
    _print(args, doc, [text])


def _cmd_unrank(args, alphabet):
    if args.one_based:
        total = count_bracelets(args.length, alphabet.k)
        if not 1 <= args.index <= total:
            raise ValueError(f"rank {args.index} out of range [1, {total}]")
    text = alphabet.decode(unrank_bracelet(args.index - args.one_based, args.length, alphabet.k))
    _print(args, {"index": args.index, "n": args.length, "k": alphabet.k, "word": text}, [text])


def _cmd_count(args, alphabet):
    kind, _, count = SETS[args.set]
    k, n = alphabet.k, args.length
    if count is None:
        raise ValueError("counting 'enclosing' needs a word; use rank --set enclosing")
    print(len(oracle.enumerate_class(kind, n, k, _budget(args))) if args.use_oracle else count(n, k))


def _cmd_enumerate(args, alphabet):
    if args.set == "enclosing":
        if not args.word:
            raise ValueError("--set enclosing needs --word")
        reps = oracle.oracle_enclosing(alphabet.encode(args.word), alphabet.k, _budget(args))
    else:
        if args.length is None:
            raise ValueError("--length is required")
        reps = oracle.enumerate_class(SETS[args.set][0], args.length, alphabet.k, _budget(args))
    texts = [alphabet.decode(r) for r in reps]
    _print(args, texts, texts)


def _cmd_verify(args, alphabet):
    """Compare the polynomial ranks against the oracle for every word."""
    k, n = alphabet.k, args.length
    ranks = oracle._ranker(n, k, _budget(args))
    for w in itertools.product(range(k), repeat=n):
        got, want = attrgetter(*_PARTS)(rank_bracelet(w, k)), ranks(w)
        if got != want:
            print(f"FAIL at {alphabet.decode(w)}: got rn/rp/re/rb={got}, oracle={want}")
            return 2
    print(f"PASS ({k ** n} words, n={n}, k={k})")


def _cmd_tables(args, alphabet):
    word, k = alphabet.encode(args.word), alphabet.k
    out = {"word": args.word, "tables": dump_tables(SubwordTable(word, k), alphabet)}
    if args.se:
        out["se"] = [
            {"x": alphabet.symbols[x], "i": i, "j": j, "s": list(s), "count": c}
            for (x, i, j, s), c in sorted(build_SE(word, k).items())
        ]
    if args.layers:
        out["layers"] = [
            {"i": i, "j": j, "s": s, "count": c}
            for (i, j, s), c in sorted(layer_counts(word, k).items())
        ]
    print(json.dumps(out))


# verb -> (handler(args, alphabet), returning a nonzero exit code or None;
# help; the flags after --alphabet in --help order, "!" marking a required one)
VERBS = {
    "rank": (_cmd_rank, "rank a word within a class",
             "--word! --set --json --budget --breakdown --use-oracle"),
    "unrank": (_cmd_unrank, "bracelet representative of a rank",
               "--length! --index! --json --one-based"),
    "count": (_cmd_count, "count a class", "--length! --set --budget --use-oracle"),
    "enumerate": (_cmd_enumerate, "list class representatives (oracle)",
                  "--set --json --budget --length --word"),
    "verify": (_cmd_verify, "oracle-equivalence sweep over all words", "--length! --budget"),
    "tables": (_cmd_tables, "dump subword/bounding tables as JSON", "--word! --se --layers"),
}

# flag -> argparse spec; help is formatted with the verb's name, or is a
# {verb: help} dict where the flag means something else to each verb
FLAGS = {
    "--alphabet": dict(help="ordered symbols, e.g. 'ab' or 'abcd'"),
    "--word": dict(help={"enumerate": "query word for --set enclosing"}),
    "--length": dict(type=int, help={"enumerate": "word length (classes by length)"}),
    "--index": dict(type=int),
    "--set": dict(choices=SETS, default="bracelet"),
    "--json": dict(action="store_true"),
    "--budget": dict(type=int, help="enumeration budget (default 2^24; env BRACELET_BUDGET)"),
    "--breakdown": dict(action="store_true", help="print rn/rp/re/rb for the bracelet set"),
    "--use-oracle": dict(action="store_true", help="{verb} by brute-force enumeration instead"),
    "--one-based": dict(action="store_true", help="treat --index as 1-based"),
    "--se": dict(action="store_true", help="include suffix-state cells"),
    "--layers": dict(action="store_true", help="include layer counts"),
}


def _parser():
    p = argparse.ArgumentParser(prog="braceletrank", description="Rank and unrank bracelets.",
                                allow_abbrev=False)
    sub = p.add_subparsers(dest="verb", required=True)
    for verb, (_, about, flags) in VERBS.items():
        sp = sub.add_parser(verb, help=about, allow_abbrev=False)
        for flag in ("--alphabet!", *flags.split()):
            name = flag.rstrip("!")
            h = FLAGS[name].get("help")
            h = h.get(verb) if isinstance(h, dict) else h and h.format(verb=verb)
            sp.add_argument(name, **{**FLAGS[name], "required": name != flag, "help": h})
    return p


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.verb == "rank" and args.breakdown and args.set != "bracelet":
        parser.error("rank: --breakdown applies to --set bracelet only")
    if args.verb in ("rank", "count") and args.budget is not None and not args.use_oracle:
        parser.error(f"{args.verb}: --budget applies to --use-oracle only")
    if args.verb == "enumerate":
        if args.word is not None and args.set != "enclosing":
            parser.error("enumerate: --word applies to --set enclosing only")
        if args.length is not None and args.set == "enclosing":
            parser.error("enumerate: --length applies to the sets other than enclosing")
    try:
        return VERBS[args.verb][0](args, Alphabet(args.alphabet)) or 0
    except (BudgetExceededError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3 if isinstance(e, BudgetExceededError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
