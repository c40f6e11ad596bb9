"""Command-line interface: rank, unrank, count, enumerate, verify, tables.

Exit codes: 0 success, 1 validation error, 2 verification failure,
3 enumeration budget exceeded.  All counts print in full decimal.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from bisect import bisect_left

from . import oracle
from .api import count_bracelets, rank_bracelet, unrank_bracelet
from .bounding import SubwordTable, dump_tables
from .enclosing import build_SE, rank_enclosing
from .necklace import count_necklaces, rank_necklaces
from .oracle import BudgetExceededError
from .palindromic import layer_counts, rank_palindromic, total_palindromic
from .words import Alphabet

SETS = ("bracelet", "necklace", "palindromic", "enclosing")

_SET_TO_KIND = dict(zip(SETS, ("bracelet", "necklace", "palindromic_necklace", "enclosing")))


def _budget(args):
    if args.budget is not None:
        return args.budget
    env = os.environ.get("BRACELET_BUDGET")
    return int(env) if env else None


# the bracelet set's ranks, in print order: those of its three parts, then its own
_PARTS = {"rn": "necklace", "rp": "palindromic", "re": "enclosing", "rb": "bracelet"}


def _ranks(args, word, k) -> dict:
    """{field: rank}: rn/rp/re/rb for the bracelet set, {set: rank} for
    the others; by brute-force enumeration under --use-oracle."""
    sets = _PARTS if args.set == "bracelet" else {args.set: args.set}
    if args.use_oracle:
        budget = _budget(args)
        return {f: oracle.oracle_rank(_SET_TO_KIND[s], word, k, budget) for f, s in sets.items()}
    if args.set == "bracelet":
        bd = rank_bracelet(word, k)
        return {f: getattr(bd, f) for f in _PARTS}
    fn = {"necklace": rank_necklaces, "palindromic": rank_palindromic,
          "enclosing": rank_enclosing}[args.set]
    return {args.set: fn(word, k)}


def _cmd_rank(args):
    alphabet = Alphabet(args.alphabet)
    word = alphabet.encode(args.word)
    ranks = _ranks(args, word, alphabet.k)
    if args.json:
        print(json.dumps({"word": args.word, "n": len(word), "k": alphabet.k,
                          **{f: str(r) for f, r in ranks.items()}}))
    elif args.breakdown and args.set == "bracelet":
        print(" ".join(f"{f}={r}" for f, r in ranks.items()))
    else:
        print(ranks["rb" if args.set == "bracelet" else args.set])
    return 0


def _cmd_unrank(args):
    alphabet = Alphabet(args.alphabet)
    if args.one_based:
        total = count_bracelets(args.length, alphabet.k)
        if not 1 <= args.index <= total:
            raise ValueError(f"rank {args.index} out of range [1, {total}]")
    word = unrank_bracelet(args.index - args.one_based, args.length, alphabet.k)
    text = alphabet.decode(word)
    if args.json:
        print(json.dumps({"index": args.index, "n": args.length,
                          "k": alphabet.k, "word": text}))
    else:
        print(text)
    return 0


def _cmd_count(args):
    alphabet = Alphabet(args.alphabet)
    k, n = alphabet.k, args.length
    kind = _SET_TO_KIND[args.set]
    if kind == "enclosing":
        raise ValueError("counting 'enclosing' needs a word; use rank --set enclosing")
    if args.use_oracle:
        print(len(oracle.enumerate_class(kind, n, k, _budget(args))))
    else:
        count = {"bracelet": count_bracelets, "necklace": count_necklaces,
                 "palindromic": total_palindromic}[args.set]
        print(count(n, k))
    return 0


def _cmd_enumerate(args):
    alphabet = Alphabet(args.alphabet)
    kind = _SET_TO_KIND[args.set]
    if kind == "enclosing":
        if not args.word:
            raise ValueError("--set enclosing needs --word")
        word = alphabet.encode(args.word)
        reps = oracle.oracle_enclosing(word, alphabet.k, _budget(args))
    else:
        if args.length is None:
            raise ValueError("--length is required")
        reps = oracle.enumerate_class(kind, args.length, alphabet.k, _budget(args))
    texts = [alphabet.decode(r) for r in reps]
    if args.json:
        print(json.dumps(texts))
    else:
        for t in texts:
            print(t)
    return 0


def _cmd_verify(args):
    """Compare the polynomial ranks against the oracle for every word."""
    alphabet = Alphabet(args.alphabet)
    k, n = alphabet.k, args.length
    budget = _budget(args)
    neck = oracle.enumerate_class("necklace", n, k, budget)
    pal = oracle.enumerate_class("palindromic_necklace", n, k, budget)
    brac = oracle.enumerate_class("bracelet", n, k, budget)
    enclosing = oracle.enclosing_counter(neck)
    checked = 0
    for w in itertools.product(range(k), repeat=n):
        bd = rank_bracelet(w, k)
        want = (bisect_left(neck, w), bisect_left(pal, w), enclosing(w), bisect_left(brac, w))
        got = (bd.rn, bd.rp, bd.re, bd.rb)
        if got != want:
            print(f"FAIL at {alphabet.decode(w)}: got rn/rp/re/rb={got}, oracle={want}")
            return 2
        checked += 1
    print(f"PASS ({checked} words, n={n}, k={k})")
    return 0


def _cmd_tables(args):
    alphabet = Alphabet(args.alphabet)
    word = alphabet.encode(args.word)
    k = alphabet.k
    out = {"word": args.word, "tables": dump_tables(SubwordTable(word, k), alphabet)}
    if args.se:
        se = build_SE(word, k)
        out["se"] = [
            {"x": alphabet.symbols[x], "i": i, "j": j, "s": list(s), "count": c}
            for (x, i, j, s), c in sorted(se.items())
        ]
    if args.layers:
        out["layers"] = [
            {"i": i, "j": j, "s": s, "count": c}
            for (i, j, s), c in sorted(layer_counts(word, k).items())
        ]
    print(json.dumps(out))
    return 0


def _parser():
    p = argparse.ArgumentParser(prog="braceletrank",
                                description="Rank and unrank bracelets.")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, word=False, length=False, index=False, set_arg=False, as_json=False,
               budget=False):
        sp.add_argument("--alphabet", required=True,
                        help="ordered symbols, e.g. 'ab' or 'abcd'")
        if word:
            sp.add_argument("--word", required=True)
        if length:
            sp.add_argument("--length", type=int, required=True)
        if index:
            sp.add_argument("--index", type=int, required=True)
        if set_arg:
            sp.add_argument("--set", choices=SETS, default="bracelet")
        if as_json:
            sp.add_argument("--json", action="store_true")
        if budget:
            sp.add_argument("--budget", type=int, default=None,
                            help="enumeration budget (default 2^24; env BRACELET_BUDGET)")

    sp = sub.add_parser("rank", help="rank a word within a class")
    common(sp, word=True, set_arg=True, as_json=True, budget=True)
    sp.add_argument("--breakdown", action="store_true",
                    help="print rn/rp/re/rb for the bracelet set")
    sp.add_argument("--use-oracle", action="store_true",
                    help="rank by brute-force enumeration instead")
    sp.set_defaults(fn=_cmd_rank)

    sp = sub.add_parser("unrank", help="bracelet representative of a rank")
    common(sp, length=True, index=True, as_json=True)
    sp.add_argument("--one-based", action="store_true",
                    help="treat --index as 1-based")
    sp.set_defaults(fn=_cmd_unrank)

    sp = sub.add_parser("count", help="count a class")
    common(sp, length=True, set_arg=True, budget=True)
    sp.add_argument("--use-oracle", action="store_true")
    sp.set_defaults(fn=_cmd_count)

    sp = sub.add_parser("enumerate", help="list class representatives (oracle)")
    common(sp, set_arg=True, as_json=True, budget=True)
    sp.add_argument("--length", type=int, help="word length (classes by length)")
    sp.add_argument("--word", help="query word for --set enclosing")
    sp.set_defaults(fn=_cmd_enumerate)

    sp = sub.add_parser("verify", help="oracle-equivalence sweep over all words")
    common(sp, length=True, budget=True)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("tables", help="dump subword/bounding tables as JSON")
    common(sp, word=True)
    sp.add_argument("--se", action="store_true", help="include suffix-state cells")
    sp.add_argument("--layers", action="store_true", help="include layer counts")
    sp.set_defaults(fn=_cmd_tables)
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
        return args.fn(args)
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
