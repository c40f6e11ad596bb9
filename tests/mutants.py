"""Re-run the standing mutant list: faults the tests must catch.

Each entry of MUTANTS is one exact substitution in one file of src/ and
the tests that must fail with it.  For each entry the script copies src/
to a fresh temporary directory, replaces the one occurrence of the old
text, and runs `python -m pytest -q -x` on the entry's tests against the
copy, one process at a time.  It reports each entry as

    killed               the tests failed, as they must;
    survived             they all passed: the fault went unseen;
    no longer applies    the old text is not in the file exactly once;
    pytest exit N        pytest could not run the tests (say, one is gone).

All but the first are failures, and the script exits 1 on any of them,
so a change to the code updates its entries with it.  Run from the root
of a checkout:

    python tests/mutants.py

The name keeps pytest from collecting it.  A change that kills a mutant
by hand adds it here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the tests of each DP kernel, those that fail soonest first (-x stops there)
JOINT_TESTS = ("tests/test_closed_walks.py", "tests/test_enclosing.py", "tests/test_golden_large.py")
WALK_TESTS = ("tests/test_palindromic.py", "tests/test_golden_large.py")

# (name, file under src/braceletrank, old text, new text, tests, note)
MUTANTS = (
    ("joint-reset-drops-old", "enclosing.py",
     "reset[nb] = v if o is None else o + v", "reset[nb] = v",
     JOINT_TESTS, "the joint DP's reset step keeps only the last value it stores"),
    ("joint-forward-drops-old", "enclosing.py",
     "tgt[nb] = v if o is None else o + v", "tgt[nb] = v",
     JOINT_TESTS, "the joint DP's forward step keeps only the last value it stores"),
    ("grow-drops-old", "palindromic.py",
     "tgt[st] = c if o is None else o + c", "tgt[st] = c",
     WALK_TESTS, "_grow stores a count without the one already there"),
    ("grow-targets-swapped", "palindromic.py",
     "tgt = adv if x == pj else reset", "tgt = reset if x == pj else adv",
     WALK_TESTS, "_grow resets the match on v[j] and advances it on larger symbols"),
)


def run(entry) -> str:
    """'killed', 'survived', 'no longer applies' or pytest's own failure
    for one entry."""
    _, path, old, new, tests, _ = entry
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = os.path.join(src, "braceletrank", path)
        with open(target) as f:
            text = f.read()
        if text.count(old) != 1:
            return "no longer applies"
        with open(target, "w") as f:
            f.write(text.replace(old, new))
        # pyproject's pythonpath would put the checkout's src/ first
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "-o", f"pythonpath={src}", *tests]
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        # 1: a test failed; 2: a test module failed to import (collection
        # error); 4 and 5: a named test is missing, so nothing was checked
        return {0: "survived", 1: "killed", 2: "killed"}.get(done.returncode, f"pytest exit {done.returncode}")


def main() -> int:
    bad = 0
    for entry in MUTANTS:
        t0 = time.perf_counter()
        outcome = run(entry)
        bad += outcome != "killed"
        print(f"{outcome:18} {entry[0]} ({entry[1]}, {time.perf_counter() - t0:.1f} s): {entry[5]}",
              flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
