"""README's command-line examples, run through the console script that
pyproject.toml declares, so the documented commands and the installed
entry point cannot drift apart."""

import importlib
import os

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# verbs whose README comment describes their output rather than showing it
DESCRIBED = ("verify", "tables")


def _script():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["braceletrank"]
    module, _, name = target.partition(":")
    return getattr(importlib.import_module(module), name)


def _examples():
    """(argv, the stdout its comment shows or None) for each braceletrank
    line of README's "Command line" block."""
    with open(os.path.join(ROOT, "README.md")) as f:
        block = f.read().split("## Command line", 1)[1].split("```")[1]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = command.split()
        if argv[:1] == ["braceletrank"]:
            shown = comment.strip() if comment and argv[1] not in DESCRIBED else None
            examples.append((argv[1:], shown))
    return examples


EXAMPLES = _examples()


def test_five_examples_show_their_output():
    assert len(EXAMPLES) == 10 and sum(shown is not None for _, shown in EXAMPLES) == 5


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example_runs(capsys, argv, shown):
    assert _script()(argv) == 0
    out = capsys.readouterr().out
    assert out and (shown is None or out == shown + "\n")
