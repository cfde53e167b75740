"""The README's Library examples run against the current API, and its
flag table lists the flags the parser gives each subcommand."""

import argparse
import re
from pathlib import Path

import pytest

from slq import CATALOG
from slq.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
FLAG = r"--[a-z][a-z-]*"


def library_examples():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)


def test_library_example_runs(capsys):
    exec(compile(library_examples()[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == sorted(e.name for e in CATALOG)
    assert lines[-1].startswith("eta = ")


def test_graph_matrix_example_runs(capsys):
    exec(compile(library_examples()[1], "README.md", "exec"), {})
    eta, q1 = map(float, capsys.readouterr().out.split())
    assert 0.0 < eta <= q1


def readme_flags():
    """{subcommand: set of --flags} from the README's flag table; "all of
    them" stands for every flag named in the Flags paragraph above it."""
    from_flags = README.read_text(encoding="utf-8").split("\nFlags: ", 1)[1]
    paragraph, table = from_flags.split("\n\n", 2)[:2]
    named = set(re.findall(FLAG, paragraph))
    rows = re.findall(r"^\| `([a-z]+)` \| (.*) \|$", table, re.M)
    return {sub: named if cell == "all of them" else set(re.findall(FLAG, cell))
            for sub, cell in rows}


def parser_flags():
    """{subcommand: set of option strings} from build_parser(), without help."""
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sub in subs.choices.items()
    }


@pytest.mark.parametrize("command", sorted(parser_flags()))
def test_flag_table_matches_the_parser(command):
    assert readme_flags()[command] == parser_flags()[command]


def test_flag_table_has_one_row_per_subcommand():
    assert sorted(readme_flags()) == sorted(parser_flags())
