"""The README's Library examples run against the current API."""

import re
from pathlib import Path

from slq import CATALOG

README = Path(__file__).resolve().parent.parent / "README.md"


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
