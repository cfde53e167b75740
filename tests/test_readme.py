"""The README's Library example runs against the current API."""

import re
from pathlib import Path

from slq import CATALOG

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == sorted(e.name for e in CATALOG)
    assert lines[-1].startswith("eta = ")
