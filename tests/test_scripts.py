"""Smoke tests for the programs in scripts/: each runs through its
``__main__`` block in this process and exits 0, or exits 2 with one
``error:`` line on a refused input."""

import re
import runpy
import sys
from pathlib import Path

import pytest

from slq.cli import main

SCRIPTS = Path(__file__).parent.parent / "scripts"


def run_script(name, args, capsys, monkeypatch):
    """Exit status and captured (out, err) of scripts/<name> run with args."""
    monkeypatch.setattr(sys, "argv", [name] + args)
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return done.value.code, capsys.readouterr()


def test_bound_table_prints_the_slq_table(capsys, monkeypatch):
    code, captured = run_script("bound_table.py", ["--format", "csv"], capsys, monkeypatch)
    assert code == 0
    preamble, blank, table = captured.out.partition("\n\n")
    assert blank and preamble.startswith("degree-only columns from the printed parameters:")
    args = ["table", "rand:n=40,m=634,seed=1", "rand:n=40,m=322,seed=1"]
    assert main(args + ["--format", "csv"]) == 0
    assert table == capsys.readouterr().out


def test_bound_table_passes_specs_and_flags_to_slq_table(capsys, monkeypatch):
    argv = ["--seed", "2", "path:5", "--bounds", "meg2", "--format", "csv"]
    code, captured = run_script("bound_table.py", argv, capsys, monkeypatch)
    assert code == 0
    table = captured.out.partition("\n\n")[2]
    args = ["table", "rand:n=40,m=634,seed=2", "rand:n=40,m=322,seed=2", "path:5"]
    assert main(args + ["--bounds", "meg2", "--format", "csv"]) == 0
    assert table == capsys.readouterr().out


@pytest.mark.parametrize("args", [["--step", "inf"], ["--iters", "0"], ["path:0"],
                                  ["--bounds", "nope"], ["--seed", "-1"]])
def test_bound_table_refusal_is_one_error_line(capsys, monkeypatch, args):
    code, captured = run_script("bound_table.py", args, capsys, monkeypatch)
    assert code == 2
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_search_quality_reports_ratios_in_the_unit_interval(capsys, monkeypatch):
    code, captured = run_script("search_quality.py", ["--graphs", "2"], capsys, monkeypatch)
    assert code == 0
    summaries = [line for line in captured.out.splitlines() if " step: mean " in line]
    assert [line.split()[0] for line in summaries] == ["constant", "decreasing"]
    for line in summaries:
        ratios = [float(x) for x in re.findall(r"(?:mean|min|max) (\S+)", line)]
        assert len(ratios) == 3
        assert all(0.0 < r <= 1.0 for r in ratios), line


@pytest.mark.parametrize("args", [["--step", "-1"], ["--iters", "0"], ["--n", "1"],
                                  ["--m-start", "5"], ["--graphs", "0"]])
def test_search_quality_refusal_is_one_error_line(capsys, monkeypatch, args):
    code, captured = run_script("search_quality.py", args, capsys, monkeypatch)
    assert code == 2
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
