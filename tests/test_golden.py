"""Golden CLI outputs: stdout must stay byte-identical to the files in
tests/golden, which were captured before the catalog evaluation was
reduced to one path.

`slq spectrum` is not covered: its 17 significant digits depend on the
BLAS build."""

from pathlib import Path

import pytest

from slq.cli import ENV_ORACLE_LIMIT, main

GOLDEN = Path(__file__).parent / "golden"

TABLE_ALL = (
    "table path:10 cycle:9 star:6 rand:n=40,m=634,seed=1 rand:n=40,m=322,seed=1"
    " kn1uk1:6 kbip:3,4 complete:3 path:3 --bounds all"
)

CASES = {
    "table_all.txt": TABLE_ALL,
    "table_all.csv": TABLE_ALL + " --format csv",
    "table_default.txt": "table path:10 cycle:9 rand:n=40,m=634,seed=1",
    "table_oracle_limit.txt": "table rand:n=30,m=100,seed=3 --oracle-limit 10 --bounds all",
    "validate.txt": "validate",
    "trace.txt": "trace complete:8 --iters 20 --step 0.05",
    "invariants.txt": "invariants rand:n=14,m=19,seed=7",
    # n > DENSE_LIMIT: the extremes come from Lanczos and their certificates
    "table_lanczos.csv": "table rand:n=500,m=5000,seed=1 rand:n=800,m=32000,seed=4"
                         " --bounds all --format csv",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_file(name, capsys, monkeypatch):
    monkeypatch.delenv(ENV_ORACLE_LIMIT, raising=False)
    assert main(CASES[name].split()) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
