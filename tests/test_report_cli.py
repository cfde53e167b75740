"""Graph-spec parsing, table rendering, determinism, and the CLI surface."""

import csv
import io
import math
import os
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

import slq
from slq import Graph, generate_named, generate_random_connected, spectra, write_edge_list
from slq import bounds, minmax, validation
from slq.bounds import CatalogOptions, GraphData, evaluate_catalog
from slq.combinatorics import VB_LIMIT
from slq.cli import main
from slq.minmax import SearchConfig, bound_from_vector, gradient_search
from slq.spectra import eigenvalues
from slq.report import (
    DEFAULT_BOUNDS,
    PAPER_COLUMNS,
    GraphSpecError,
    RunConfig,
    build_row,
    parse_graph_spec,
    resolve_bounds,
    run_invariants,
    run_spectrum,
    run_table,
    run_trace,
)


def parse_table_csv(text: str):
    """Parse an emitted CSV table back into value dicts."""
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    header = rows[0]
    out = []
    for raw in rows[1:]:
        rec = dict(zip(header, raw))
        parsed = {}
        for key, value in rec.items():
            if key in ("graph", "violations", "liu_2.2"):
                parsed[key] = value
            elif key == "seed":
                parsed[key] = None if value == "" else int(value)
            elif key in ("n", "m", "Delta", "delta"):
                parsed[key] = int(value)
            else:
                parsed[key] = np.nan if value == "n/a" else float(value)
        out.append(parsed)
    return out


ASSEMBLERS = ("adjacency_matrix", "laplacian_matrix", "signless_laplacian_matrix",
              "incidence_matrix", "oriented_incidence_matrix")


class TestParseGraphSpec:
    def test_named_kinds(self):
        label, g = parse_graph_spec("path:5")
        assert label == "path:5" and (g.n, g.m) == (5, 4)
        _, c = parse_graph_spec("cycle:6")
        assert (c.n, c.m) == (6, 6)
        _, k = parse_graph_spec("complete:4")
        assert (k.n, k.m) == (4, 6)
        _, s = parse_graph_spec("star:4")
        assert (s.n, s.m) == (5, 4)
        _, b = parse_graph_spec("kbip:2,3")
        assert (b.n, b.m) == (5, 6)
        _, u = parse_graph_spec("kn1uk1:6")
        assert (u.n, u.m) == (6, 10)

    def test_rand_with_explicit_seed(self):
        label, g = parse_graph_spec("rand:n=8,m=12,seed=5")
        assert label == "rand:n=8,m=12,seed=5"
        assert g == generate_random_connected(8, 12, 5)

    def test_rand_label_is_canonical(self):
        label, g = parse_graph_spec("rand:seed=9, m=12,n=8")
        assert label == "rand:n=8,m=12,seed=9"
        assert g == generate_random_connected(8, 12, 9)

    @pytest.mark.parametrize("spec", [
        "rand:n=6,m=7,seed=-1",
        "rand:n=6,m=7,seed=18446744073709551616",
    ])
    def test_seed_outside_u64_refused(self, spec):
        with pytest.raises(GraphSpecError, match=r"outside \[0, 2\^64\)"):
            parse_graph_spec(spec)

    def test_rand_without_any_seed(self):
        with pytest.raises(GraphSpecError, match="needs n=, m= and seed="):
            parse_graph_spec("rand:n=8,m=12")

    @pytest.mark.parametrize("spec, key", [
        ("rand:n=5,m=4,seed=1,seed=2", "seed"),
        ("rand:n=5,n=6,m=5,seed=1", "n"),
        ("rand:n=5,m=4, m=4,seed=1", "m"),
    ])
    def test_rand_repeated_key_refused(self, spec, key):
        # a dict filled in order would keep the last value and build another graph
        with pytest.raises(GraphSpecError, match=f"repeats {key}="):
            parse_graph_spec(spec)

    def test_file_round_trip(self, tmp_path):
        g = generate_named("cycle", 5)
        path = tmp_path / "c5.edges"
        path.write_text(write_edge_list(g), encoding="utf-8")
        label, back = parse_graph_spec(f"file:{path}")
        assert back == g and label == f"file:{path}"

    @pytest.mark.parametrize(
        "bad",
        [
            "justaname",
            "zzz:3",
            "path:x",
            "kbip:3",
            "rand:n=8,q=2,seed=1",
            "rand:n=8",
            "cycle:2",
            "rand:n=3,m=9,seed=1",
        ],
    )
    def test_malformed_specs(self, bad):
        with pytest.raises(GraphSpecError):
            parse_graph_spec(bad)


class TestResolveBounds:
    def test_default_selection(self):
        assert resolve_bounds(DEFAULT_BOUNDS) == DEFAULT_BOUNDS

    def test_paper_columns_lead_in_fixed_order(self):
        assert resolve_bounds(("eta", "meg2", "global_2n4")) == (
            "meg2", "eta", "global_2n4",
        )

    def test_all_keeps_paper_head(self):
        names = resolve_bounds("all")
        assert names[: len(PAPER_COLUMNS)] == PAPER_COLUMNS
        assert list(names[len(PAPER_COLUMNS):]) == sorted(names[len(PAPER_COLUMNS):])
        assert len(names) == 24

    def test_unknown_name(self):
        with pytest.raises(GraphSpecError, match="unknown bound names: bogus"):
            resolve_bounds(("meg2", "bogus"))


class TestRunTable:
    def test_text_layout_and_constant_column(self):
        config = RunConfig(sources=("path:4", "kbip:2,3"))
        text, code = run_table(config)
        assert code == 0
        lines = text.splitlines()
        assert len(lines) == 3
        head = lines[0].split()
        assert head[:6] == ["graph", "n", "m", "Delta", "delta", "liu_2.2"]
        assert head[6:14] == list(DEFAULT_BOUNDS)
        assert head[14:] == ["s_Q", "violations", "seed"]
        for line in lines[1:]:
            assert "ext" in line.split()
        assert lines[1].split()[0] == "path:4"

    def test_byte_determinism(self):
        config = RunConfig(sources=("path:6", "cycle:7", "rand:n=9,m=14,seed=2"))
        assert run_table(config) == run_table(config)

    def test_known_overshoot_is_logged_not_fatal(self):
        config = RunConfig(sources=("path:3",), bounds=("meg2",))
        text, code = run_table(config)
        assert code == 0
        assert "meg2[logged]" in text

    def test_unlogged_violation_sets_exit_code(self, monkeypatch):
        import slq.report as report_mod

        monkeypatch.setattr(report_mod, "printed_form_excluded", lambda *a: False)
        config = RunConfig(sources=("path:3",), bounds=("meg2",))
        text, code = run_table(config)
        assert code == 1
        assert "meg2" in text and "[logged]" not in text

    def test_inapplicable_renders_na(self):
        config = RunConfig(sources=("star:3",), bounds=("global_2n4",))
        text, _ = run_table(config)
        assert "n/a" in text

    def test_precision_flag(self):
        config = RunConfig(sources=("star:3",), bounds=("meg2",), precision=4)
        text, _ = run_table(config)
        assert "4.0000" in text

    def test_seed_column_only_for_rand(self):
        config = RunConfig(sources=("rand:n=6,m=8,seed=3",), fmt="csv")
        text, _ = run_table(config)
        rows = parse_table_csv(text)
        assert rows[0]["graph"] == "rand:n=6,m=8,seed=3"
        assert rows[0]["seed"] == 3
        config2 = RunConfig(sources=("path:4",), fmt="csv")
        rows2 = parse_table_csv(run_table(config2)[0])
        assert rows2[0]["seed"] is None

    def test_csv_round_trip_values(self):
        config = RunConfig(
            sources=("star:3",), bounds=("meg2", "Ncon", "global_2n4"), fmt="csv"
        )
        text, _ = run_table(config)
        rows = parse_table_csv(text)
        row = rows[0]
        assert (row["n"], row["m"], row["Delta"], row["delta"]) == (4, 3, 3, 1)
        assert row["liu_2.2"] == "ext"
        assert row["meg2"] == pytest.approx(4.0, abs=1e-9)
        assert row["Ncon"] == pytest.approx(math.sqrt(12.0), abs=1e-9)
        assert math.isnan(row["global_2n4"])
        assert row["s_Q"] == pytest.approx(4.0, abs=1e-9)

    def test_csv_ten_significant_digits(self):
        config = RunConfig(sources=("path:5",), bounds=("path_universal",), fmt="csv")
        text, _ = run_table(config)
        value = text.splitlines()[1].split(",")[6]
        assert value == "%.10g" % (2.0 + 2.0 * math.cos(math.pi / 5.0))

    def test_search_settings_feed_eta_column(self):
        base = CatalogOptions(search=SearchConfig(iterations=1, step=1e-6))
        more = CatalogOptions(search=SearchConfig(iterations=40, step=0.1))
        weak = parse_table_csv(
            run_table(RunConfig(sources=("star:5",), bounds=("eta",), fmt="csv", catalog=base))[0]
        )[0]["eta"]
        strong = parse_table_csv(
            run_table(RunConfig(sources=("star:5",), bounds=("eta",), fmt="csv", catalog=more))[0]
        )[0]["eta"]
        assert strong > weak


class TestRunTraceSpectrumInvariants:
    def test_trace_text(self):
        config = RunConfig(sources=())
        out = run_trace("path:5", config)
        lines = out.splitlines()
        assert lines[0].split()[:3] == ["iteration", "1", "2"]
        assert lines[1].split()[0] == "f"
        assert any(line.startswith("graph = path:5") for line in lines)
        assert any(line.startswith("start f = ") for line in lines)
        assert any(line.startswith("eta = ") for line in lines)

    def test_trace_notes_perturbation_on_regular(self):
        out = run_trace("complete:4", RunConfig(sources=()))
        assert "start point perturbed" in out

    def test_trace_notes_stagnation(self, monkeypatch):
        # the third tangent step (iteration 3) finds a stationary point
        step, calls = minmax._tangent_step, []

        def stalls_third(*args):
            calls.append(None)
            return None if len(calls) == 3 else step(*args)

        monkeypatch.setattr(minmax, "_tangent_step", stalls_third)
        catalog = CatalogOptions(search=SearchConfig(iterations=5))
        lines = run_trace("path:5", RunConfig(sources=(), catalog=catalog)).splitlines()
        values = lines[1].split()[1:]
        assert len(values) == 5 and values[2:] == [values[1]] * 3
        assert lines[-1] == "stagnated at iteration 3"

    def test_trace_csv(self):
        catalog = CatalogOptions(search=SearchConfig(iterations=4))
        out = run_trace("star:3", RunConfig(sources=(), fmt="csv", catalog=catalog))
        lines = out.splitlines()
        assert lines[0] == "iteration,1,2,3,4"
        assert lines[1].startswith("f,")
        assert sum(1 for line in lines if line.startswith("# ")) >= 3

    def test_spectrum_text(self):
        out = run_spectrum("path:2", RunConfig(sources=()))
        values = [float(x) for x in out.split()]
        assert values == pytest.approx([2.0, 0.0], abs=1e-12)

    def test_spectrum_adjacency(self):
        out = run_spectrum("complete:3", RunConfig(sources=()), matrix="adjacency")
        values = [float(x) for x in out.split()]
        assert values == pytest.approx([2.0, -1.0, -1.0], abs=1e-9)

    def test_spectrum_csv_and_precision(self):
        out = run_spectrum("cycle:5", RunConfig(sources=(), fmt="csv"))
        lines = out.splitlines()
        assert lines[0] == "index,value"
        assert len(lines) == 6
        top = float(lines[1].split(",")[1])
        assert top == pytest.approx(4.0, abs=1e-9)
        # 17 significant digits survive the round trip exactly
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        again = [float(line.split(",")[1]) for line in run_spectrum(
            "cycle:5", RunConfig(sources=(), fmt="csv")).splitlines()[1:]]
        assert vals == again

    def test_spectrum_unknown_matrix(self):
        with pytest.raises(GraphSpecError, match="matrix"):
            run_spectrum("path:3", RunConfig(sources=()), matrix="incidence")

    def test_invariants_text(self):
        out = run_invariants("cycle:5", RunConfig(sources=()))
        assert out == (
            "graph = cycle:5\nn = 5\nm = 5\nDelta = 2\ndelta = 2\nM1 = 20\n"
            "alpha = 2\nvertex_bipartiteness = 1\nedge_bipartiteness = 1\n"
        )

    def test_invariants_respects_limits(self):
        config = RunConfig(sources=(), catalog=CatalogOptions(oracle_limit=3))
        out = run_invariants("cycle:5", config)
        assert "alpha = n/a (independence number: n=5 exceeds oracle limit 3)" in out
        assert "vertex_bipartiteness = n/a (vertex bipartiteness: n=5 exceeds oracle limit 3)" in out
        assert "edge_bipartiteness = n/a (max cut: n=5 exceeds oracle limit 3)" in out
        assert "n = 5" in out

    def test_invariants_csv(self):
        out = run_invariants("path:4", RunConfig(sources=(), fmt="csv"))
        lines = out.splitlines()
        assert lines[0] == "key,value"
        rec = dict(line.split(",", 1) for line in lines[1:])
        assert rec["n"] == "4" and rec["alpha"] == "2"


class TestCliMain:
    def test_table_happy_path(self, capsys):
        assert main(["table", "path:4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph")
        assert "path:4" in out

    def test_table_multiple_sources_and_bounds(self, capsys):
        code = main(["table", "path:4", "cycle:5", "--bounds", "meg2,eta", "--format", "csv"])
        assert code == 0
        rows = parse_table_csv(capsys.readouterr().out)
        assert [r["graph"] for r in rows] == ["path:4", "cycle:5"]

    def test_logged_overshoot_keeps_exit_zero(self, capsys):
        assert main(["table", "path:3", "--bounds", "meg2"]) == 0
        assert "meg2[logged]" in capsys.readouterr().out

    def test_bad_spec_exits_2(self, capsys):
        assert main(["table", "wat"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, detail", [
        ("kbip:3", "expected kbip:P,Q with integers P and Q"),
        ("kbip:1,2,3", "expected kbip:P,Q with integers P and Q"),
        ("path:x", "expected path:K with an integer K"),
        ("rand:n=x,m=3,seed=1", "expected rand:n=N,m=M,seed=S of integers"),
        # a generator's own message passes through
        ("rand:n=5,m=40,seed=1", "edge count must satisfy 4 <= m <= 10"),
    ])
    def test_bad_spec_says_what_is_wrong(self, capsys, spec, detail):
        assert main(["table", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad graph spec {spec!r}: {detail}\n"
        assert "unpack" not in captured.err and "invalid literal" not in captured.err

    def test_file_vertex_on_no_edge_exits_2(self, capsys, tmp_path):
        path = tmp_path / "isolated.edges"
        path.write_text("4\n0 1\n1 2\n")
        assert main(["table", f"file:{path}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "vertex 3 is on no edge of the file" in captured.err
        assert "allow_isolated" not in captured.err

    def test_file_sparse_vertex_count_exits_2(self, capsys, tmp_path):
        # 2^40 vertices over one edge: refused before 8 TiB of degrees are allocated
        path = tmp_path / "sparse.edges"
        path.write_text("1099511627776\n0 1\n")
        assert main(["table", f"file:{path}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: bad graph spec 'file:{path}': vertex 2 is on no edge of the file\n"
        )

    def test_file_not_utf8_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.edges"
        path.write_bytes(b"3\n0 1\n1 2 # caf\xe9\n")
        assert main(["table", f"file:{path}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: bad graph spec 'file:{path}': not UTF-8 text (byte offset 15)\n"
        )
        path.write_bytes(b"\xff")
        assert main(["table", f"file:{path}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bad graph spec")
        assert "not UTF-8 text (byte offset 0)" in captured.err
        assert "codec" not in captured.err

    def test_repeated_rand_key_exits_2(self, capsys):
        assert main(["table", "rand:n=5,m=4,seed=1,seed=2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "repeats seed=" in captured.err

    def test_unknown_bound_exits_2(self, capsys):
        assert main(["table", "path:4", "--bounds", "nope"]) == 2
        assert "unknown bound names" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["spectrum", "file:/does/not/exist.edges"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["table", "invariants", "spectrum", "trace"])
    def test_vertex_count_beyond_int64_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "huge.edges"
        path.write_text("99999999999999999999\n")
        assert main([command, f"file:{path}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "below 2^63" in captured.err

    def test_rand_needs_seed(self, capsys):
        assert main(["table", "rand:n=6,m=8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rand spec 'rand:n=6,m=8' needs n=, m= and seed=\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 5)],
                             ids=lambda seed: f"spec-{seed}")
    def test_seed_outside_u64_exits_2(self, capsys, seed):
        assert main(["table", "rand:n=6,m=7,seed=" + seed]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_largest_u64_seed_is_accepted(self, capsys):
        seed = str(2**64 - 1)
        assert main(["table", "rand:n=6,m=7,seed=" + seed, "--format", "csv"]) == 0
        assert parse_table_csv(capsys.readouterr().out)[0]["graph"].endswith("seed=" + seed)

    def test_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_trace_iters_flag(self, capsys):
        assert main(["trace", "star:3", "--iters", "3", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "iteration,1,2,3"

    def test_spectrum_matrix_flag(self, capsys):
        assert main(["spectrum", "complete:3", "--matrix", "adjacency"]) == 0
        values = [float(x) for x in capsys.readouterr().out.split()]
        assert values == pytest.approx([2.0, -1.0, -1.0], abs=1e-9)

    def test_output_does_not_depend_on_an_oracle_limit_variable(self, capsys, monkeypatch):
        # the oracle limit has one way in, --oracle-limit
        monkeypatch.delenv("SLQ_ORACLE_LIMIT", raising=False)
        assert main(["invariants", "cycle:5"]) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("SLQ_ORACLE_LIMIT", "4")
        assert main(["invariants", "cycle:5"]) == 0
        assert capsys.readouterr().out == plain
        assert "alpha = 2" in plain

    def test_nonpositive_limit_exits_2(self, capsys):
        assert main(["invariants", "cycle:5", "--oracle-limit", "0"]) == 2
        assert "at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--iters", "0"], "iterations must be at least 1"),
            (["--step", "-1"], "step must be positive"),
            (["--step", "nan"], "step must be positive"),
            (["--precision", "-3"], "--precision must be at least 0"),
            (["--precision", "99999999999"], "--precision must be at most 100"),
        ],
    )
    def test_bad_search_and_precision_flags_exit_2(self, capsys, flags, message):
        assert main(["table", "path:4"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert "Traceback" not in captured.err

    def test_precision_ceiling_on_trace(self, capsys):
        assert main(["trace", "path:3", "--precision", "101"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --precision must be at most 100\n"
        assert main(["trace", "path:3", "--precision", "100"]) == 0

    @pytest.mark.parametrize(
        "args",
        [["table", "cycle:5"], ["validate"], ["trace", "cycle:5"]],
        ids=["table", "validate", "trace"],
    )
    @pytest.mark.parametrize(
        "step, message",
        [
            ("inf", "step must be finite"),
            ("1e200", "step must be below 9.48e153, where its squared norm overflows"),
        ],
        ids=["inf", "1e200"],
    )
    def test_non_finite_or_overflowing_step_exits_2(self, capsys, args, step, message):
        assert main(args + ["--step", step]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("spec", ["path:1", "complete:1"])
    @pytest.mark.parametrize("bounds", [[], ["--bounds", "all"]])
    def test_single_vertex_table(self, capsys, spec, bounds):
        # the only entry that targets s_L needs n >= 5, so the Laplacian
        # spread, which needs two eigenvalues, is never read
        assert main(["table", spec] + bounds + ["--format", "csv"]) == 0
        rows = parse_table_csv(capsys.readouterr().out)
        assert len(rows) == 1
        row = rows[0]
        assert (row["n"], row["m"], row["s_Q"]) == (1, 0, 0.0)
        assert row["meg2"] == 2.0
        expected = "meg2[logged];L1[logged]" if bounds else "meg2[logged]"
        assert row["violations"] == expected

    @pytest.mark.parametrize("spec", ["path:1", "complete:1"])
    def test_single_vertex_trace_exits_2(self, capsys, spec):
        assert main(["trace", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: trace needs at least 2 vertices, {spec} has 1\n"

    @pytest.mark.parametrize("args", [["table", "path:5"], ["spectrum", "cycle:6"]],
                             ids=["table", "spectrum"])
    def test_failed_residual_contract_exits_2(self, capsys, monkeypatch, args):
        # eigenvalues 1 off their vectors: the residual check itself refuses
        eigh = np.linalg.eigh

        def off_by_one(w):
            values, vectors = eigh(w)
            return values + 1.0, vectors

        monkeypatch.setattr(np.linalg, "eigh", off_by_one)
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: residual ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["table", "spectrum"])
    def test_refused_allocation_exits_2(self, capsys, monkeypatch, command):
        # the builder refuses as numpy does, without allocating anything
        import slq.report as report_mod

        def refuse(n, m, seed):
            raise MemoryError("Unable to allocate 2.24 GiB for an array")

        monkeypatch.setattr(report_mod, "generate_random_connected", refuse)
        assert main([command, "rand:n=300000000,m=299999999,seed=1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: Unable to allocate 2.24 GiB for an array\n"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("args, text, detail", [
        (["table", "path:0"], None, "path needs at least 1 vertex"),
        (["table", "complete:0"], None, "complete needs at least 1 vertex"),
        (["table", "star:0"], None, "star needs at least 1 leaf"),
        (["table", "kn1uk1:2"], None, "kn1uk1 needs at least 3 vertices"),
        (["table", "kbip:0,3"], None, "complete_bipartite parts must be at least 1"),
        (["table", "rand:n=5,m"], None, "expected key=value parts"),
        (["table", "--bounds", ",", "path:3"], None, "--bounds got an empty list"),
        (["table", "file:{}"], "x\n", "line 1: expected vertex count, got 'x'"),
        (["table", "file:{}"], "0\n", "line 1: vertex count must be at least 1"),
        (["table", "file:{}"], "3\n0 1 2\n", "line 2: expected 'i j', got '0 1 2'"),
    ])
    def test_refusal_is_one_error_line(self, capsys, tmp_path, args, text, detail):
        if text is not None:
            path = tmp_path / "bad.edges"
            path.write_text(text)
            args = [a.format(path) for a in args]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert detail in captured.err and "Traceback" not in captured.err

    def test_validate_failure_exits_1(self, capsys, monkeypatch):
        corpus = (("cycle:5", generate_named("cycle", 5)), ("path:4", generate_named("path", 4)))
        monkeypatch.setattr(validation, "standard_corpus", lambda: corpus)
        ncon = bounds.CATALOG_BY_NAME["Ncon"]
        overshoot = ncon._replace(evaluate=lambda data: ncon.evaluate(data) + 100.0)
        monkeypatch.setitem(bounds.CATALOG_BY_NAME, "Ncon", overshoot)
        assert main(["validate"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("graphs checked: 2\n")
        assert "unexcluded violations: 2\n" in out
        # Ncon is 0 on a regular graph
        assert "\n  FAIL cycle:5: Ncon = 100.000000 > s_Q = 3.618034\n" in out
        assert "\n  FAIL path:4: Ncon = " in out
        assert out.endswith("result: FAIL\n")

    @pytest.mark.parametrize("title, module, name, broken, failure", [
        ("equality fixtures", bounds, "ub_global_2n4", lambda f: lambda d: f(d) + 1.0,
         "global_2n4(kn1uk1:5): got 7.0, expected 6.0"),
        ("matrix identities", validation, "incidence_matrix", lambda f: lambda g: 2 * f(g),
         ": I I^T != Q"),
        ("matrix identities", validation, "oriented_incidence_matrix",
         lambda f: lambda g, signs: 2 * f(g, signs), ": K K^T != L"),
        ("matrix identities", validation, "adjacency_matrix",
         lambda f: lambda g: f(g) + np.eye(g.n), ": q_i != 2 + line-graph lambda_i"),
        ("gradient checks", validation, "numerical_grad_f_squared",
         lambda f: lambda q, x: f(q, x) + 1.0, ": analytic vs numerical gradient"),
        ("gradient checks", minmax, "gradient_search",
         lambda f: lambda w, config: f(w, config)._replace(values=(1e3,)),
         ": search trace value 1000.00000000 exceeds s_Q = "),
        ("gradient checks", minmax, "gradient_search",
         lambda f: lambda w, config: f(w, config)._replace(best_value=-1.0),
         ": best_vector inconsistent with best_value"),
    ], ids=["fixture", "incidence", "oriented-incidence", "line-graph", "gradient",
            "trace-above-s_Q", "best-vector"])
    def test_validate_check_failure_exits_1(self, capsys, monkeypatch, title, module, name,
                                            broken, failure):
        # an empty corpus leaves the sandwich nothing to flag
        monkeypatch.setattr(validation, "standard_corpus", lambda: ())
        monkeypatch.setattr(module, name, broken(getattr(module, name)))
        assert main(["validate"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("graphs checked: 0\n")
        assert "unexcluded violations: 0\n" in out
        for other in {"equality fixtures", "matrix identities", "gradient checks"} - {title}:
            assert f"\n{other}: OK\n" in out
        found = re.search(rf"\n{title}: (\d+) failures\n((?:  FAIL .*\n)+)", out)
        fails = found[2].splitlines()
        assert int(found[1]) == len(fails)
        assert failure in fails[0]
        assert out.endswith("result: FAIL\n")

    def test_cli_byte_determinism(self, capsys):
        args = ["table", "rand:n=10,m=20,seed=7", "--bounds", "all", "--format", "csv"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["spectrum", "cycle:4", "--iters", "0"], "--iters"),
            (["invariants", "cycle:5", "--step", "-1"], "--step"),
            (["validate", "--format", "csv"], "--format"),
            (["trace", "cycle:5", "--oracle-limit", "3"], "--oracle-limit"),
            # a rand: spec carries its own seed; no subcommand has a second way in
            *[([command, "rand:n=6,m=8,seed=3", "--seed", "3"], "--seed")
              for command in ("table", "trace", "spectrum", "invariants")],
        ],
    )
    def test_flags_the_subcommand_does_not_read_are_refused(self, capsys, args, flag):
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: slq {args[0]} ")
        assert f"slq {args[0]}: error: unrecognized arguments: {flag}" in captured.err


class TestLazySpectra:
    """Spectra are solved only where an entry or the violation rule reads
    them; counted by replacing the eigensolver that the extremes of the
    catalog context fall back to."""

    @pytest.fixture
    def eig_calls(self, monkeypatch):
        calls = []

        def counting(w):
            calls.append(len(w))
            return eigenvalues(w)

        monkeypatch.setattr(spectra, "eigenvalues", counting)
        return calls

    def test_default_row_solves_only_q(self, eig_calls):
        g = generate_random_connected(30, 80, seed=5)
        row = build_row("g", g, DEFAULT_BOUNDS, CatalogOptions())
        assert all(o.evaluated for o in row.outcomes)
        assert eig_calls == [30]

    def test_vb_entries_refuse_before_any_spectrum(self, eig_calls):
        g = generate_random_connected(25, 40, seed=5)
        assert g.n > VB_LIMIT
        outcomes = evaluate_catalog(g, ("mu1_minus_vb", "2lambda1_minus_vb"))
        assert [o.evaluated for o in outcomes] == [False, False]
        assert all("oracle limit" in o.reason for o in outcomes)
        assert eig_calls == []


class TestGeneratorConnectivity:
    def test_default_row_of_a_large_random_graph_runs_no_search(self, monkeypatch):
        # the connectivity hypotheses read the count the generator primed
        calls = []
        search = Graph.__dict__["_two_coloring"].func
        monkeypatch.setattr(Graph, "_two_coloring",
                            property(lambda g: calls.append(g) or search(g)))
        spec = "rand:n=500,m=2000,seed=3"
        assert parse_graph_spec(spec)[1].n > spectra.DENSE_LIMIT
        text, code = run_table(RunConfig(sources=(spec,), fmt="csv"))
        assert code == 0 and calls == []
        row = parse_table_csv(text)[0]
        assert row["liu_delta"] == row["Delta"] + 1 - row["delta"]


class TestOneSignlessLaplacian:
    """GraphData holds one Q for s_Q and the sphere bounds; counted by
    replacing the dense assemblers."""

    @pytest.fixture
    def assembled(self, monkeypatch):
        calls = []
        for name in ASSEMBLERS:
            def counting(*args, _real=getattr(spectra, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(spectra, name, counting)
        return calls

    def test_large_row_builds_no_dense_matrix(self, assembled):
        g = generate_random_connected(600, 6000, seed=2)
        assert g.n > spectra.DENSE_LIMIT
        options = CatalogOptions()
        row = build_row("g", g, DEFAULT_BOUNDS + ("one_step",), options)
        assert assembled == []
        q = spectra.signless_laplacian_matrix(g)
        deg = g.degrees.astype(float)
        want = {
            "eta": gradient_search(q, options.search).best_value,
            "Z2": bound_from_vector(q, deg**-3),
            "one_step": gradient_search(
                q, SearchConfig(iterations=1, step=options.search.step)).first_step_value,
        }
        got = {o.name: o.value for o in row.outcomes if o.name in want}
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_small_graph_assembles_q_once(self, assembled):
        g = generate_random_connected(30, 80, seed=5)
        data = GraphData(g)
        outcomes = evaluate_catalog(data, ("Z2", "eta", "one_step"))
        assert all(o.evaluated for o in outcomes) and data.s_q > 0
        assert assembled == ["adjacency_matrix"]


def test_impossible_path_is_refused_under_a_memory_cap():
    # a child under a 2 GB address-space cap: path:99999999999 asks for one
    # 745 GiB index array, refused at once; never run it without the cap
    cap = 2_000_000 * 1024
    src = os.path.dirname(os.path.dirname(slq.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "slq.cli", "table", "path:99999999999"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: out of memory: ") and done.stderr.count("\n") == 1
    assert "Unable to allocate" in done.stderr
    assert "Traceback" not in done.stderr and "MemoryError" not in done.stderr
