"""Tests of the benchmark's own code: self-time arithmetic, the traced
wrappers and their removal, and that every correctness check rejects a
perturbed value.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from slq import bounds, combinatorics, graphs, report, spectra, validation  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(layer, start, end, parent=-1):
    return tracing.Span(layer, "f", start, end, parent, None)


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("bench", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 2.0, 5.0, parent=0),  # overlaps a: [1, 5] covered once
        span("c", 8.0, 12.0, parent=0),  # clipped to the parent's end
        span("d", 1.5, 2.5, parent=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_layer_self_times_of_nested_spans_add_up_to_the_root():
    spans = [
        span("bench", 0.0, 10.0),
        span("x", 1.0, 6.0, parent=0),
        span("y", 2.0, 3.0, parent=1),
        span("x", 3.5, 4.0, parent=1),
        span("y", 7.0, 9.0, parent=0),
    ]
    totals = tracing.layer_self_times(spans)
    assert totals == pytest.approx({"bench": 3.0, "x": 4.0, "y": 3.0})
    assert sum(totals.values()) == pytest.approx(10.0)


def fake_pass(call_s, spans=None):
    p = run.Pass()
    p.op_ms = [t * 1e3 for t in call_s]
    p.spans = spans
    p.counts = {}
    return p


def test_per_layer_adds_up_and_pairs_the_overhead():
    rows = [span("bench", 0.0, 2.0), span("x", 0.5, 1.5, parent=0), span("bench", 3.0, 4.0)]
    untraced = [fake_pass([0.5, 0.5]), fake_pass([1.0, 1.0]), fake_pass([2.0, 1.0])]
    traced = [fake_pass([2.0, 1.0], rows), fake_pass([1.5, 1.0], rows), fake_pass([2.0, 1.5], rows)]
    metrics, notes, _ = run.per_layer(untraced, traced)
    assert metrics["trace.pass_s"][0] == pytest.approx(3.0)
    assert notes["self_sum_s"] == pytest.approx(3.0)
    assert metrics["trace.unattributed_s"][0] == pytest.approx(2.0)
    assert metrics["spectra.eig_calls"][0] == 0
    # the pairs differ by 2.0, 0.5 and 0.5; the medians by 3.0 - 2.0 = 1.0
    assert metrics["trace.overhead_s"][0] == pytest.approx(0.5)


def test_scale_divides_by_the_mean_kernel_time():
    nominal = reference.REF_NOMINAL_S
    assert reference.scale([1.0, 3.0], [nominal, 3 * nominal]) == pytest.approx([0.5, 1.5])
    assert reference.Reference().run() > 0


# ---------------------------------------------------------------------------
# wrappers


def slq_bindings():
    return {
        (mod.__name__, attr): value
        for mod in tracing._slq_modules()
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_wrappers_rebind_every_importing_module_and_restore_them():
    before = slq_bindings()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert spectra.eigenvalues is not before[("slq.spectra", "eigenvalues")]
        assert bounds.eigenvalues is spectra.eigenvalues
        assert validation.eigenvalues is spectra.eigenvalues
        assert validation.check_sandwich is not before[("slq.validation", "check_sandwich")]
        with tracer.span("row", gid=7):
            outcomes = bounds.evaluate_catalog(graphs.generate_named("cycle", 5))
    after = slq_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    spans, counts = tracer.take()
    layers = {s.layer for s in spans}
    assert {"bench", "graphs.build", "bounds.catalog", "spectra.eig",
            "spectra.assemble", "combinatorics.vb", "minmax.search"} <= layers
    assert all(s.gid == 7 for s in spans)
    eig = [s for s in spans if s.layer == "spectra.eig"]
    assert all(spans[s.parent].layer == "bounds.catalog" for s in eig)
    assert counts["spectra.eig:eigenvalues"] == len(eig) == 2  # mu and lambda
    assert counts["spectra.eig_work_n3"] == 2 * 5**3
    evaluated = sum(o.evaluated for o in outcomes)
    assert counts["bounds.cells_evaluated"] == evaluated
    assert counts["bounds.cells_inapplicable"] == len(outcomes) - evaluated


def test_wrappers_are_restored_after_an_error_and_count_refusals():
    before = slq_bindings()
    tracer = tracing.Tracer()
    with pytest.raises(combinatorics.OracleLimitError):
        with tracing.installed(tracer):
            combinatorics.vertex_bipartiteness(graphs.generate_named("cycle", 7), limit=5)
    after = slq_bindings()
    assert all(after[k] is before[k] for k in before)
    _, counts = tracer.take()
    assert counts["combinatorics.refused"] == 1
    assert counts["combinatorics.vb:vertex_bipartiteness"] == 1


# ---------------------------------------------------------------------------
# correctness checks


def test_validate_report_check_rejects_perturbed_counts():
    good = SimpleNamespace(ok=True, graphs_checked=3, cells_checked=50, inapplicable_cells=22)
    assert checks.check_validate_report(good, 3, 24) == []
    for change in ({"ok": False}, {"graphs_checked": 2}, {"cells_checked": 49}):
        bad = SimpleNamespace(**{**vars(good), **change})
        assert checks.check_validate_report(bad, 3, 24)


def test_validate_default_seed_reproduces_the_standard_corpus():
    corpus = workloads.Validate(workloads.DEFAULT_SEED).corpus
    assert [(label, g) for label, g in corpus] == list(validation.standard_corpus())


@pytest.fixture(scope="module")
def table_case():
    spec = "rand:n=40,m=200,seed=5"
    _, g = report.parse_graph_spec(spec)
    text, code = report.run_table(report.RunConfig(sources=(spec,), fmt="csv"))
    return g, text, code


def test_reference_spread_matches_the_package():
    g = graphs.generate_named("complete_bipartite", (3, 5))
    assert checks.reference_spread(g.n, g.edges) == pytest.approx(spectra.spread_report(g).s_q)


def test_table_check_accepts_the_output_and_rejects_perturbations(table_case):
    g, text, code = table_case
    s_q = checks.reference_spread(g.n, g.edges)
    assert checks.check_table_row((text, code), g.n, g.m, s_q) == []
    assert checks.check_table_row((text, 1), g.n, g.m, s_q)
    assert checks.check_table_row((text, code), g.n, g.m, s_q * (1 + 1e-8))
    assert checks.check_table_row((text, code), g.n, g.m + 1, s_q)
    header, row = text.splitlines()
    assert checks.check_table_row((header + "\n", code), g.n, g.m, s_q)


@pytest.mark.parametrize(
    "spec,kind,params",
    [("complete:7", "complete", 7), ("cycle:9", "cycle", 9),
     ("cycle:8", "cycle", 8), ("kbip:3,5", "kbip", (3, 5))],
)
def test_closed_forms_match_the_oracles(spec, kind, params):
    _, g = report.parse_graph_spec(spec)
    text = report.run_invariants(spec, report.RunConfig(sources=(spec,)))
    expected = checks.closed_form_oracle_values(kind, params)
    assert checks.check_invariants(text, g.n, g.edges, expected) == []


def perturb(text, key, delta):
    lines = []
    for line in text.splitlines():
        name, _, value = line.partition(" = ")
        lines.append(f"{name} = {int(value) + delta}" if name == key else line)
    return "\n".join(lines) + "\n"


def test_invariants_check_rejects_perturbed_values():
    spec = "rand:n=12,m=30,seed=3"
    _, g = report.parse_graph_spec(spec)
    text = report.run_invariants(spec, report.RunConfig(sources=(spec,)))
    fields = checks.parse_invariants(text)
    exact = tuple(int(fields[k]) for k in ("alpha", "vertex_bipartiteness", "edge_bipartiteness"))
    assert checks.check_invariants(text, g.n, g.edges, exact) == []
    assert checks.check_invariants(text, g.n, g.edges) == []
    for key in ("alpha", "vertex_bipartiteness", "edge_bipartiteness"):
        for delta in (-1, 1):
            assert checks.check_invariants(perturb(text, key, delta), g.n, g.edges, exact)
    # without recorded values the greedy bounds still catch large errors
    assert checks.check_invariants(perturb(text, "alpha", -int(fields["alpha"]) + 1), g.n, g.edges)
    assert checks.check_invariants(perturb(text, "edge_bipartiteness", g.m), g.n, g.edges)
    assert checks.check_invariants(perturb(text, "vertex_bipartiteness", g.n), g.n, g.edges)
    assert checks.check_invariants(perturb(text, "n", 1), g.n, g.edges)


def test_vb_zero_is_checked_against_bipartiteness():
    spec = "cycle:7"
    _, g = report.parse_graph_spec(spec)
    text = report.run_invariants(spec, report.RunConfig(sources=(spec,)))
    assert checks.check_invariants(perturb(text, "vertex_bipartiteness", -1), g.n, g.edges)


def test_oracle_small_seed_only_orders_the_members():
    one = workloads.OracleSmall(1).members
    two = workloads.OracleSmall(2).members
    assert one != two
    assert sorted(one) == sorted(two)
    assert {m[0] for m in one} == set(workloads.OracleSmall.NAMED) | set(
        checks.RECORDED_ORACLE_VALUES
    )
