"""Corpus construction, the violation rule, and the validation suite.

The expected violation set is frozen cell by cell: the unsound printed
forms overshoot exactly on the K_2 and K_3 isomorphs (all three suspect
entries), the P_3 isomorphs (the degree-pair form and its alias), and the
one corpus graph with an isolated vertex.  Anything else is a bug.
"""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from test_graphs import assert_connected_by_search, float_root_random_connected

from slq import (
    CatalogOptions,
    CatalogOutcome,
    GraphData,
    build_graph,
    evaluate_catalog,
    generate_named,
    is_bipartite,
)
from slq.report import build_row, parse_graph_spec, resolve_bounds
from slq.rng import SplitMix64
from slq import validation
from slq.validation import (
    SANDWICH_TOL,
    CellViolation,
    ValidationReport,
    cell_violations,
    check_equality_fixtures,
    check_gradients,
    check_identities,
    check_sandwich,
    named_corpus,
    printed_form_excluded,
    random_connected_bipartite,
    random_corpus,
    random_unit_vector,
    small_connected_sample,
    standard_corpus,
)

# every (graph label, entry) cell where a printed form overshoots on the
# standard corpus; all lie in the documented unsound classes
EXPECTED_OVERSHOOT_CELLS = {
    ("complete:2", "L1"), ("complete:2", "meg2"), ("complete:2", "regular_sqrt"),
    ("kbip:1,1", "L1"), ("kbip:1,1", "meg2"), ("kbip:1,1", "regular_sqrt"),
    ("path:2", "L1"), ("path:2", "meg2"), ("path:2", "regular_sqrt"),
    ("star:1", "L1"), ("star:1", "meg2"), ("star:1", "regular_sqrt"),
    ("complete:3", "L1"), ("complete:3", "meg2"), ("complete:3", "regular_sqrt"),
    ("cycle:3", "L1"), ("cycle:3", "meg2"), ("cycle:3", "regular_sqrt"),
    ("kbip:1,2", "L1"), ("kbip:1,2", "meg2"),
    ("path:3", "L1"), ("path:3", "meg2"),
    ("star:2", "L1"), ("star:2", "meg2"),
    ("kn1uk1:3", "L1"), ("kn1uk1:3", "meg2"),
}


class TestCorpora:
    def test_standard_corpus_size_and_uniqueness(self, corpus):
        labels = [label for label, _ in corpus]
        assert len(corpus) >= 500
        assert len(set(labels)) == len(labels)

    def test_standard_corpus_composition(self, corpus):
        named = [label for label, _ in corpus if not label.startswith("rand:")]
        rand = [label for label, _ in corpus if label.startswith("rand:")]
        assert len(named) == len(named_corpus(12))
        assert len(rand) == 420

    def test_named_corpus_family_spans(self):
        labels = {label for label, _ in named_corpus(12)}
        assert {"path:2", "path:12", "cycle:3", "complete:12", "star:11",
                "kbip:6,6", "kbip:1,11", "kn1uk1:3", "kn1uk1:12"} <= labels
        for label, g in named_corpus(12):
            assert g.n <= 12

    def test_random_corpus_is_deterministic_and_sparse_when_small(self):
        a = random_corpus(count=40)
        b = random_corpus(count=40)
        assert [label for label, _ in a] == [label for label, _ in b]
        for label, g in a:
            assert 5 <= g.n <= 60
            assert_connected_by_search(g)
            if g.n <= 20:
                assert g.m <= g.n + 5

    def test_small_connected_sample(self):
        sample = small_connected_sample(count=60, seed=123)
        assert len(sample) == 60
        for label, g in sample:
            assert 3 <= g.n <= 8
            assert_connected_by_search(g)

    def test_random_connected_bipartite(self):
        for seed in range(6):
            g = random_connected_bipartite(9, seed)
            assert_connected_by_search(g)
            assert is_bipartite(g)[0]
        assert random_connected_bipartite(9, 2) == random_connected_bipartite(9, 2)

    def test_random_unit_vector(self):
        rng = SplitMix64(5)
        v = random_unit_vector(6, rng)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        rng2 = SplitMix64(5)
        assert np.array_equal(v, random_unit_vector(6, rng2))


def reference_random_graphs(count, seed, small_corpus):
    """The one-graph-at-a-time corpus loop, kept as the reference: the
    labels and the edge arrays of the float-root sampler."""
    master = SplitMix64(seed)
    out = []
    for _ in range(count):
        if small_corpus:
            n = 3 + master.below(6)
            m = (n - 1) + master.below(n * (n - 1) // 2 - (n - 1) + 1)
        else:
            n = 5 + master.below(56)
            cap = min(n * (n - 1) // 2, n + 5 if n <= 20 else 3 * n)
            m = (n - 1) + master.below(cap - (n - 1) + 1)
        gseed = master.next_uint64()
        out.append((f"rand:n={n},m={m},seed={gseed}", float_root_random_connected(n, m, gseed)))
    return out


class TestBatchedCorpora:
    @pytest.mark.parametrize("seed", [20240817, 1, 2])
    def test_random_corpus_matches_the_reference(self, seed):
        got = random_corpus(seed=seed)
        want = reference_random_graphs(420, seed, small_corpus=False)
        assert [label for label, _ in got] == [label for label, _ in want]
        for (label, g), (_, edges) in zip(got, want):
            assert np.array_equal(g.edge_array, edges), label

    def test_small_connected_sample_matches_the_reference(self):
        got = small_connected_sample()
        want = reference_random_graphs(200, 77001, small_corpus=True)
        assert [label for label, _ in got] == [label for label, _ in want]
        for (label, g), (_, edges) in zip(got, want):
            assert np.array_equal(g.edge_array, edges), label

    def test_standard_corpus_is_pinned(self, corpus):
        # recorded from the one-graph-at-a-time generator
        digest = hashlib.sha256()
        for label, g in corpus:
            digest.update(label.encode())
            digest.update(g.edge_array.astype("<i8").tobytes())
        assert digest.hexdigest() == (
            "0c274707cc876434fd11b8182d76d00333751a0991ade7fdc46096b8ea702b48"
        )

    def test_random_corpus_memory_peak(self):
        # The one-graph-at-a-time generator peaked at 0.78 MB on a first
        # call (0.75 MB after), 0.73 MB of it the corpus it returns.  The
        # bound is that peak plus a tenth, room for the transients of one
        # batch; all 420 graphs in one batch peak at 1.7 MB.
        random_corpus()
        tracemalloc.start()
        try:
            random_corpus()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 860_000

    def test_bipartite_batch_matches_one_at_a_time(self):
        specs = [(4 + SplitMix64(990000 + i).below(13), 990100 + i) for i in range(20)]
        graphs = validation.random_connected_bipartites(specs)
        assert graphs == [random_connected_bipartite(n, seed) for n, seed in specs]


class TestExclusionPredicate:
    def test_suspects_on_regular_graphs(self):
        # the README classes: K_2 and K_3 for all three names, no larger
        # regular graph for any of them
        for spec in (("complete", 2), ("complete", 3)):
            data = GraphData(generate_named(*spec))
            for name in ("meg2", "L1", "regular_sqrt"):
                assert printed_form_excluded(name, data)
        for spec in (("complete", 4), ("cycle", 6)):
            data = GraphData(generate_named(*spec))
            for name in ("meg2", "L1", "regular_sqrt"):
                assert not printed_form_excluded(name, data)

    def test_pair_form_on_path3_shape(self):
        p3 = GraphData(generate_named("path", 3))
        assert printed_form_excluded("meg2", p3)
        assert printed_form_excluded("L1", p3)
        assert not printed_form_excluded("regular_sqrt", p3)

    def test_pair_form_on_isolated_vertex(self):
        g = GraphData(generate_named("kn1uk1", 5))
        assert printed_form_excluded("meg2", g)

    def test_pair_form_on_disconnected(self):
        g = GraphData(build_graph(5, [(0, 1), (1, 2), (3, 4)]))
        assert printed_form_excluded("meg2", g)

    def test_sound_entries_never_excluded(self):
        p3 = GraphData(generate_named("path", 3))
        for name in ("eta", "mirsky_q", "liu_2.3", "Ncon"):
            assert not printed_form_excluded(name, p3)

    def test_ordinary_connected_graph_not_excluded(self):
        p4 = GraphData(generate_named("path", 4))
        assert not printed_form_excluded("meg2", p4)
        assert not printed_form_excluded("L1", p4)


class TestSandwich:
    def test_raw_violations_are_exactly_the_frozen_cells(self, sandwich_raw):
        got = {(v.graph_label, v.entry) for v in sandwich_raw.failures}
        assert got == EXPECTED_OVERSHOOT_CELLS
        assert not sandwich_raw.logged  # exclude=None sends everything to failures

    def test_production_predicate_excludes_every_raw_violation(self, sandwich_raw, corpus_map):
        unexcluded = [
            v
            for v in sandwich_raw.failures
            if not printed_form_excluded(v.entry, GraphData(corpus_map[v.graph_label]))
        ]
        assert unexcluded == []

    def test_cell_accounting(self, sandwich_raw, corpus):
        assert sandwich_raw.graphs_checked == len(corpus)
        assert (
            sandwich_raw.cells_checked + sandwich_raw.inapplicable_cells
            == 24 * len(corpus)
        )

    def test_violations_carry_references(self, sandwich_raw):
        by_cell = {(v.graph_label, v.entry): v for v in sandwich_raw.failures}
        v = by_cell[("path:3", "meg2")]
        assert v.value == pytest.approx(np.sqrt(11.0), abs=1e-9)
        assert v.reference == pytest.approx(3.0, abs=1e-9)
        assert v.direction == "lower" and v.target == "s_Q"
        assert str(v) == "path:3: meg2 = 3.316625 > s_Q = 3.000000"

    def test_production_run_logs_instead_of_failing(self):
        mini = [
            ("path:3", generate_named("path", 3)),
            ("path:6", generate_named("path", 6)),
            ("complete:3", generate_named("complete", 3)),
        ]
        rep = check_sandwich(mini)
        assert rep.failures == []
        logged = {(v.graph_label, v.entry) for v in rep.logged}
        assert logged == {
            ("path:3", "meg2"), ("path:3", "L1"),
            ("complete:3", "meg2"), ("complete:3", "L1"),
            ("complete:3", "regular_sqrt"),
        }
        assert all(v.excluded for v in rep.logged)

    def test_oracle_limit_cells_count_inapplicable(self):
        # odd cycle: the bipartite fast path cannot answer vb, so the size
        # limit actually bites and the three vb entries become inapplicable
        mini = [("cycle:5", generate_named("cycle", 5))]
        rep = check_sandwich(mini, options=CatalogOptions(oracle_limit=3))
        assert rep.failures == []
        assert rep.inapplicable_cells >= 3


def exact_rule(outcome, data, exclude):
    """The violation rule with every cell decided against the spread it
    targets: None, or the (reference, excluded) pair that cell_violations
    must record."""
    if not outcome.evaluated:
        return None
    ref = data.s_q if outcome.target == "s_Q" else data.s_l
    if outcome.direction == "lower":
        bad = outcome.value > ref + SANDWICH_TOL
    else:
        bad = outcome.value < ref - SANDWICH_TOL
    if not bad:
        return None
    return ref, exclude is not None and exclude(outcome.name, data)


def exact_records(label, data, outcomes, exclude):
    """exact_rule's verdicts as the records cell_violations must return."""
    return [
        CellViolation(label, o.name, o.direction, o.target, o.value, *want)
        for o in outcomes
        if (want := exact_rule(o, data, exclude)) is not None
    ]


# every golden table with --bounds all: (specs, oracle limit)
GOLDEN_ALL_TABLES = (
    ("path:10 cycle:9 star:6 rand:n=40,m=634,seed=1 rand:n=40,m=322,seed=1"
     " kn1uk1:6 kbip:3,4 complete:3 path:3", None),
    ("rand:n=30,m=100,seed=3", 10),
    ("rand:n=500,m=5000,seed=1 rand:n=800,m=32000,seed=4", None),
)

DISCONNECTED = (
    ("2K2", build_graph(4, [(0, 1), (2, 3)])),
    ("P3+K2", build_graph(5, [(0, 1), (1, 2), (3, 4)])),
    ("K2+K1", build_graph(3, [(0, 1)], allow_isolated=True)),
    ("C5+K1", build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], allow_isolated=True)),
)


class TestSlCellsOnTheTopOfQ:
    """cell_violations passes an upper bound on s_L at or above the top of
    q_1's enclosure without the Laplacian spectrum."""

    def test_mu1_is_below_the_top_of_q(self, corpus):
        checked = set()
        for label, g in tuple(corpus) + DISCONNECTED:
            data = GraphData(g)
            assert data.s_l <= data.mu1 <= data.q_extremes.top_enclosure[1], label
            if not data.connected:
                checked.add("isolated" if data.profile.delta == 0 else "disconnected")
        assert checked == {"isolated", "disconnected"}

    def test_verdicts_equal_the_exact_rule_on_the_corpus(self, corpus):
        for label, g in tuple(corpus) + DISCONNECTED:
            data = GraphData(g)
            outcomes = evaluate_catalog(data)
            got = cell_violations(label, data, outcomes, printed_form_excluded)
            assert got == exact_records(label, data, outcomes, printed_form_excluded), label

    @pytest.mark.parametrize("specs, limit", GOLDEN_ALL_TABLES,
                             ids=["table_all", "table_oracle_limit", "table_lanczos"])
    def test_verdicts_equal_the_exact_rule_on_the_golden_tables(self, specs, limit):
        options = CatalogOptions(oracle_limit=limit)
        columns = resolve_bounds("all")
        for spec in specs.split():
            label, g = parse_graph_spec(spec)
            row = build_row(label, g, columns, options)
            data = GraphData(g, options)
            by_name = {o.name: o for o in evaluate_catalog(data)}
            outcomes = [by_name[c] for c in columns]
            got = cell_violations(label, data, outcomes, printed_form_excluded)
            assert got == exact_records(label, data, outcomes, printed_form_excluded), label
            # the table's violations column reads the records validate reads
            assert row.violations == tuple(got), label

    def test_cleared_cells_solve_no_laplacian(self, corpus):
        cleared = needed = 0
        for label, g in corpus:
            data = GraphData(g)
            (outcome,) = evaluate_catalog(data, ("das_laplacian",))
            if not outcome.evaluated:
                continue
            got = cell_violations(label, data, [outcome], None)
            if outcome.value >= data.q_extremes.top_enclosure[1]:
                assert got == [] and "mu_extremes" not in data.__dict__, label
                cleared += 1
            else:
                assert "mu_extremes" in data.__dict__, label
                assert got == exact_records(label, data, [outcome], None), label
                needed += 1
        assert (cleared, needed) == (441, 51)

    def test_a_violation_below_the_laplacian_spread_is_still_flagged(self, corpus):
        # the shortcut clears upper bounds only: the catalog has no lower
        # bound on s_L, and one above the top of q_1 overshoots s_L <= q_1
        for label, g in tuple(corpus[::10]) + DISCONNECTED:
            data = GraphData(g)
            top = data.q_extremes.top_enclosure[1]
            for direction, value, flagged in (("upper", data.s_l - 2 * SANDWICH_TOL, True),
                                              ("upper", data.s_l - 0.5 * SANDWICH_TOL, False),
                                              ("upper", top, False),
                                              ("lower", top + 2 * SANDWICH_TOL, True)):
                outcome = CatalogOutcome("das_laplacian", direction, "s_L", value)
                got = cell_violations(label, data, [outcome], printed_form_excluded)
                assert got == exact_records(label, data, [outcome], printed_form_excluded), label
                assert bool(got) == flagged, label
                if flagged:
                    assert (got[0].reference, got[0].excluded) == (data.s_l, False)


class TestOtherChecks:
    def test_equality_fixtures_all_hold(self):
        rep = check_equality_fixtures()
        assert rep.fixture_failures == []

    def test_equality_fixtures_solve_each_graph_once(self, monkeypatch):
        made = []

        def recording(g, options=None):
            made.append(g)
            return GraphData(g, options)

        monkeypatch.setattr(validation, "GraphData", recording)
        assert check_equality_fixtures().fixture_failures == []
        # path:2..30, four s_Q = 4 graphs, kn1uk1:5..12, kbip:k,k for k
        # 1..8, 20 random bipartite graphs, then complete:2..9 and the odd
        # cycles 3..15; the path:2..15 and complete:4 met again are reused
        assert len(made) == 29 + 4 + 8 + 8 + 20 + 7 + 7

    def test_identities_all_hold(self):
        rep = check_identities()
        assert rep.identity_failures == []

    def test_gradients_all_hold(self):
        rep = check_gradients()
        assert rep.gradient_failures == []

    def test_validate_all_small_corpus(self):
        mini = [
            ("path:5", generate_named("path", 5)),
            ("cycle:6", generate_named("cycle", 6)),
            ("star:4", generate_named("star", 4)),
        ]
        rep = validation.validate_all(corpus=mini)
        assert rep.ok
        assert rep.graphs_checked == 3
        assert rep.failures == [] and rep.logged == []

    def test_report_ok_flag(self):
        rep = ValidationReport()
        assert rep.ok
        rep.failures.append(
            CellViolation("g", "e", "lower", "s_Q", 2.0, 1.0, excluded=False)
        )
        assert not rep.ok
