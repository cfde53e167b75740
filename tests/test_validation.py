"""Corpus construction, the sandwich classification, and the validation suite.

The expected violation set is frozen cell by cell: the unsound printed
forms overshoot exactly on the K_2 and K_3 isomorphs (all three suspect
entries), the P_3 isomorphs (the degree-pair form and its alias), and the
one corpus graph with an isolated vertex.  Anything else is a bug.
"""

import numpy as np
import pytest

from slq import CatalogOptions, GraphData, build_graph, generate_named, is_bipartite, is_connected
from slq.rng import SplitMix64
from slq import validation
from slq.validation import (
    CellViolation,
    ValidationReport,
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
            assert is_connected(g)
            if g.n <= 20:
                assert g.m <= g.n + 5

    def test_small_connected_sample(self):
        sample = small_connected_sample(count=60, seed=123)
        assert len(sample) == 60
        for label, g in sample:
            assert 3 <= g.n <= 8
            assert is_connected(g)

    def test_random_connected_bipartite(self):
        for seed in range(6):
            g = random_connected_bipartite(9, seed)
            assert is_connected(g)
            assert is_bipartite(g)[0]
        assert random_connected_bipartite(9, 2) == random_connected_bipartite(9, 2)

    def test_random_unit_vector(self):
        rng = SplitMix64(5)
        v = random_unit_vector(6, rng)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        rng2 = SplitMix64(5)
        assert np.array_equal(v, random_unit_vector(6, rng2))


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

    def test_oracle_limit_cells_count_inapplicable(self):
        # odd cycle: the bipartite fast path cannot answer vb, so the size
        # limit actually bites and the three vb entries become inapplicable
        mini = [("cycle:5", generate_named("cycle", 5))]
        rep = check_sandwich(mini, options=CatalogOptions(vb_limit=3))
        assert rep.failures == []
        assert rep.inapplicable_cells >= 3


class TestOtherChecks:
    def test_equality_fixtures_all_hold(self):
        rep = check_equality_fixtures()
        assert rep.fixture_failures == []

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
            CellViolation("g", "e", "lower", "s_Q", 2.0, 1.0)
        )
        assert not rep.ok
