"""Exact combinatorial oracles against independent enumerating references."""

import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slq import (
    OracleLimitError,
    build_graph,
    edge_bipartiteness,
    generate_named,
    generate_random_connected,
    independence_number,
    is_bipartite,
    max_cut,
    vertex_bipartiteness,
)
from slq import combinatorics
from slq.bounds import GraphData, evaluate_catalog
from slq.combinatorics import (
    EB_LIMIT,
    OracleRecord,
    _adjacency_masks,
    _max_independent_set,
    _max_cut,
    _prism_independent_set,
)
from slq.cli import main
from slq.report import parse_graph_spec
from slq.validation import small_connected_sample, standard_corpus

small_specs = st.integers(2, 9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(n - 1, n * (n - 1) // 2),
        st.integers(0, 2**32),
    )
)


def naive_alpha(g) -> int:
    """Oracle: largest subset with no internal edge, by full enumeration."""
    best = 0
    for r in range(g.n, 0, -1):
        for subset in combinations(range(g.n), r):
            chosen = set(subset)
            if all(not (u in chosen and v in chosen) for u, v in g.edges):
                return r
    return best


def naive_vb(g) -> int:
    """Oracle: fewest vertex deletions leaving a bipartite graph."""
    for r in range(g.n + 1):
        for removed in combinations(range(g.n), r):
            gone = set(removed)
            keep = [v for v in range(g.n) if v not in gone]
            relabel = {v: i for i, v in enumerate(keep)}
            edges = [
                (relabel[u], relabel[v])
                for u, v in g.edges
                if u not in gone and v not in gone
            ]
            sub = build_graph(len(keep) or 1, edges, allow_isolated=True)
            if is_bipartite(sub)[0]:
                return r
    raise AssertionError("empty graph is bipartite")


def naive_max_cut(g) -> int:
    """Oracle: best bipartition cut size over all 2^n sign patterns."""
    best = 0
    for mask in range(1 << g.n):
        cut = sum(1 for u, v in g.edges if ((mask >> u) ^ (mask >> v)) & 1)
        best = max(best, cut)
    return best


def _masks(g):
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _bipartite_after_removal(adj, n: int, removed: int) -> bool:
    color = [-1] * n
    for start in range(n):
        if removed >> start & 1 or color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            nxt = adj[u] & ~removed
            while nxt:
                b = nxt & -nxt
                v = b.bit_length() - 1
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
                nxt ^= b
    return True


def enumerated_vb(g) -> int:
    """Oracle: deletion sets on bitmasks in order of size; the first one
    that leaves a bipartite graph is optimal."""
    adj = _masks(g)
    for k in range(g.n + 1):
        for subset in combinations(range(g.n), k):
            if _bipartite_after_removal(adj, g.n, sum(1 << v for v in subset)):
                return k
    raise AssertionError("empty graph is bipartite")


def natural_order_alpha(nv: int, adj) -> int:
    """Oracle: the clique branch and bound on the masks as given, with no
    relabelling (the solver before the degree order)."""
    best = 0

    def expand(cand: int, size: int):
        nonlocal best
        order = []
        left = cand
        k = 0
        while left:
            k += 1
            clique = left
            while clique:
                b = clique & -clique
                v = b.bit_length() - 1
                left ^= b
                clique &= adj[v]
                order.append((v, k))
        for v, k in reversed(order):
            if size + k <= best:
                return
            b = 1 << v
            rest = cand & ~(adj[v] | b)
            if rest:
                expand(rest, size + 1)
            elif size + 1 > best:
                best = size + 1
            cand ^= b

    expand((1 << nv) - 1, 0)
    return best


def natural_order_vb(g) -> int:
    """Oracle: n - alpha(G □ K2) in natural vertex order, the copies of v
    at v and v + n."""
    n = g.n
    adj = _masks(g)
    doubled = [a | 1 << (v + n) for v, a in enumerate(adj)]
    doubled += [a << n | 1 << v for v, a in enumerate(adj)]
    return n - natural_order_alpha(2 * n, doubled)


class SearchTooLarge(Exception):
    """The branch and bound made more calls than a test allows."""


def under_expand_cap(fn, cap: int):
    """fn(), counting its calls to the nested search function ``expand``;
    raises SearchTooLarge once the count passes cap."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "expand":
            calls += 1
            if calls > cap:
                raise SearchTooLarge(f"more than {cap} expand calls")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        value = fn()
    finally:
        sys.setprofile(previous)
    return value


def relabelled(g, seed: int):
    """g with its vertices renamed by a seeded random permutation."""
    perm = np.random.default_rng(seed).permutation(g.n)
    return build_graph(g.n, perm[g.edge_array], allow_isolated=True)


def per_edge_max_cut(g) -> int:
    """Oracle: every bipartition with vertex n-1 pinned to side 0, 2^18 at a
    time; each edge adds the xor of its ends' sides, one byte pass."""
    total = 1 << (g.n - 1)
    best = 0
    for start in range(0, total, 1 << 18):
        masks = np.arange(start, min(total, start + (1 << 18)), dtype=np.uint32)
        sides = [(masks >> v & 1).astype(np.uint8) for v in range(g.n - 1)]
        sides.append(np.zeros(len(masks), dtype=np.uint8))
        cut = np.zeros(len(masks), dtype=np.uint16)
        for u, v in g.edges:
            cut += sides[u] ^ sides[v]
        best = max(best, int(cut.max()))
    return best


def traced_max_cut(g):
    """max_cut(g) and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        value = max_cut(g)
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


CORPUS = standard_corpus()
SAMPLE = small_connected_sample()

# dense graphs with the n - alpha vertices that max cut tabulates: past the
# 21 of one 2^20-entry table at n = 23 and 24, so its blocks run with S
# non-empty; no graph on 22 vertices has alpha = 0, so K_22 stops at 21
DENSE_TABULATED = {
    "rand:n=22,m=231,seed=1": 21,
    "rand:n=23,m=253,seed=1": 22,
    "rand:n=24,m=256,seed=1": 22,
    "rand:n=24,m=276,seed=1": 23,
}


class TestFrozenValues:
    def test_cycle5(self):
        c5 = generate_named("cycle", 5)
        assert independence_number(c5) == 2
        assert vertex_bipartiteness(c5) == 1
        assert max_cut(c5) == 4
        assert edge_bipartiteness(c5) == 1

    def test_complete4(self):
        k4 = generate_named("complete", 4)
        assert independence_number(k4) == 1
        assert vertex_bipartiteness(k4) == 2
        assert max_cut(k4) == 4
        assert edge_bipartiteness(k4) == 2

    def test_bipartite_graphs_need_no_deletions(self):
        for g in (generate_named("path", 6), generate_named("complete_bipartite", (3, 4))):
            assert vertex_bipartiteness(g) == 0
            assert edge_bipartiteness(g) == 0

    def test_star_independence(self):
        assert independence_number(generate_named("star", 7)) == 7

    def test_petersen(self):
        g = petersen()
        assert (independence_number(g), vertex_bipartiteness(g), max_cut(g)) == (4, 3, 12)

    def test_complete20(self):
        # vb runs on the 40 vertices of K_20 □ K_2, past ALPHA_LIMIT = 30
        k20 = generate_named("complete", 20)
        assert vertex_bipartiteness(k20) == 18
        assert independence_number(k20) == 1

    def test_blocked_max_cut_closed_forms(self):
        # K_24 tabulates the 23 vertices outside S, the free ones past the
        # first 20 block by block; C_23 tabulates 12 and K_11,12 none
        assert max_cut(generate_named("complete", 24)) == 144
        assert max_cut(generate_named("cycle", 23)) == 22
        assert max_cut(generate_named("complete_bipartite", (11, 12))) == 132

    def test_max_cut_closed_forms_at_the_table_edges(self):
        # K_21 tabulates the 20 vertices outside S and C_21 the 11 outside
        # its 10; K_23 has m = 253, the top of the one-byte table
        assert max_cut(generate_named("complete", 21)) == 110
        assert max_cut(generate_named("complete", 23)) == 132
        assert max_cut(generate_named("cycle", 21)) == 20

    def test_max_cut_two_and_three_vertices(self):
        cases = (
            (generate_named("complete", 2), 1),
            (generate_named("path", 3), 2),
            (generate_named("complete", 3), 2),
        )
        for g, value in cases:
            assert max_cut(g) == value == per_edge_max_cut(g), g


class TestAgainstNaive:
    @given(small_specs)
    def test_alpha(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, m, seed)
        assert independence_number(g) == naive_alpha(g)

    @given(small_specs)
    def test_vertex_bipartiteness(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, m, seed)
        assert vertex_bipartiteness(g) == naive_vb(g)

    @given(small_specs)
    def test_max_cut(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, m, seed)
        assert max_cut(g) == naive_max_cut(g)

    def test_alpha_medium_clique_union(self):
        # two K_5 blocks joined by a bridge: alpha = 2
        edges = [(u, v) for u, v in combinations(range(5), 2)]
        edges += [(u + 5, v + 5) for u, v in combinations(range(5), 2)]
        edges.append((0, 5))
        g = build_graph(10, edges)
        assert independence_number(g) == 2 == naive_alpha(g)


class TestAgainstReferences:
    def test_vb_matches_enumerator(self):
        graphs = [g for _, g in SAMPLE] + [g for _, g in CORPUS if g.n <= 20]
        for g in graphs:
            assert vertex_bipartiteness(g) == enumerated_vb(g), g

    def test_max_cut_matches_per_edge_loop(self):
        graphs = [g for _, g in SAMPLE] + [g for _, g in CORPUS if g.n <= 20]
        for g in graphs:
            assert max_cut(g) == per_edge_max_cut(g), g

    def test_oracle_small_max_cut_matches_per_edge_loop(self):
        for spec in ORACLE_SMALL_VB:
            g = parse_graph_spec(spec)[1]
            assert max_cut(g) == per_edge_max_cut(g), spec

    def test_blocked_max_cut_matches_per_edge_loop(self):
        for spec, t in DENSE_TABULATED.items():
            g = parse_graph_spec(spec)[1]
            assert g.n - independence_number(g) == t
            assert max_cut(g) == per_edge_max_cut(g), spec

    def test_oracles_ignore_vertex_names(self):
        # the oracles relabel by degree; a renamed graph has the same values
        graphs = [g for _, g in CORPUS if g.n <= 20]
        for i, g in enumerate(graphs):
            h = relabelled(g, seed=i)
            assert (max_cut(h), vertex_bipartiteness(h), independence_number(h)) == (
                max_cut(g),
                vertex_bipartiteness(g),
                independence_number(g),
            ), g

    def test_alpha_matches_naive(self):
        for _, g in SAMPLE:
            assert independence_number(g) == naive_alpha(g), g

    def test_max_cut_memory_is_blocked(self):
        # alpha = 8 leaves 16 vertices to tabulate, and the peak is 0.1 MB;
        # all 23 free vertices took 1.6 MB in blocks of 2^20 entries, 92 MB
        # in one doubling, and the per-edge loop over 2^23 masks at once 26 MB
        _, g = parse_graph_spec("rand:n=24,m=96,seed=3")
        value, peak = traced_max_cut(g)
        assert value == 72  # the per-edge loop's value
        assert peak < 24 * 2**20

    def test_unblocked_max_cut_memory(self):
        # alpha = 7 leaves 14 vertices to tabulate; all 20 free vertices took
        # 1.6 MB, and a uint32 side mask per entry with a copy of the table
        # would pass 8 MB
        _, g = parse_graph_spec("rand:n=21,m=84,seed=3")
        value, peak = traced_max_cut(g)
        assert value == 58  # the per-edge loop's value
        assert peak < 8 * 2**20

    def test_max_cut_memory_of_a_sparse_member(self):
        # alpha = 9: 2^10 table entries, where all 19 free vertices took a
        # 2^19-byte table and a 2^18-byte count, 810 KB at the peak
        _, g = parse_graph_spec("rand:n=20,m=40,seed=6498665209168132836")
        value, peak = traced_max_cut(g)
        assert value == 32  # the per-edge loop's value
        assert peak < 64 * 2**10

    @pytest.mark.parametrize("spec", ["rand:n=22,m=231,seed=1", "rand:n=24,m=276,seed=1"])
    def test_max_cut_memory_of_the_largest_tables(self, spec):
        # 2^20 table entries, a 2^19-entry count and its spare: 2.1 MB at
        # m < 256 and 3.2 MB at m >= 256, whose entries take two bytes
        assert traced_max_cut(parse_graph_spec(spec)[1])[1] < 4 * 2**20


# the members of the oracle_small benchmark workload, with their vb
ORACLE_SMALL_VB = {
    "complete:16": 14,
    "complete:17": 15,
    "complete:18": 16,
    "cycle:19": 1,
    "kbip:8,10": 0,
    "rand:n=16,m=32,seed=8631957831668394588": 4,
    "rand:n=16,m=48,seed=7692986104271406305": 6,
    "rand:n=16,m=64,seed=2073255812448292667": 7,
    "rand:n=17,m=34,seed=2384282141814561249": 4,
    "rand:n=17,m=51,seed=1295983908386715082": 7,
    "rand:n=17,m=68,seed=2177544841222198934": 8,
    "rand:n=18,m=36,seed=393734565146676707": 5,
    "rand:n=18,m=54,seed=2957421043113230456": 7,
    "rand:n=18,m=72,seed=2111055161533036032": 8,
    "rand:n=19,m=38,seed=9012881196754619843": 3,
    "rand:n=19,m=57,seed=190637571743043143": 7,
    "rand:n=19,m=76,seed=8628841098075897184": 9,
    "rand:n=20,m=40,seed=6498665209168132836": 3,
    "rand:n=20,m=60,seed=7955836555317649619": 7,
    "rand:n=20,m=80,seed=3877864773555672700": 9,
}


def full_candidate_vb(g) -> int:
    """Oracle: n - alpha(G □ K2) searched over every vertex of G □ K2,
    both copies of the rank-0 vertex included, from no incumbent."""
    return g.n - _max_independent_set(2 * g.n, OracleRecord(g).doubled_masks)[0]


class TestSearchSize:
    """Deterministic caps on the branch and bound, counted in calls to its
    nested ``expand`` rather than timed; the counts include the two alpha
    searches behind the incumbent.  Without the degree order the sparse
    n = 60 graph runs for minutes."""

    # 838 calls
    CAP = 19_976

    def test_sparse_sixty_vertices(self):
        _, g = parse_graph_spec("rand:n=60,m=90,seed=1")
        value = under_expand_cap(lambda: vertex_bipartiteness(g, limit=60), self.CAP)
        assert value == 6

    @pytest.mark.parametrize("m, vb", [(322, 25), (634, 33)])
    def test_paper_rows(self, m, vb):
        # the searches make 2,220 calls on m = 322 and 135 on m = 634
        _, g = parse_graph_spec(f"rand:n=40,m={m},seed=1")
        cap = {322: 2_448, 634: 160}[m]
        value = under_expand_cap(lambda: vertex_bipartiteness(g, limit=40), cap)
        assert value == vb == natural_order_vb(g)

    def test_oracle_small_members(self):
        # 651 calls together
        graphs = {spec: parse_graph_spec(spec)[1] for spec in ORACLE_SMALL_VB}
        values = under_expand_cap(
            lambda: {spec: vertex_bipartiteness(g) for spec, g in graphs.items()}, 675
        )
        assert values == ORACLE_SMALL_VB

    @pytest.mark.parametrize("n", [16, 17, 18])
    def test_complete_graphs_take_two_calls(self, n):
        # alpha(K_n) and alpha(K_n - S) take one call each, and their sum
        # 2 meets the bound 2 alpha, so K_n □ K2 is not searched; a search
        # from nothing with both copies of the rank-0 vertex left in takes
        # 2n - 3 calls
        g = generate_named("complete", n)
        assert under_expand_cap(lambda: vertex_bipartiteness(g), 2) == n - 2


class TestCopySwapSymmetry:
    def test_reduced_search_equals_full_search(self):
        graphs = [g for _, g in CORPUS if g.n <= 30 and not is_bipartite(g)[0]]
        assert len(graphs) == 182
        for g in graphs:
            assert vertex_bipartiteness(g, limit=30) == full_candidate_vb(g), g

    def test_candidate_mask_restricts_the_search(self):
        # C_5 has alpha 2; without vertices 0 and 1 it is the path 2-3-4
        c5 = generate_named("cycle", 5)
        adj = _adjacency_masks(c5)
        assert _max_independent_set(5, adj)[0] == 2
        assert _max_independent_set(5, adj, 0b11100)[0] == 2
        assert _max_independent_set(5, adj, 0b01100)[0] == 1


def independent(adj, mask: int) -> bool:
    """True when no two vertices of mask are neighbours in adj."""
    return all(not (mask >> v & 1 and adj[v] & mask) for v in range(len(adj)))


def masks_from_bits(n: int, bits: int):
    """The graph on n vertices whose pair (u, v), u < v, in lexicographic
    order is an edge when the matching bit of bits is set."""
    adj = [0] * n
    for i, (u, v) in enumerate(combinations(range(n), 2)):
        if bits >> i & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


random_masks = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(0, 2 ** (n * (n - 1) // 2) - 1),
        st.permutations(range(n)),
    )
)


class TestIndependentSetSearch:
    @given(random_masks)
    def test_returned_set_is_maximum_and_independent(self, spec):
        n, bits, order = spec
        adj = masks_from_bits(n, bits)
        alpha = natural_order_alpha(n, adj)
        size, found = _max_independent_set(n, adj)
        assert independent(adj, found) and found.bit_count() == size == alpha
        # a greedy independent set, in a random order, as the incumbent
        incumbent = 0
        for v in order:
            if not adj[v] & incumbent:
                incumbent |= 1 << v
        b = incumbent.bit_count()
        size, found = _max_independent_set(n, adj, incumbent=incumbent)
        assert independent(adj, found) and found.bit_count() == size == max(b, alpha)
        if b == alpha:
            assert found == incumbent


def prism_witness_check(g, limit=None):
    """The rungs D of G □ K2 with neither copy in the returned set: |D| is
    vb and G - D is bipartite."""
    record = OracleRecord(g)
    size, found = _prism_independent_set(record)
    assert independent(record.doubled_masks, found) and found.bit_count() == size
    gone = sum(1 << r for r in range(g.n) if not found >> 2 * r & 3)
    assert gone.bit_count() == vertex_bipartiteness(g, limit=limit), g
    assert _bipartite_after_removal(record.masks, g.n, gone), g


class TestPrismWitness:
    def test_corpus_graphs(self):
        graphs = [g for _, g in CORPUS if g.n <= 20]
        assert len(graphs) > 100
        for g in graphs:
            prism_witness_check(g)

    def test_oracle_small_members(self):
        specs = [spec for spec in ORACLE_SMALL_VB if spec.startswith("rand:")]
        assert len(specs) == 15
        for spec in specs:
            prism_witness_check(parse_graph_spec(spec)[1])

    @pytest.mark.parametrize("m", [322, 634])
    def test_paper_rows(self, m):
        prism_witness_check(parse_graph_spec(f"rand:n=40,m={m},seed=1")[1], limit=40)


def max_cut_witness_check(g):
    """The bipartition that ``_max_cut`` returns, the best table entry with
    each vertex of S on its better side, cuts max_cut(g) edges, recounted
    edge by edge."""
    size, side1 = _max_cut(OracleRecord(g))
    rank = np.empty(g.n, dtype=np.int64)
    rank[np.argsort(g.degrees, kind="stable")] = np.arange(g.n)
    sides = [side1 >> r & 1 for r in rank.tolist()]
    assert sum(sides[u] != sides[v] for u, v in g.edges) == size == max_cut(g), g


class TestMaxCutWitness:
    def test_sample_and_corpus_graphs(self):
        graphs = [g for _, g in SAMPLE] + [g for _, g in CORPUS if g.n <= 20]
        graphs = [g for g in graphs if not is_bipartite(g)[0]]
        assert len(graphs) > 100
        for g in graphs:
            max_cut_witness_check(g)

    def test_oracle_small_members(self):
        specs = [spec for spec in ORACLE_SMALL_VB if spec != "kbip:8,10"]
        assert len(specs) == 19
        for spec in specs:
            max_cut_witness_check(parse_graph_spec(spec)[1])

    def test_dense_graphs(self):
        for spec in DENSE_TABULATED:
            max_cut_witness_check(parse_graph_spec(spec)[1])


class TestOracleRecord:
    def test_shared_record_equals_fresh_calls(self):
        graphs = [parse_graph_spec(spec)[1] for spec in ORACLE_SMALL_VB]
        graphs += [petersen(), generate_named("cycle", 5), generate_named("path", 1)]
        for g in graphs:
            record = OracleRecord(g)
            shared = (
                independence_number(record),
                vertex_bipartiteness(record),
                edge_bipartiteness(record),
            )
            assert shared == (
                independence_number(g),
                vertex_bipartiteness(g),
                edge_bipartiteness(g),
            ), g

    def test_limits_apply_after_the_record_is_filled(self):
        g = parse_graph_spec("rand:n=16,m=48,seed=7692986104271406305")[1]
        record = OracleRecord(g)
        assert vertex_bipartiteness(record) == 6
        assert "alpha" in vars(record)
        with pytest.raises(OracleLimitError, match="independence number: n=16 exceeds oracle limit 5"):
            independence_number(record, limit=5)
        with pytest.raises(OracleLimitError, match="vertex bipartiteness"):
            vertex_bipartiteness(record, limit=5)
        assert max_cut(record) == 48 - edge_bipartiteness(record)
        with pytest.raises(OracleLimitError, match="max cut"):
            edge_bipartiteness(record, limit=5)

    def test_invariants_search_alpha_once(self, monkeypatch, capsys):
        # alpha, the incumbent of vb and the S of max cut all read the one
        # search of the record that `slq invariants` shares
        searches = []
        original = combinatorics._max_independent_set

        def spy(nv, adj, cand=None, incumbent=0):
            if cand is None:
                searches.append(nv)
            return original(nv, adj, cand, incumbent)

        monkeypatch.setattr(combinatorics, "_max_independent_set", spy)
        assert main(["invariants", "rand:n=20,m=40,seed=6498665209168132836"]) == 0
        out = capsys.readouterr().out
        assert "alpha = 9\nvertex_bipartiteness = 3\nedge_bipartiteness = 8\n" in out
        assert searches == [20]


    def test_catalog_and_max_cut_share_one_alpha_search(self, monkeypatch):
        # the vb entries fill the record of the GraphData; max cut then
        # reads its S instead of searching again
        searches = []
        original = combinatorics._max_independent_set

        def spy(nv, adj, cand=None, incumbent=0):
            if cand is None:
                searches.append(nv)
            return original(nv, adj, cand, incumbent)

        monkeypatch.setattr(combinatorics, "_max_independent_set", spy)
        data = GraphData(parse_graph_spec("rand:n=20,m=40,seed=6498665209168132836")[1])
        by_name = {o.name: o for o in evaluate_catalog(data)}
        assert by_name["mu1_minus_vb"].evaluated
        assert searches == [20]
        assert max_cut(data.oracles) == 40 - 8
        assert searches == [20]


class TestMaxCutOfBipartiteGraphs:
    def test_no_table_is_built(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return _adjacency_masks(*args, **kwargs)

        monkeypatch.setattr(combinatorics, "_adjacency_masks", spy)
        # K_{12,13} and C_40 lie past EB_LIMIT, which a bipartite graph never reaches
        sides = ((1, 1), (3, 4), (8, 10), (12, 12), (12, 13))
        graphs = [generate_named("complete_bipartite", pq) for pq in sides]
        graphs += [generate_named("cycle", n) for n in (4, 10, 20, 24, 40)]
        assert max(g.n for g in graphs) > EB_LIMIT
        for g in graphs:
            assert edge_bipartiteness(g) == 0
            assert max_cut(g) == g.m
        assert calls == []
        # a non-bipartite graph still builds its masks
        assert edge_bipartiteness(generate_named("cycle", 5)) == 1
        assert len(calls) == 1

    @pytest.mark.parametrize("spec", ["kbip:20,20", "cycle:40"])
    def test_invariants_past_the_eb_limit(self, capsys, spec):
        assert main(["invariants", spec]) == 0
        out = capsys.readouterr().out
        assert "\nvertex_bipartiteness = 0\nedge_bipartiteness = 0\n" in out
        assert "alpha = n/a (independence number: n=40 exceeds oracle limit 30)" in out


class TestLimits:
    def test_limit_errors_carry_context(self):
        g = generate_random_connected(12, 20, seed=1)
        with pytest.raises(OracleLimitError, match="independence number: n=12 exceeds oracle limit 5"):
            independence_number(g, limit=5)
        with pytest.raises(OracleLimitError) as err:
            vertex_bipartiteness(g, limit=5)
        assert (err.value.what, err.value.n, err.value.limit) == ("vertex bipartiteness", 12, 5)
        with pytest.raises(OracleLimitError, match="max cut"):
            max_cut(g, limit=5)
        with pytest.raises(OracleLimitError):
            edge_bipartiteness(g, limit=5)

    def test_limit_is_inclusive(self):
        g = generate_named("cycle", 8)
        assert independence_number(g, limit=8) == 4
        assert vertex_bipartiteness(g, limit=8) == 0
        assert edge_bipartiteness(g, limit=8) == 0

    def test_invariants_all_present_small(self):
        # every oracle answers on C5 at its own default limit
        c5 = generate_named("cycle", 5)
        values = (
            independence_number(c5),
            vertex_bipartiteness(c5),
            edge_bipartiteness(c5),
        )
        assert values == (2, 1, 1)

    def test_none_is_each_oracles_own_default(self):
        # odd cycles: not bipartite, so vb cannot short-circuit to 0
        c21 = generate_named("cycle", 21)
        with pytest.raises(OracleLimitError, match="vertex bipartiteness: n=21 exceeds oracle limit 20"):
            vertex_bipartiteness(c21)
        with pytest.raises(OracleLimitError, match="exceeds oracle limit 20"):
            vertex_bipartiteness(c21, limit=None)
        with pytest.raises(OracleLimitError, match="max cut: n=25 exceeds oracle limit 24"):
            edge_bipartiteness(generate_named("cycle", 25))
        c31 = generate_named("cycle", 31)
        with pytest.raises(OracleLimitError, match="independence number: n=31 exceeds oracle limit 30"):
            independence_number(c31)
        with pytest.raises(OracleLimitError, match="exceeds oracle limit 30"):
            independence_number(c31, limit=None)
