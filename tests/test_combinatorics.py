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
from slq.combinatorics import _adjacency_masks, _max_independent_set
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
    """Oracle: every bipartition with vertex n-1 pinned, one numpy pass
    per edge over the 2^(n-1) side masks."""
    masks = np.arange(1 << (g.n - 1), dtype=np.uint64)
    acc = np.zeros(masks.shape[0], dtype=np.uint16)
    for u, v in g.edges:
        acc += ((masks >> np.uint64(u) ^ masks >> np.uint64(v)) & np.uint64(1)).astype(np.uint16)
    return int(acc.max())


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


CORPUS = standard_corpus()
SAMPLE = small_connected_sample()


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
        # n >= 22 adds the free vertices past the first 20 block by block
        assert max_cut(generate_named("complete", 24)) == 144
        assert max_cut(generate_named("cycle", 23)) == 22
        assert max_cut(generate_named("complete_bipartite", (11, 12))) == 132

    def test_max_cut_closed_forms_at_the_table_edges(self):
        # K_21 and C_21 fill the largest unblocked table; K_23 has m = 253,
        # the top of the one-byte table
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
        graphs = [g for _, g in SAMPLE] + [g for _, g in CORPUS if g.n <= 16]
        for g in graphs:
            assert max_cut(g) == per_edge_max_cut(g), g

    def test_blocked_max_cut_matches_per_edge_loop(self):
        for n, m in ((21, 30), (22, 30)):
            g = generate_random_connected(n, m, seed=n)
            assert max_cut(g) == per_edge_max_cut(g), (n, m)

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
        # one doubling over all 23 free vertices peaks at 92 MB here, the
        # per-edge loop at 26 MB
        _, g = parse_graph_spec("rand:n=24,m=96,seed=3")
        tracemalloc.start()
        try:
            value = max_cut(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 72  # the per-edge loop's value
        assert peak < 24 * 2**20

    def test_unblocked_max_cut_memory(self):
        # one 2^20-entry byte table plus a 2^19-entry count; a uint32 side
        # mask per entry and a copy of the table would pass 8 MB
        _, g = parse_graph_spec("rand:n=21,m=84,seed=3")
        tracemalloc.start()
        try:
            value = max_cut(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 58  # the per-edge loop's value
        assert peak < 8 * 2**20


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
    both copies of the rank-0 vertex included."""
    return g.n - _max_independent_set(2 * g.n, _adjacency_masks(g, doubled=True))


class TestSearchSize:
    """Deterministic caps on the branch and bound, counted in calls to its
    nested ``expand`` rather than timed.  Without the degree order the
    sparse n = 60 graph runs for minutes."""

    CAP = 20_000

    def test_sparse_sixty_vertices(self):
        _, g = parse_graph_spec("rand:n=60,m=90,seed=1")
        value = under_expand_cap(lambda: vertex_bipartiteness(g, limit=60), self.CAP)
        assert value == 6

    @pytest.mark.parametrize("m, vb", [(322, 25), (634, 33)])
    def test_paper_rows(self, m, vb):
        # the search makes 2,267 calls on m = 322 and 168 on m = 634
        _, g = parse_graph_spec(f"rand:n=40,m={m},seed=1")
        cap = {322: 2_500, 634: 200}[m]
        value = under_expand_cap(lambda: vertex_bipartiteness(g, limit=40), cap)
        assert value == vb == natural_order_vb(g)

    def test_oracle_small_members(self):
        # 868 calls together
        graphs = {spec: parse_graph_spec(spec)[1] for spec in ORACLE_SMALL_VB}
        values = under_expand_cap(
            lambda: {spec: vertex_bipartiteness(g) for spec, g in graphs.items()}, 900
        )
        assert values == ORACLE_SMALL_VB

    @pytest.mark.parametrize("n", [16, 17, 18])
    def test_complete_graphs_take_two_calls(self, n):
        # the greedy cover of K_n □ K2 pairs the two copies of each vertex;
        # with both copies of the rank-0 vertex left in, the search takes
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
        assert _max_independent_set(5, adj) == 2
        assert _max_independent_set(5, adj, 0b11100) == 2
        assert _max_independent_set(5, adj, 0b01100) == 1


class TestMaxCutOfBipartiteGraphs:
    def test_no_table_is_built(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return _adjacency_masks(*args, **kwargs)

        monkeypatch.setattr(combinatorics, "_adjacency_masks", spy)
        sides = ((1, 1), (3, 4), (8, 10), (12, 12))
        graphs = [generate_named("complete_bipartite", pq) for pq in sides]
        graphs += [generate_named("cycle", n) for n in (4, 10, 20, 24)]
        for g in graphs:
            assert edge_bipartiteness(g) == 0
            assert max_cut(g) == g.m
        assert calls == []
        # a non-bipartite graph still builds its masks
        assert edge_bipartiteness(generate_named("cycle", 5)) == 1
        assert len(calls) == 1


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
