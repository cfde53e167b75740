"""Graph construction, named families, seeded generation, edge-list I/O."""

import heapq
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slq import (
    EdgeListError,
    Graph,
    GraphData,
    GraphError,
    build_graph,
    degree_profile,
    generate_named,
    generate_random_connected,
    generate_random_connected_many,
    generate_regular_circulant,
    is_bipartite,
    is_connected,
    is_regular,
    read_edge_list,
    write_edge_list,
)
from slq.combinatorics import independence_number, vertex_bipartiteness
from slq import graphs as graphs_module
from slq.graphs import _PACKED_SORT_MIN, _fisher_yates_picks, _stable_order
from slq.minmax import f_value
from slq.rng import SplitMix64, below_streams, splitmix64_stream
from slq.spectra import line_graph
from slq.validation import small_connected_sample, standard_corpus

# strategy: (n, m, seed) triples that always admit a connected graph
connected_specs = st.integers(2, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(n - 1, n * (n - 1) // 2),
        st.integers(0, 2**64 - 1),
    )
)


def reference_build_graph(n, edges, allow_isolated=False):
    """The loop builder, kept as the reference: each edge in input order is
    unpacked, checked and canonicalized in Python.  Returns the canonical
    edges and the degrees as tuples of ints."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise GraphError("vertex count must be an integer")
    n = int(n)
    if n < 1:
        raise GraphError("vertex count must be at least 1")
    canon = []
    seen = set()
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise GraphError(f"edge {e!r} is not a pair") from None
        u, v = int(u), int(v)
        if u == v:
            raise GraphError(f"loop at vertex {u} is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        canon.append((u, v))
    canon.sort()
    deg = [0] * n
    for u, v in canon:
        deg[u] += 1
        deg[v] += 1
    if not allow_isolated:
        for v in range(n):
            if deg[v] == 0:
                raise GraphError(
                    f"vertex {v} is isolated; pass allow_isolated=True to admit it"
                )
    return tuple(canon), tuple(deg)


def build_outcome(build, n, edges, allow_isolated=False):
    """(edges, degrees) of a successful build, or the GraphError message."""
    try:
        result = build(n, edges, allow_isolated=allow_isolated)
    except GraphError as exc:
        return str(exc)
    if isinstance(result, tuple):
        return result
    return result.edges, tuple(result.degrees.tolist())


def assert_builds_match_reference(n, edges, allow_isolated=False):
    got = build_outcome(build_graph, n, edges, allow_isolated)
    assert got == build_outcome(reference_build_graph, n, edges, allow_isolated), (n, edges)
    return got


# bad edge lists: pairs inside 0..n-1 (loops and repeats among them), with
# up to two entries inserted that have negative endpoints, endpoints >= n up
# to 2**70, or are not pairs
in_range_lists = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12),
    )
)
endpoints = st.one_of(st.integers(-3, 10), st.sampled_from([2**70, -(2**70)]))
entries = st.one_of(
    st.tuples(endpoints, endpoints),
    st.tuples(st.integers(0, 9)),
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)),
)


class TestBuildGraphReference:
    def test_corpus_edge_lists_shuffled_and_reversed(self):
        rng = random.Random(8101)
        for label, g in tuple(standard_corpus()) + tuple(small_connected_sample()):
            shuffled = list(g.edges)
            rng.shuffle(shuffled)
            reversed_ = [(v, u) for u, v in reversed(g.edges)]
            for edges in (shuffled, reversed_):
                for allow_isolated in (False, True):
                    got = assert_builds_match_reference(g.n, edges, allow_isolated)
                    if allow_isolated:
                        assert got[0] == g.edges, label

    @settings(max_examples=300)
    @given(in_range_lists, st.lists(entries, max_size=2), st.data())
    def test_bad_lists(self, spec, bad, data):
        n, edges = spec
        for entry in bad:
            edges.insert(data.draw(st.integers(0, len(edges))), entry)
        if edges and data.draw(st.booleans()):
            # a reversed copy of an earlier entry
            i = data.draw(st.integers(0, len(edges) - 1))
            edges.insert(data.draw(st.integers(i + 1, len(edges))), edges[i][::-1])
        assert_builds_match_reference(n, edges, data.draw(st.booleans()))

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (1, 0)],
            [(0, 1), (1,), (2, 2)],
            [(2, 2), (1,)],
            [(0, 1), (0, 1, 2)],
            [(0, 2**70), (1,)],
            [(0, 1), (3, 2**70), (1, 0)],
            [(0, 1), (1, 0), (3, 2**70)],
            [(1, -1)],
            [()],
            [5],
            [],
        ],
    )
    def test_examples(self, edges):
        assert_builds_match_reference(4, edges, allow_isolated=True)

    def test_oracles_exact_past_63_vertices(self):
        # the oracles use g.edges as bit positions: a numpy int64 endpoint
        # would wrap 1 << v at v >= 63
        star = generate_named("star", 69)
        assert independence_number(star, limit=70) == 69
        # vertex bipartiteness runs on G x K2, 82 mask bits here
        assert vertex_bipartiteness(generate_named("cycle", 41), limit=41) == 1
        assert all(type(x) is int for e in star.edges for x in e)
        assert star.edge_array.dtype == star.degrees.dtype == np.int64
        with pytest.raises(ValueError):
            star.edge_array[0, 0] = 2
        with pytest.raises(ValueError):
            star.degrees[0] = 2


class TestBuildGraph:
    def test_canonical_edge_order(self):
        g = build_graph(4, [(3, 1), (0, 2), (1, 0)])
        assert g.edges == ((0, 1), (0, 2), (1, 3))
        assert g.degrees.tolist() == [2, 2, 1, 1]

    def test_rejects_loop(self):
        with pytest.raises(GraphError, match="loop"):
            build_graph(3, [(0, 0), (1, 2)])

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(GraphError, match="duplicate"):
            build_graph(3, [(0, 1), (1, 0), (1, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            build_graph(3, [(0, 3)])

    def test_rejects_isolated_by_default(self):
        with pytest.raises(GraphError, match="isolated"):
            build_graph(3, [(0, 1)])
        g = build_graph(3, [(0, 1)], allow_isolated=True)
        assert g.degrees.tolist() == [1, 1, 0]

    def test_rejects_bad_vertex_count(self):
        with pytest.raises(GraphError):
            build_graph(0, [])
        # vertex ids are int64; refused before any array is built
        with pytest.raises(GraphError, match=r"below 2\^63"):
            build_graph(2**63, [])

    def test_equality_and_hash(self):
        a = build_graph(3, [(0, 1), (1, 2)])
        b = build_graph(3, [(2, 1), (1, 0)])
        assert a == b
        assert hash(a) == hash(b)


class TestNamedFamilies:
    def test_path(self):
        g = generate_named("path", 5)
        assert (g.n, g.m) == (5, 4)
        assert g.degrees.tolist() == [1, 2, 2, 2, 1]

    def test_cycle(self):
        g = generate_named("cycle", 6)
        assert (g.n, g.m) == (6, 6)
        assert set(g.degrees) == {2}
        with pytest.raises(GraphError):
            generate_named("cycle", 2)

    def test_complete(self):
        g = generate_named("complete", 4)
        assert (g.n, g.m) == (4, 6)
        assert set(g.degrees) == {3}

    def test_star_center_zero(self):
        g = generate_named("star", 4)
        assert (g.n, g.m) == (5, 4)
        assert g.degrees.tolist() == [4, 1, 1, 1, 1]

    def test_complete_bipartite(self):
        g = generate_named("complete_bipartite", (2, 3))
        assert (g.n, g.m) == (5, 6)
        assert g.degrees.tolist() == [3, 3, 2, 2, 2]
        ok, parts = is_bipartite(g)
        assert ok

    def test_kn1uk1(self):
        g = generate_named("kn1uk1", 6)
        assert (g.n, g.m) == (6, 10)
        assert g.degrees.tolist() == [4, 4, 4, 4, 4, 0]
        assert not is_connected(g)

    def test_index_arrays_match_the_edge_lists(self):
        # path, cycle and star are built from index arrays; these are their lists
        reference = {
            "path": lambda k: build_graph(k, [(i, i + 1) for i in range(k - 1)],
                                          allow_isolated=k == 1),
            "cycle": lambda k: build_graph(k, [(i, (i + 1) % k) for i in range(k)]),
            "star": lambda k: build_graph(k + 1, [(0, i) for i in range(1, k + 1)]),
        }
        for family, build in reference.items():
            for k in range(3 if family == "cycle" else 1, 40):
                g = generate_named(family, k)
                assert g == build(k), (family, k)
                assert g.degrees.tolist() == build(k).degrees.tolist()

    def test_unknown_family(self):
        with pytest.raises(GraphError, match="unknown family"):
            generate_named("wheel", 5)

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (8, 3), (9, 4), (10, 5)])
    def test_circulant_regular_connected(self, n, k):
        g = generate_regular_circulant(n, k)
        assert g.n == n
        assert set(g.degrees) == {k}
        assert is_connected(g)
        # the loop construction, kept as the reference
        ends = [(i, (i + j) % n) for j in range(1, k // 2 + 1) for i in range(n)]
        if k % 2:
            ends += [(i, i + n // 2) for i in range(n // 2)]
        assert g.edges == tuple(sorted({(min(e), max(e)) for e in ends}))

    def test_circulant_rejects_odd_product(self):
        with pytest.raises(GraphError):
            generate_regular_circulant(5, 3)


def reference_random_connected(n, m, seed):
    """The list-based sampler, kept as the reference: the heap decoder, and
    every candidate pair as a tuple in lexicographic order, shuffled in
    place."""
    rng = SplitMix64(seed)
    tree = heap_prufer_tree_edges(n, rng)
    tree_set = set(tree)
    extra = m - (n - 1)
    if extra:
        pool = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if (i, j) not in tree_set
        ]
        rng.shuffle_prefix(pool, extra)
        tree.extend(pool[:extra])
    return build_graph(n, tree)


def heap_prufer_tree_edges(n, rng):
    """The heap decoder, kept as the reference: the smallest leaf is popped
    from a min-heap at every step."""
    if n == 1:
        return []
    seq = [rng.below(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def float_root_random_connected(n, m, seed):
    """The sampler before the row-start table, kept as the reference: the
    heap decoder, and pair ranks inverted by the float root of the
    row-start quadratic with an integer correction by one row either way.
    Returns the edge array of the graph."""
    rng = SplitMix64(seed)
    edges = np.array(heap_prufer_tree_edges(n, rng), dtype=np.int64).reshape(-1, 2)
    extra = m - (n - 1)
    if extra:
        size = n * (n - 1) // 2 - (n - 1)
        moved = {}
        picks = []
        for k, offset in enumerate([rng.below(size - k) for k in range(extra)]):
            j = k + offset
            picks.append(moved.get(j, j))
            moved[j] = moved.get(k, k)
        i, j = edges.T
        tree_ranks = np.sort(i * (2 * n - i - 1) // 2 + j - i - 1)
        picks = np.array(picks, dtype=np.int64)
        ranks = picks + np.searchsorted(tree_ranks - np.arange(n - 1), picks, side="right")
        rows = ((2 * n - 1 - np.sqrt((2.0 * n - 1) ** 2 - 8.0 * ranks)) // 2).astype(np.int64)
        rows += (rows + 1) * (2 * n - rows - 2) // 2 <= ranks
        rows -= rows * (2 * n - rows - 1) // 2 > ranks
        cols = ranks - rows * (2 * n - rows - 1) // 2 + rows + 1
        edges = np.concatenate((edges, np.stack((rows, cols), axis=1)))
    return build_graph(n, edges).edge_array


def m_classes(n):
    """Edge counts from each density class on n vertices: the tree, one
    extra edge, sparse, half of all pairs, one pair short of complete, and
    complete; every edge count up to n = 12."""
    top = n * (n - 1) // 2
    if n <= 12:
        return range(n - 1, top + 1)
    return sorted({m for m in (n - 1, n, 2 * n, top // 2, top - 1, top) if n - 1 <= m <= top})


# the four table_large graphs of the benchmark at its default seed
TABLE_LARGE_SPECS = (
    (500, 5000, 8631957831668394588),
    (1000, 10000, 7692986104271406305),
    (1500, 15000, 2073255812448292667),
    (800, 32000, 2384282141814561249),
)


class TestGeneratorReference:
    def test_small_sizes_every_m_class(self):
        for n in range(2, 61):
            for m in m_classes(n):
                for seed in (0, 1, 2**63 + 5, 2**64 - 1):
                    assert np.array_equal(
                        generate_random_connected(n, m, seed).edge_array,
                        float_root_random_connected(n, m, seed),
                    ), (n, m, seed)

    def test_standard_corpus_and_table_large(self, corpus):
        specs = list(TABLE_LARGE_SPECS)
        for label, _ in corpus:
            match = re.fullmatch(r"rand:n=(\d+),m=(\d+),seed=(\d+)", label)
            if match:
                specs.append(tuple(int(x) for x in match.groups()))
        assert len(specs) == 4 + 420
        for n, m, seed in specs:
            assert np.array_equal(
                generate_random_connected(n, m, seed).edge_array,
                float_root_random_connected(n, m, seed),
            ), (n, m, seed)


def dict_loop_picks(offsets):
    """The Fisher-Yates step loop, kept as the reference: only the
    positions a step has moved are stored."""
    moved, picks = {}, []
    for k, offset in enumerate(offsets):
        j = k + offset
        picks.append(moved.get(j, j))
        moved[j] = moved.get(k, k)
    return picks


def mixed_specs():
    """A batch of every kind: n = 2, trees, complete graphs, one pair short
    of complete, sparse and dense middles, a repeated spec and the four
    table_large graphs."""
    specs = [(2, 1, 5), (3, 3, 0), (7, 6, 11), (9, 35, 2**64 - 1), (9, 36, 3)]
    specs += [(n, n * (n - 1) // 2, n) for n in (4, 12, 25)]
    specs += [(30, 100, 4), (30, 100, 4), (40, 779, 8), (60, 180, 2**63 + 5)]
    return specs + [(16, 48, 7692986104271406305)] + list(TABLE_LARGE_SPECS)


class TestGeneratorBatch:
    def test_mixed_batch_matches_each_spec_and_the_reference(self, monkeypatch):
        specs = mixed_specs()
        expected = [float_root_random_connected(*spec) for spec in specs]
        for (n, m, seed), edges in zip(specs, expected):
            g = generate_random_connected(n, m, seed)
            assert np.array_equal(g.edge_array, edges), (n, m, seed)
            assert np.array_equal(g.degrees, np.bincount(edges.ravel(), minlength=n))
        # split by hand at every spec, and by the batch budget at every
        # edge count: one graph per batch, a few, and all small ones at once
        for cut in range(len(specs) + 1):
            graphs = generate_random_connected_many(specs[:cut])
            graphs += generate_random_connected_many(specs[cut:])
            assert [g.n for g in graphs] == [n for n, _, _ in specs]
            for g, edges in zip(graphs, expected):
                assert np.array_equal(g.edge_array, edges)
        for budget in (1, 40, 200, 10**6):
            monkeypatch.setattr(graphs_module, "_BATCH_EDGES", budget)
            for g, edges in zip(generate_random_connected_many(specs), expected):
                assert np.array_equal(g.edge_array, edges), budget
                assert np.array_equal(g.degrees, np.bincount(edges.ravel(), minlength=g.n))
                assert g.edge_array.dtype == g.degrees.dtype == np.int64
                assert not g.edge_array.flags.writeable and not g.degrees.flags.writeable
        assert generate_random_connected_many([]) == []
        with pytest.raises(GraphError):
            generate_random_connected_many([(5, 4, 1), (5, 11, 1)])

    @pytest.mark.parametrize("steps,spare", [(1, 0), (50, 0), (50, 1), (300, 2), (2000, 3)])
    def test_picks_equal_the_dict_loop(self, steps, spare):
        # size is barely above the step count, so most targets collide
        size = steps + spare
        rs = np.random.RandomState(steps + spare)
        k = np.arange(steps)
        cases = [
            rs.randint(0, size - k),
            np.zeros(steps, dtype=np.int64),  # every step keeps its position
            size - k - 1,  # every step targets the last position
            np.minimum(rs.randint(0, 3, steps), size - k - 1),  # short hops
        ]
        for offsets in cases:
            picks = _fisher_yates_picks(k + offsets, k)
            assert picks.tolist() == dict_loop_picks(offsets.tolist())
        # two shuffles in one batch, kept apart by the base of the second
        a, b = cases[0], cases[2]
        picks = _fisher_yates_picks(
            np.concatenate((k + a, k + b)), np.concatenate((k, k)), np.repeat([0, size], steps)
        )
        assert picks.tolist() == dict_loop_picks(a.tolist()) + dict_loop_picks(b.tolist())


def assert_connected_by_search(g):
    """A breadth-first search on a fresh copy of g, which holds no primed
    component count, finds one component, and g's own count agrees."""
    fresh = Graph(g.n, g.edge_array, g.degrees)
    assert "components" not in vars(fresh)
    assert fresh.components == g.components == 1
    assert is_connected(g)


class TestRandomConnected:
    @given(connected_specs)
    def test_connected_with_exact_edge_count(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, m, seed)
        assert g.n == n
        assert g.m == m
        assert_connected_by_search(g)

    def test_connectivity_is_primed_without_search(self):
        graphs = generate_random_connected_many([(9, 8, 7), (40, 100, 1), (500, 5000, 2)])
        assert all(vars(g)["components"] == 1 for g in graphs)
        assert all("_two_coloring" not in vars(g) for g in graphs)

    @given(connected_specs)
    def test_deterministic_in_seed(self, spec):
        n, m, seed = spec
        assert (
            generate_random_connected(n, m, seed).edges
            == generate_random_connected(n, m, seed).edges
        )

    def test_tree_case(self):
        g = generate_random_connected(9, 8, seed=7)
        assert g.m == g.n - 1
        assert_connected_by_search(g)

    def test_edge_count_bounds(self):
        with pytest.raises(GraphError):
            generate_random_connected(5, 3, seed=1)
        with pytest.raises(GraphError):
            generate_random_connected(5, 11, seed=1)

    def test_frozen_sample(self):
        # pins the PRNG and sampling procedure: any change shows up here
        g = generate_random_connected(6, 7, seed=42)
        assert g.edges == ((0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (3, 4))

    def test_matches_list_reference(self, corpus):
        specs = [(200, 199, 1), (200, 1000, 2), (317, 5000, 3), (400, 79000, 4)]
        for label, _ in tuple(corpus) + tuple(small_connected_sample()):
            match = re.fullmatch(r"rand:n=(\d+),m=(\d+),seed=(\d+)", label)
            if match:
                specs.append(tuple(int(x) for x in match.groups()))
        assert len(specs) == 4 + 420 + 200
        for n, m, seed in specs:
            assert (
                generate_random_connected(n, m, seed).edges
                == reference_random_connected(n, m, seed).edges
            ), (n, m, seed)

    def test_memory_is_linear_in_m(self):
        # a sampler that materializes all n(n-1)/2 = 4.5M candidate pairs
        # needs about 108 MB here
        tracemalloc.start()
        try:
            generate_random_connected(3000, 6000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


class TestSplitMix64:
    def test_reference_stream(self):
        # first outputs for seed 1234567, computed from the algorithm spec
        rng = SplitMix64(1234567)
        first = [rng.next_uint64() for _ in range(3)]
        assert first == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_array_stream_matches_the_scalar_stream(self):
        for seed in (0, 1234567, 2**64 - 1):
            rng = SplitMix64(seed)
            expected = [rng.next_uint64() for _ in range(50)]
            assert splitmix64_stream(seed, 50).tolist() == expected

    def test_below_is_in_range_and_deterministic(self):
        rng = SplitMix64(99)
        draws = [rng.below(10) for _ in range(200)]
        assert all(0 <= d < 10 for d in draws)
        rng2 = SplitMix64(99)
        assert draws == [rng2.below(10) for _ in range(200)]

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(1).below(0)

    def test_below_streams_is_the_scalar_loop(self):
        # about half of all draws below 2^63 + 1 are rejected, so the scalar
        # continuation runs; 2^64 - 1 rejects one draw in 2^64, 2^k none
        bounds = [7, 1, 2**63 + 1, 10, 2**64 - 1, 2**32 + 3, 2**40, 2**63 + 1, 3] * 40
        seeds = (0, 1, 99, 2**64 - 1, 7, 7, 7, 7)
        counts = (len(bounds),) * 4 + (0, 1, 23, 24)
        flat = [b for count in counts for b in bounds[:count]]
        values = below_streams(seeds, counts, flat)
        at = 0
        for seed, count in zip(seeds, counts):
            scalar = SplitMix64(seed)
            assert values[at : at + count].tolist() == [scalar.below(b) for b in bounds[:count]]
            at += count
        assert values.dtype == np.uint64 and at == len(values)
        for bad in ([3, 0], [3] * 40 + [0]):
            with pytest.raises(ValueError):
                below_streams([1], [len(bad)], bad)

    def test_shuffle_prefix_is_sample_without_replacement(self):
        rng = SplitMix64(5)
        items = list(range(20))
        rng.shuffle_prefix(items, 5)
        assert len(set(items)) == 20
        assert sorted(items) == list(range(20))


def assert_q_degrees_exact(g):
    """GraphData.q_degrees is the integer vector (D + A) d of a dense
    integer product, exactly."""
    q = np.diag(g.degrees)
    for u, v in g.edges:
        q[u, v] = q[v, u] = 1
    got = GraphData(g).q_degrees
    assert got.dtype == np.float64
    assert np.array_equal(got, np.floor(got))
    assert np.array_equal(got, q @ g.degrees)


class TestDegreeProfile:
    def test_path4_profile(self):
        g = generate_named("path", 4)
        p = degree_profile(g)
        assert list(g.degrees) == [1, 2, 2, 1]
        assert list(p._fields) == ["delta", "Delta", "m1"]
        assert (p.delta, p.Delta) == (1, 2)
        assert p.m1 == 10
        assert list(GraphData(g).q_degrees) == [3, 7, 7, 3]

    @given(connected_specs)
    def test_handshake_and_zagreb(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, m, seed)
        p = degree_profile(g)
        assert int(g.degrees.sum()) == 2 * m
        assert p.m1 == int((g.degrees**2).sum())
        assert_q_degrees_exact(g)

    @pytest.mark.parametrize(
        "g",
        [
            generate_named("path", 4),
            # an isolated vertex, on the dense product and on the operator
            generate_named("kn1uk1", 9),
            generate_named("kn1uk1", 450),
            generate_random_connected(*TABLE_LARGE_SPECS[0]),
        ],
        ids=["path:4", "kn1uk1:9", "kn1uk1:450", "table_large"],
    )
    def test_q_degrees_is_the_exact_product(self, g):
        assert_q_degrees_exact(g)


class TestBipartiteness:
    def test_even_cycle(self):
        ok, parts = is_bipartite(generate_named("cycle", 8))
        assert ok
        assert sorted(len(p) for p in parts) == [4, 4]

    def test_odd_cycle(self):
        assert is_bipartite(generate_named("cycle", 7)) == (False, None)

    def test_parts_have_no_internal_edges(self):
        g = generate_random_connected(10, 9, seed=3)  # a tree
        ok, (p0, p1) = is_bipartite(g)
        assert ok
        for u, v in g.edges:
            assert (u in p0) != (v in p0)

    def test_regular_detector(self):
        assert is_regular(generate_named("cycle", 5))
        assert not is_regular(generate_named("path", 3))


class TestStableOrder:
    def assert_stable(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        got = _stable_order(keys)
        assert got.dtype == np.intp
        assert np.array_equal(got, keys.argsort(kind="stable"))

    @pytest.mark.parametrize("length", [0, 1, 2, _PACKED_SORT_MIN - 1, _PACKED_SORT_MIN,
                                        _PACKED_SORT_MIN + 1, 1024, 1025, 20000])
    @pytest.mark.parametrize("top", [1, 3, 40, 2**31, 2**40])
    def test_matches_stable_argsort(self, length, top):
        # few distinct keys give long runs of ties
        self.assert_stable(np.random.default_rng(length + top).integers(0, top, length))

    def test_sorted_reversed_and_constant_keys(self):
        length = 3 * _PACKED_SORT_MIN
        for keys in (np.arange(length), np.arange(length)[::-1], np.full(length, 7),
                     np.zeros(length)):
            self.assert_stable(keys)

    @pytest.mark.parametrize("length", [2, _PACKED_SORT_MIN, 1024, 1025, 5000])
    def test_keys_near_the_top_of_the_packed_range(self, length):
        # a packed key takes bit_length(length - 1) position bits: with the
        # first top the keys still fit in 63 bits, the others take the argsort
        shift = (length - 1).bit_length()
        rng = np.random.default_rng(length)
        for top in (2 ** (63 - shift) - 1, 2 ** (63 - shift), 2**62 - 1, 2**62, 2**63 - 1):
            keys = top - rng.integers(0, 3, length)
            keys[rng.integers(0, length)] = top
            self.assert_stable(keys)


# the four graphs of the benchmark's table_large at its default seed, two
# larger ones, and the corpus: every edge array and neighbour index is the
# one the plain stable argsorts build
IDENTITY_SPECS = [
    (500, 5000, 8631957831668394588),
    (1000, 10000, 7692986104271406305),
    (1500, 15000, 2073255812448292667),
    (800, 32000, 2384282141814561249),
    (3000, 30000, 1),
    (1500, 1000000, 2),
]


def argsort_neighbor_index(g):
    ends = g.edge_array.ravel()
    return ends[np.argsort(ends, kind="stable") ^ 1], np.cumsum(g.degrees)


def assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPackedSortIdentity:
    @pytest.mark.parametrize("spec", IDENTITY_SPECS, ids=lambda s: "n=%d,m=%d" % s[:2])
    def test_generator_and_index_match_argsort_construction(self, spec, monkeypatch):
        g = generate_random_connected(*spec)
        with monkeypatch.context() as patch:
            patch.setattr(graphs_module, "_stable_order", lambda keys: keys.argsort(kind="stable"))
            reference = generate_random_connected(*spec)
        assert_same_bytes(g.edge_array, reference.edge_array)
        assert_same_bytes(g.degrees, reference.degrees)
        for got, want in zip(g.neighbor_index, argsort_neighbor_index(g)):
            assert_same_bytes(got, want)

    def test_corpus_index_matches_argsort_construction(self, corpus):
        for _, g in corpus:
            for got, want in zip(g.neighbor_index, argsort_neighbor_index(g)):
                assert_same_bytes(got, want)


class TestNeighborIndex:
    def test_runs_hold_each_vertex_neighbours_ascending(self):
        for g in (generate_random_connected(60, 300, seed=4), generate_named("complete", 7),
                  generate_named("star", 5), build_graph(5, [(0, 4)], allow_isolated=True),
                  build_graph(3, [], allow_isolated=True)):
            tips, stops = g.neighbor_index
            assert stops.tolist() == np.cumsum(g.degrees).tolist()
            for v in range(g.n):
                expected = sorted({b for a, b in g.edges if a == v} | {a for a, b in g.edges if b == v})
                assert tips[stops[v] - g.degrees[v]:stops[v]].tolist() == expected
            assert not tips.flags.writeable and not stops.flags.writeable
            assert g.neighbor_index is g.neighbor_index  # built once


class TestEdgeListFormat:
    def test_round_trip(self):
        g = generate_random_connected(8, 12, seed=11)
        assert read_edge_list(write_edge_list(g)) == g

    def test_written_form_is_canonical(self):
        g = build_graph(3, [(1, 2), (0, 2), (0, 1)])
        assert write_edge_list(g) == "3\n0 1\n0 2\n1 2\n"

    def test_comments_and_blank_lines(self):
        text = "# a triangle\n\n3\n0 1\n# middle comment\n0 2\n1 2\n"
        g = read_edge_list(text)
        assert (g.n, g.m) == (3, 3)

    def test_error_carries_line_number(self):
        with pytest.raises(EdgeListError, match="line 3"):
            read_edge_list("# c\n3\n0 zero\n")

    def test_requires_increasing_endpoints(self):
        with pytest.raises(EdgeListError, match="i < j"):
            read_edge_list("3\n1 0\n")

    def test_rejects_duplicates(self):
        with pytest.raises(EdgeListError, match="duplicate"):
            read_edge_list("3\n0 1\n0 1\n")

    def test_rejects_out_of_range(self):
        with pytest.raises(EdgeListError, match="out of range"):
            read_edge_list("3\n0 5\n")

    # each is refused from the endpoints alone, before n degrees are allocated:
    # the 2^40 of the last would take 8 TiB
    @pytest.mark.parametrize("text, vertex", [("4\n1 2\n2 3\n", 0), ("5\n0 1\n1 2\n", 3),
                                              ("1\n", 0), ("9\n0 1\n1 2\n3 4\n2 5\n", 6),
                                              ("1099511627776\n0 1\n", 2)])
    def test_rejects_a_vertex_on_no_edge(self, text, vertex):
        with pytest.raises(EdgeListError) as err:
            read_edge_list(text)
        assert str(err.value) == f"vertex {vertex} is on no edge of the file"

    def test_rejects_empty(self):
        with pytest.raises(EdgeListError, match="empty"):
            read_edge_list("# nothing\n")

    def test_rejects_vertex_count_beyond_int64(self):
        with pytest.raises(GraphError, match=r"below 2\^63"):
            read_edge_list("99999999999999999999\n")

    @given(connected_specs)
    def test_round_trip_random(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, m, seed)
        assert read_edge_list(write_edge_list(g)) == g


@pytest.mark.parametrize("error, call, message", [
    (GraphError, lambda: generate_named("complete_bipartite", 5),
     r"complete_bipartite takes a \(p, q\) pair"),
    (GraphError, lambda: generate_named("path", "x"), "family 'path' takes a single integer"),
    (GraphError, lambda: generate_regular_circulant(4, 4), "need 1 <= k < n"),
    (GraphError, lambda: generate_regular_circulant(4, 0), "need 1 <= k < n"),
    (GraphError, lambda: generate_random_connected_many([(1, 0, 1)]), "need at least 2 vertices"),
    (GraphError, lambda: build_graph(3.0, [(0, 1), (1, 2)]), "vertex count must be an integer"),
    (GraphError, lambda: build_graph(True, []), "vertex count must be an integer"),
    (GraphError, lambda: line_graph(generate_named("path", 1)), "line graph of an edgeless graph"),
    (ValueError, lambda: f_value(np.ones((2, 3)), np.ones(3) / 3**0.5), "matrix must be square"),
    (ValueError, lambda: f_value(np.ones(4), np.ones(2) / 2**0.5), "matrix must be square"),
    (ValueError, lambda: SplitMix64(1).shuffle_prefix([0, 1], 3), "prefix length out of range"),
    (ValueError, lambda: SplitMix64(1).shuffle_prefix([0, 1], -1), "prefix length out of range"),
], ids=["kbip-not-a-pair", "family-not-an-integer", "circulant-k-equals-n", "circulant-k-0",
        "many-one-vertex", "build-float-n", "build-bool-n", "line-graph-edgeless",
        "matrix-not-square", "matrix-one-dimensional", "prefix-too-long", "prefix-negative"])
def test_library_refusal(error, call, message):
    """Each library entry point refuses a bad argument with an error that
    says what is wrong; the graph layer's is a GraphError."""
    with pytest.raises(error, match=message):
        call()
