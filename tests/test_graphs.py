"""Graph construction, named families, seeded generation, edge-list I/O."""

import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slq import (
    EdgeListError,
    GraphError,
    build_graph,
    degree_profile,
    generate_named,
    generate_random_connected,
    generate_regular_circulant,
    is_bipartite,
    is_connected,
    is_regular,
    read_edge_list,
    write_edge_list,
)
from slq.combinatorics import independence_number, vertex_bipartiteness
from slq.graphs import _prufer_tree_edges
from slq.rng import SplitMix64, splitmix64_stream
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
    """The list-based sampler, kept as the reference: every candidate pair
    as a tuple in lexicographic order, shuffled in place."""
    rng = SplitMix64(seed)
    tree = _prufer_tree_edges(n, rng)
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


class TestRandomConnected:
    @given(connected_specs)
    def test_connected_with_exact_edge_count(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, m, seed)
        assert g.n == n
        assert g.m == m
        assert is_connected(g)

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
        assert is_connected(g)

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

    def test_shuffle_prefix_is_sample_without_replacement(self):
        rng = SplitMix64(5)
        items = list(range(20))
        rng.shuffle_prefix(items, 5)
        assert len(set(items)) == 20
        assert sorted(items) == list(range(20))


class TestDegreeProfile:
    def test_path4_profile(self):
        g = generate_named("path", 4)
        p = degree_profile(g)
        assert list(g.degrees) == [1, 2, 2, 1]
        assert (p.delta, p.Delta) == (1, 2)
        assert p.m1 == 10
        assert list(p.d2) == [2, 3, 3, 2]

    @given(connected_specs)
    def test_handshake_and_zagreb(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, m, seed)
        p = degree_profile(g)
        assert int(g.degrees.sum()) == 2 * m
        assert p.m1 == int((g.degrees**2).sum())
        # d2 equals the adjacency matrix applied to the degree vector
        a = np.zeros((n, n))
        for u, v in g.edges:
            a[u, v] = a[v, u] = 1
        assert np.array_equal(p.d2, (a @ g.degrees).astype(np.int64))


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

    def test_rejects_empty(self):
        with pytest.raises(EdgeListError, match="empty"):
            read_edge_list("# nothing\n")

    @given(connected_specs)
    def test_round_trip_random(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, m, seed)
        assert read_edge_list(write_edge_list(g)) == g
