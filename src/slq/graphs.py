"""Simple undirected graphs: validated construction, named families,
seeded random connected graphs, degree invariants, and edge-list I/O.

Vertices are 0-indexed.  A graph stores its edges once, as a read-only array
of pairs i < j in lexicographic order, so equal graphs compare and hash equal.
Isolated vertices are rejected by default (the spread bounds assume every
vertex has an edge) and admitted only through ``allow_isolated``.

A seeded random connected graph is a Prufer tree plus a partial
Fisher-Yates sample of the other pairs, built in batches of whole-array
work.  The shuffle's picks need no step loop: step k swaps positions k and
j >= k, so position k is never touched again, and just before step k a
position p holds what the last earlier step that targeted p wrote there,
which is what position k' held just before its step k' (p itself if no
earlier step targeted p).  Pointer jumping resolves these links.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .rng import below_streams


_PACKED_SORT_MIN = 700  # packing is 2x slower at 300 keys, as fast at 700, 1.3x faster at 1000


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``keys.argsort(kind="stable")`` of nonnegative int64 keys, as one sort of
    the keys shifted up over their positions; short arrays, and keys too
    large to share 63 bits with a position, take the argsort itself."""
    shift = (len(keys) - 1).bit_length()
    if len(keys) < _PACKED_SORT_MIN or int(keys.max()).bit_length() + shift > 63:
        return keys.argsort(kind="stable")
    packed = keys << shift
    packed |= np.arange(len(keys))
    packed.sort()
    packed &= (1 << shift) - 1
    return packed


class GraphError(ValueError):
    """Invalid graph construction input."""


class EdgeListError(GraphError):
    """Malformed edge-list text."""


class Graph:
    """Immutable simple graph.  Build through :func:`build_graph`.

    ``edge_array`` (m x 2) and ``degrees`` are read-only int64 arrays;
    ``edges`` holds the same pairs as Python ints, ``neighbor_index`` the
    neighbours of each vertex and ``components`` the number of components,
    each made on first use (a seeded random graph is built with 1)."""

    def __init__(self, n: int, edge_array: np.ndarray, degrees: np.ndarray):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edge_array", edge_array)
        object.__setattr__(self, "degrees", degrees)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r}: a Graph is immutable")

    __delattr__ = __setattr__

    @property
    def m(self) -> int:
        return len(self.edge_array)

    @cached_property
    def edges(self) -> tuple:
        return tuple(map(tuple, self.edge_array.tolist()))

    @cached_property
    def neighbor_index(self):
        """Every vertex's neighbours, ascending, in one read-only array, and
        the end of each vertex's run in it: the neighbours of v are
        ``tips[stops[v] - degrees[v]:stops[v]]``.  One stable sort of the
        edge ends (``_stable_order``) lists the edges at each vertex in
        lexicographic order, so its neighbours come out ascending."""
        ends = self.edge_array.ravel()
        tips = ends[_stable_order(ends) ^ 1]
        stops = np.cumsum(self.degrees)
        tips.flags.writeable = stops.flags.writeable = False
        return tips, stops

    @cached_property
    def _two_coloring(self):
        """Breadth-first two-coloring of each component from its smallest
        vertex: the read-only color array and the number of components."""
        tips, stops = (a.tolist() for a in self.neighbor_index)
        neighbors = [tips[a:b] for a, b in zip([0] + stops, stops)]
        color = [-1] * self.n
        components = 0
        for start in range(self.n):
            if color[start] != -1:
                continue
            components += 1
            color[start] = 0
            queue = [start]
            for u in queue:  # grows while it is read: first in, first out
                other = 1 - color[u]
                for v in neighbors[u]:
                    if color[v] == -1:
                        color[v] = other
                        queue.append(v)
        color = np.array(color)
        color.flags.writeable = False
        return color, components

    @cached_property
    def components(self) -> int:
        return self._two_coloring[1]

    @cached_property
    def _bipartite(self) -> bool:
        """True when no edge joins two vertices of one color of
        ``_two_coloring``."""
        color = self._two_coloring[0]
        u, v = self.edge_array.T
        return not (color[u] == color[v]).any()

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and np.array_equal(
            self.edge_array, other.edge_array
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edge_array.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges, allow_isolated: bool = False) -> Graph:
    """Validate and canonicalize an edge list into a Graph.  The first bad
    entry in input order is reported: not a pair, a loop, out of range, or a
    repeat of an earlier edge in either orientation."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise GraphError("vertex count must be an integer")
    n = int(n)
    if n < 1:
        raise GraphError("vertex count must be at least 1")
    if n >= 2**63:  # vertex ids are int64
        raise GraphError(f"vertex count {n} must be below 2^63")
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        rows, pairs = np.array(edges, dtype=np.int64), len(edges)
    except (OverflowError, ValueError):  # an endpoint beyond int64, or ragged
        rows = None
    if rows is None or rows.shape[1:] != (2,):
        # check the entries before the first that is not a pair, as Python ints
        pairs = next((i for i, e in enumerate(edges) if np.shape(e) != (2,)), len(edges))
        rows = np.array(edges[:pairs], dtype=object).reshape(-1, 2)
    u, v = rows.T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    bad = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= n))
    stop = bad[0] if len(bad) else len(rows)
    lo, hi = lo[:stop].astype(np.int64), hi[:stop].astype(np.int64)
    # a stable sort keeps repeats in input order, so each repeat after the
    # first of its run duplicates an earlier edge
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    repeat = np.flatnonzero((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])) + 1
    if len(repeat):
        first = repeat[np.argmin(order[repeat])]
        raise GraphError(f"duplicate edge ({lo[first]}, {hi[first]})")
    if len(bad):
        a, b = int(u[stop]), int(v[stop])
        if a == b:
            raise GraphError(f"loop at vertex {a} is not allowed")
        raise GraphError(f"edge ({a}, {b}) out of range for n={n}")
    if pairs < len(edges):
        raise GraphError(f"edge {edges[pairs]!r} is not a pair")
    edge_array = np.stack((lo, hi), axis=1)
    degrees = np.bincount(edge_array.ravel(), minlength=n)
    if not allow_isolated and not degrees.all():
        raise GraphError(
            f"vertex {degrees.argmin()} is isolated; pass allow_isolated=True to admit it"
        )
    edge_array.flags.writeable = False
    degrees.flags.writeable = False
    return Graph(n=n, edge_array=edge_array, degrees=degrees)


# ---------------------------------------------------------------------------
# named families


def generate_named(family: str, params) -> Graph:
    """Construct a named family member.

    Families: "path" (P_k), "cycle" (C_k, k >= 3), "complete" (K_k),
    "star" (K_{1,k}, center 0), "complete_bipartite" (K_{p,q}, first part
    0..p-1; params is a (p, q) pair), "kn1uk1" (K_{k-1} plus one isolated
    vertex, k total vertices).
    """
    if family == "complete_bipartite":
        try:
            p, q = params
        except (TypeError, ValueError):
            raise GraphError("complete_bipartite takes a (p, q) pair") from None
        p, q = int(p), int(q)
        if p < 1 or q < 1:
            raise GraphError("complete_bipartite parts must be at least 1")
        return build_graph(p + q, np.argwhere(np.ones((p, q))) + (0, p))
    try:
        k = int(params)
    except (TypeError, ValueError):
        raise GraphError(f"family {family!r} takes a single integer") from None
    if family == "path":
        if k < 1:
            raise GraphError("path needs at least 1 vertex")
        return build_graph(k, np.arange(k - 1)[:, None] + (0, 1), allow_isolated=k == 1)
    if family == "cycle":
        if k < 3:
            raise GraphError("cycle needs at least 3 vertices")
        return build_graph(k, (np.arange(k)[:, None] + (0, 1)) % k)
    if family == "complete":
        if k < 1:
            raise GraphError("complete needs at least 1 vertex")
        return build_graph(k, np.column_stack(np.triu_indices(k, 1)), allow_isolated=k == 1)
    if family == "star":
        if k < 1:
            raise GraphError("star needs at least 1 leaf")
        return build_graph(k + 1, np.arange(1, k + 1)[:, None] * (0, 1))
    if family == "kn1uk1":
        if k < 3:
            raise GraphError("kn1uk1 needs at least 3 vertices")
        return build_graph(k, np.column_stack(np.triu_indices(k - 1, 1)), allow_isolated=True)
    raise GraphError(f"unknown family {family!r}")


def generate_regular_circulant(n: int, k: int) -> Graph:
    """Connected k-regular circulant on n vertices; requires n > k and even n*k."""
    if k < 1 or n <= k:
        raise GraphError("need 1 <= k < n")
    if (n * k) % 2 != 0:
        raise GraphError("no k-regular graph exists on n vertices when n*k is odd")
    # every pair appears once: each jump is below n/2
    i = np.arange(n)
    edges = [np.stack((i, (i + jump) % n), axis=1) for jump in range(1, k // 2 + 1)]
    if k % 2 == 1:
        edges.append(np.stack((i[: n // 2], i[: n // 2] + n // 2), axis=1))
    return build_graph(n, np.concatenate(edges))


# ---------------------------------------------------------------------------
# seeded random connected graphs

# the random graphs of one batch hold at most this many edges together, so
# its transient arrays (about 50 bytes per edge) stay small beside them
_BATCH_EDGES = 2048


def _prufer_decode(n: int, seq: list, degree: list, ends: list) -> None:
    """Append to ``ends`` the endpoints (lo, hi) of each edge of the tree
    with Prufer sequence ``seq``, in decode order; ``degree[v]`` is one
    plus the count of v in seq, and is used up.  Linear time: ``ptr``
    scans up for the smallest leaf, and a vertex that becomes a leaf below
    ``ptr`` is the next smallest at once."""
    ptr = degree.index(1)
    leaf = ptr
    for x in seq:
        ends += (leaf, x) if leaf < x else (x, leaf)
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    # vertex n - 1 is never the smallest of two leaves, so it stays to the end
    ends += (leaf, n - 1)


def _fisher_yates_picks(targets: np.ndarray, steps: np.ndarray, base=0) -> np.ndarray:
    """The value each step reads in a partial Fisher-Yates shuffle of the
    positions 0, 1, 2, ...: step k swaps positions k and ``targets[k]`` >= k
    and reads the value it moves to position k.  ``steps`` holds k; in a
    batch, ``base`` offsets each shuffle's positions so that no two share
    a key.

    No step loop runs.  Position k is never touched after step k, so just
    before step k position p holds what the last earlier step that
    targeted p wrote there, which is the value position k' held just before
    its step k'; if no earlier step targeted p it holds p.  These "last
    earlier write" links form a forest over the steps, resolved by pointer
    jumping; ``_stable_order`` lists the steps by target, in step order."""
    if not len(targets):
        return targets
    keys = targets + base
    order = _stable_order(keys)
    keys = keys[order]
    step = np.arange(len(order))
    # the last earlier step with the same target, or the step itself
    prev = step.copy()
    same = keys[1:] == keys[:-1]
    prev[order[1:][same]] = order[:-1][same]
    # the step that last wrote position k before step k: the last step that
    # targets k, unless that is step k itself, which then stays a root; its
    # value is never read, as no later step targets k
    at = keys.searchsorted(steps + base, side="right") - 1
    parent = np.where(keys[at] == steps + base, order[at], step)
    while True:
        up = parent[parent]
        if (up == parent).all():
            break
        parent = up
    return np.where(prev == step, targets, steps[parent[prev]])


def _random_connected(specs) -> list:
    """The graphs of checked (n, m, seed) specs, built in one batch.

    Per-graph terms are spread over the draws, steps and edges of their
    graph.  A key adds to a pair rank the number of pairs of the graphs
    before its graph, which keeps the graphs apart in every sort and
    search.  A lone spec keeps its terms as Python ints and has no keys."""
    ns, ms = [n for n, _, _ in specs], [m for _, m, _ in specs]
    if len(specs) == 1:
        n, m = ns[0], ms[0]

        def spread(x, counts):
            return x

        def before(x):
            return 0

    else:
        n, m = np.array(ns), np.array(ms)
        spread = np.repeat

        def before(x):
            return np.cumsum(x) - x

    pairs = n * (n - 1) // 2
    base, first, trees_before = before(pairs), before(n), before(n - 1)
    # each stream draws n - 2 Prufer entries, then the offsets of a partial
    # Fisher-Yates over the non-tree pairs; step k of it draws below size - k
    size, extra, draws = pairs - n + 1, m - n + 1, m - 1
    k = np.arange(sum(ms) - len(ms)) - spread(before(draws) + n - 2, draws)
    shuffled = k >= 0
    bounds = np.where(shuffled, spread(size, draws) - k, spread(n, draws))
    values = below_streams([seed for _, _, seed in specs], [c - 1 for c in ms], bounds)
    values = values.view(np.int64)  # every bound is below 2^63
    seqs = values[~shuffled]
    degree = (np.bincount(seqs + spread(first, n - 2), minlength=sum(ns)) + 1).tolist()
    steps = k[shuffled]
    targets = steps + values[shuffled]
    del k, shuffled, bounds, values  # the largest transients go first
    seqs, ends, i, j = seqs.tolist(), [], 0, 0
    for count in ns:
        _prufer_decode(count, seqs[i : i + count - 2], degree[j : j + count], ends)
        i, j = i + count - 2, j + count
    u, v = np.array(ends, dtype=np.int64).reshape(-1, 2).T
    # a pair (i, j) has rank i (2n - i - 1)/2 + j - i - 1 in lexicographic
    # order; the tree layout also holds one row start per row 0..n-2
    n_tree, base_tree = spread(n, n - 1), spread(base, n - 1)
    row = np.arange(len(u)) - spread(trees_before, n - 1)
    starts = (row * (2 * n_tree - row - 1) >> 1) + base_tree
    tree = (u * (2 * n_tree - u - 1) >> 1) + v - u - 1 + base_tree
    tree.sort()
    tree -= row
    del seqs, degree, ends, u, v, n_tree, base_tree, row
    # the pick at position p of the non-tree pairs has rank p plus the number
    # of sorted tree ranks T_r with T_r - r <= p.  Sorted together, the keys
    # 2 (T_r - r) and 2 p + 1 list all ranks in order, and the tree keys at
    # or before a pick count the tree ranks it skips
    base_steps = spread(base, extra)
    picks = _fisher_yates_picks(targets, steps, base_steps)
    keys = np.concatenate((2 * tree, 2 * (picks + base_steps) + 1))
    del targets, steps, tree, picks
    keys.sort()
    is_tree = 1 - (keys & 1)
    ranks = (keys >> 1) + is_tree.cumsum() - is_tree - spread(trees_before, m)
    del keys, is_tree
    # invert each rank through the exact table of row starts of its graph
    at = starts.searchsorted(ranks, side="right") - 1
    edges = np.empty((len(ranks), 2), dtype=np.int64)
    edges[:, 0] = at - spread(trees_before, m)
    edges[:, 1] = ranks - starts[at] + edges[:, 0] + 1
    degrees = np.bincount(edges.ravel() + spread(first, 2 * m), minlength=sum(ns))
    edges.flags.writeable = False
    degrees.flags.writeable = False
    graphs, i, j = [], 0, 0
    for count, edge_count in zip(ns, ms):
        graphs.append(Graph(count, edges[i : i + edge_count], degrees[j : j + count]))
        graphs[-1].__dict__["components"] = 1  # it contains its Prufer tree
        i, j = i + edge_count, j + count
    return graphs


def generate_random_connected_many(specs) -> list:
    """``[generate_random_connected(n, m, seed) for n, m, seed in specs]``,
    built in batches of whole-array work: the draws of every graph at once
    (one SplitMix64 stream per graph, the Prufer entries first), the
    Fisher-Yates picks without a step loop, and the tree and pick ranks
    merged and inverted per graph by keyed sorts and searches.  Only the
    Prufer decode runs graph by graph.  A batch holds at most
    ``_BATCH_EDGES`` edges (or one graph), and its keys stay below 2^62."""
    graphs, batch, edges, pairs = [], [], 0, 0
    for n, m, seed in specs:
        n, m = operator.index(n), operator.index(m)
        if n < 2:
            raise GraphError("need at least 2 vertices")
        max_m = n * (n - 1) // 2
        if not n - 1 <= m <= max_m:
            raise GraphError(f"edge count must satisfy {n - 1} <= m <= {max_m}")
        edges, pairs = edges + m, pairs + max_m
        if batch and (edges > _BATCH_EDGES or pairs >= 2**61):
            graphs += _random_connected(batch)
            batch, edges, pairs = [], m, max_m
        batch.append((n, m, seed))
    if batch:
        graphs += _random_connected(batch)
    return graphs


def generate_random_connected(n: int, m: int, seed: int) -> Graph:
    """Seeded random connected (n, m)-graph.

    A uniform spanning tree is drawn from a Prufer sequence, then the
    remaining m-(n-1) edges are a uniform sample of the non-tree pairs via
    partial Fisher-Yates over the lexicographic pair list, whose picks are
    resolved without a step loop (see ``_fisher_yates_picks``).
    Deterministic in (n, m, seed); memory is O(m), never O(n^2).
    """
    return generate_random_connected_many([(n, m, seed)])[0]


# ---------------------------------------------------------------------------
# invariants and traversal


class DegreeProfile(NamedTuple):
    """What the degree sequence alone determines: delta, Delta and M1."""

    delta: int
    Delta: int
    m1: int


def degree_profile(g: Graph) -> DegreeProfile:
    """Degree extremes and first Zagreb index."""
    deg = g.degrees
    return DegreeProfile(
        delta=int(deg.min()),
        Delta=int(deg.max()),
        m1=int((deg * deg).sum()),
    )


def is_connected(g: Graph) -> bool:
    """True when g has one component (``Graph.components``)."""
    return g.components == 1


def is_bipartite(g: Graph):
    """Two-color by BFS.  Returns (True, (part0, part1)) or (False, None)."""
    if not g._bipartite:
        return False, None
    color = g._two_coloring[0]
    part0, part1 = (tuple(np.flatnonzero(color == c).tolist()) for c in (0, 1))
    return True, (part0, part1)


def is_regular(g: Graph) -> bool:
    return bool((g.degrees == g.degrees[0]).all())


# ---------------------------------------------------------------------------
# edge-list file format


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format.

    Lines are LF-separated; blank lines and lines starting with '#' are
    skipped.  The first significant line is the vertex count n; every
    following line is "i j" with 0 <= i < j < n.  Duplicate edges are
    rejected, and every vertex must be on an edge.  Errors about a line
    carry its 1-based number.
    """
    n = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise EdgeListError(
                    f"line {lineno}: expected vertex count, got {line!r}"
                ) from None
            if n < 1:
                raise EdgeListError(f"line {lineno}: vertex count must be at least 1")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(
                f"line {lineno}: expected 'i j', got {line!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(
                f"line {lineno}: endpoints must be integers, got {line!r}"
            ) from None
        if not u < v:
            raise EdgeListError(
                f"line {lineno}: endpoints must satisfy i < j, got {u} {v}"
            )
        if u < 0 or v >= n:
            raise EdgeListError(
                f"line {lineno}: edge ({u}, {v}) out of range for n={n}"
            )
        if (u, v) in seen:
            raise EdgeListError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))
    if n is None:
        raise EdgeListError("empty input: expected a vertex count line")
    covered = {v for edge in edges for v in edge}
    if len(covered) < n < 2**63:  # refused before n degrees are allocated
        k = next(v for v in range(n) if v not in covered)
        raise EdgeListError(f"vertex {k} is on no edge of the file")
    return build_graph(n, edges, allow_isolated=True)


def write_edge_list(g: Graph) -> str:
    """Canonical edge-list text: n, then sorted 'i j' lines, LF-terminated."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
