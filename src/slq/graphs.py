"""Simple undirected graphs: validated construction, named families,
seeded random connected graphs, degree invariants, and edge-list I/O.

Vertices are 0-indexed.  A graph stores its edges once, as a read-only array
of pairs i < j in lexicographic order, so equal graphs compare and hash equal.
Isolated vertices are rejected by default (the spread bounds assume every
vertex has an edge) and admitted only through ``allow_isolated``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import SplitMix64


class GraphError(ValueError):
    """Invalid graph construction input."""


class EdgeListError(GraphError):
    """Malformed edge-list text."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple graph.  Build through :func:`build_graph`.

    ``edge_array`` (m x 2) and ``degrees`` are read-only int64 arrays;
    ``edges`` holds the same pairs as Python ints, made on first use."""

    n: int
    edge_array: np.ndarray
    degrees: np.ndarray

    @property
    def m(self) -> int:
        return len(self.edge_array)

    @cached_property
    def edges(self) -> tuple:
        return tuple(map(tuple, self.edge_array.tolist()))

    @cached_property
    def _two_coloring(self):
        """Breadth-first two-coloring of each component from its smallest
        vertex: the read-only color array and the number of components."""
        ends = self.edge_array.ravel()
        # a stable sort lists the edges at each vertex in lexicographic
        # order, so its neighbours come out ascending
        tips = ends[np.argsort(ends, kind="stable") ^ 1].tolist()
        stops = np.cumsum(self.degrees).tolist()
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
        return build_graph(k, [(i, i + 1) for i in range(k - 1)], allow_isolated=k == 1)
    if family == "cycle":
        if k < 3:
            raise GraphError("cycle needs at least 3 vertices")
        return build_graph(k, [(i, (i + 1) % k) for i in range(k)])
    if family == "complete":
        if k < 1:
            raise GraphError("complete needs at least 1 vertex")
        return build_graph(k, np.column_stack(np.triu_indices(k, 1)), allow_isolated=k == 1)
    if family == "star":
        if k < 1:
            raise GraphError("star needs at least 1 leaf")
        return build_graph(k + 1, [(0, i) for i in range(1, k + 1)])
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


def _prufer_tree_edges(n: int, rng: SplitMix64):
    """Uniform labeled tree on n vertices from a random Prufer sequence."""
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


def generate_random_connected(n: int, m: int, seed: int) -> Graph:
    """Seeded random connected (n, m)-graph.

    A uniform spanning tree is drawn from a Prufer sequence, then the
    remaining m-(n-1) edges are a uniform sample of the non-tree pairs via
    partial Fisher-Yates over the lexicographic pair list.  Deterministic
    in (n, m, seed); memory is O(m), never O(n^2).
    """
    if n < 2:
        raise GraphError("need at least 2 vertices")
    max_m = n * (n - 1) // 2
    if not n - 1 <= m <= max_m:
        raise GraphError(f"edge count must satisfy {n - 1} <= m <= {max_m}")
    rng = SplitMix64(seed)
    edges = np.array(_prufer_tree_edges(n, rng), dtype=np.int64).reshape(-1, 2)
    extra = m - (n - 1)
    if extra:
        # Fisher-Yates over positions 0..size-1 of the sorted non-tree pair
        # ranks; no draw depends on the contents, so only swapped positions
        # are stored
        size = max_m - (n - 1)
        moved = {}
        picks = []
        for k in range(extra):
            j = k + rng.below(size - k)
            picks.append(moved.get(j, j))
            moved[j] = moved.get(k, k)
        # a position becomes a lexicographic pair rank, (i, j) -> i (2n - i - 1)/2
        # + j - i - 1, by skipping the tree ranks at or below it
        i, j = edges.T
        tree_ranks = np.sort(i * (2 * n - i - 1) // 2 + j - i - 1)
        picks = np.array(picks, dtype=np.int64)
        ranks = picks + np.searchsorted(tree_ranks - np.arange(n - 1), picks, side="right")
        # invert the rank: the float root of the row-start quadratic, then an
        # integer correction by one row either way
        rows = ((2 * n - 1 - np.sqrt((2.0 * n - 1) ** 2 - 8.0 * ranks)) // 2).astype(np.int64)
        rows += (rows + 1) * (2 * n - rows - 2) // 2 <= ranks
        rows -= rows * (2 * n - rows - 1) // 2 > ranks
        cols = ranks - rows * (2 * n - rows - 1) // 2 + rows + 1
        edges = np.concatenate((edges, np.stack((rows, cols), axis=1)))
    return build_graph(n, edges)


# ---------------------------------------------------------------------------
# invariants and traversal


@dataclass(frozen=True, eq=False)
class DegreeProfile:
    """The quantities the bounds derive from the degrees."""

    delta: int
    Delta: int
    m1: int
    d2: np.ndarray


def degree_profile(g: Graph) -> DegreeProfile:
    """Degree extremes, first Zagreb index, and d2 = A d."""
    deg = g.degrees
    u, v = g.edge_array.T
    d2 = np.zeros(g.n, dtype=np.int64)
    np.add.at(d2, v, deg[u])
    np.add.at(d2, u, deg[v])
    return DegreeProfile(
        delta=int(deg.min()),
        Delta=int(deg.max()),
        m1=int((deg * deg).sum()),
        d2=d2,
    )


def is_connected(g: Graph) -> bool:
    """True when breadth-first search finds a single component."""
    return g._two_coloring[1] == 1


def is_bipartite(g: Graph):
    """Two-color by BFS.  Returns (True, (part0, part1)) or (False, None)."""
    color = g._two_coloring[0]
    u, v = g.edge_array.T
    if (color[u] == color[v]).any():
        return False, None
    part0, part1 = (tuple(np.flatnonzero(color == c).tolist()) for c in (0, 1))
    return True, (part0, part1)


def is_regular(g: Graph) -> bool:
    return bool((g.degrees == g.degrees[0]).all())


# ---------------------------------------------------------------------------
# edge-list file format


def read_edge_list(text: str, allow_isolated: bool = False) -> Graph:
    """Parse the edge-list format.

    Lines are LF-separated; blank lines and lines starting with '#' are
    skipped.  The first significant line is the vertex count n; every
    following line is "i j" with 0 <= i < j < n.  Duplicate edges are
    rejected.  Errors carry 1-based line numbers.
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
    return build_graph(n, edges, allow_isolated=allow_isolated)


def write_edge_list(g: Graph) -> str:
    """Canonical edge-list text: n, then sorted 'i j' lines, LF-terminated."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
