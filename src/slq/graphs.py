"""Simple undirected graphs: validated construction, named families,
seeded random connected graphs, degree invariants, and edge-list I/O.

Vertices are 0-indexed.  Edges are stored canonically as a sorted tuple of
(i, j) pairs with i < j, so two equal graphs compare and hash equal.
Isolated vertices are rejected by default (the spread bounds assume every
vertex has an edge) and admitted only through ``allow_isolated``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .rng import SplitMix64


class GraphError(ValueError):
    """Invalid graph construction input."""


class EdgeListError(GraphError):
    """Malformed edge-list text."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph.  Build through :func:`build_graph`."""

    n: int
    edges: tuple
    degrees: tuple
    neighbors: tuple

    @property
    def m(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges, allow_isolated: bool = False) -> Graph:
    """Validate and canonicalize an edge list into a Graph."""
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
    nbrs = [[] for _ in range(n)]
    for u, v in canon:
        deg[u] += 1
        deg[v] += 1
        nbrs[u].append(v)
        nbrs[v].append(u)
    if not allow_isolated:
        for v in range(n):
            if deg[v] == 0:
                raise GraphError(
                    f"vertex {v} is isolated; pass allow_isolated=True to admit it"
                )
    return Graph(
        n=n,
        edges=tuple(canon),
        degrees=tuple(deg),
        neighbors=tuple(tuple(sorted(a)) for a in nbrs),
    )


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
        return build_graph(
            p + q, [(i, p + j) for i in range(p) for j in range(q)]
        )
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
        return build_graph(
            k,
            [(i, j) for i in range(k) for j in range(i + 1, k)],
            allow_isolated=k == 1,
        )
    if family == "star":
        if k < 1:
            raise GraphError("star needs at least 1 leaf")
        return build_graph(k + 1, [(0, i) for i in range(1, k + 1)])
    if family == "kn1uk1":
        if k < 3:
            raise GraphError("kn1uk1 needs at least 3 vertices")
        return build_graph(
            k,
            [(i, j) for i in range(k - 1) for j in range(i + 1, k - 1)],
            allow_isolated=True,
        )
    raise GraphError(f"unknown family {family!r}")


def generate_regular_circulant(n: int, k: int) -> Graph:
    """Connected k-regular circulant on n vertices; requires n > k and even n*k."""
    if k < 1 or n <= k:
        raise GraphError("need 1 <= k < n")
    if (n * k) % 2 != 0:
        raise GraphError("no k-regular graph exists on n vertices when n*k is odd")
    edges = set()
    for jump in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + jump) % n
            edges.add((min(i, j), max(i, j)))
    if k % 2 == 1:
        half = n // 2
        for i in range(half):
            edges.add((i, i + half))
    return build_graph(n, sorted(edges))


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
    in (n, m, seed).
    """
    if n < 2:
        raise GraphError("need at least 2 vertices")
    max_m = n * (n - 1) // 2
    if not n - 1 <= m <= max_m:
        raise GraphError(f"edge count must satisfy {n - 1} <= m <= {max_m}")
    rng = SplitMix64(seed)
    tree = _prufer_tree_edges(n, rng)
    extra = m - (n - 1)
    if extra:
        # the pool holds lexicographic pair ranks, (i, j) -> i (2n - i - 1)/2
        # + j - i - 1, which index the pairs np.triu_indices(n, 1) lists
        i, j = np.array(tree, dtype=np.int64).T
        in_tree = np.zeros(max_m, dtype=bool)
        in_tree[i * (2 * n - i - 1) // 2 + j - i - 1] = True
        pool = np.flatnonzero(~in_tree)
        rng.shuffle_prefix(pool, extra)
        rows, cols = np.triu_indices(n, 1)
        chosen = pool[:extra]
        tree.extend(zip(rows[chosen].tolist(), cols[chosen].tolist()))
    return build_graph(n, tree)


# ---------------------------------------------------------------------------
# invariants and traversal


@dataclass(frozen=True, eq=False)
class DegreeProfile:
    """Degree sequence and the derived quantities the bounds consume."""

    degrees: np.ndarray
    delta: int
    Delta: int
    avg: float
    m1: int
    d2: np.ndarray


def degree_profile(g: Graph) -> DegreeProfile:
    """Degrees, extremes, average 2m/n, first Zagreb index, and d2 = A d."""
    deg = np.asarray(g.degrees, dtype=np.int64)
    u, v = np.asarray(g.edges, dtype=np.intp).reshape(-1, 2).T
    d2 = np.zeros(g.n, dtype=np.int64)
    np.add.at(d2, v, deg[u])
    np.add.at(d2, u, deg[v])
    return DegreeProfile(
        degrees=deg,
        delta=int(deg.min()),
        Delta=int(deg.max()),
        avg=2.0 * g.m / g.n,
        m1=int((deg * deg).sum()),
        d2=d2,
    )


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability from vertex 0."""
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in g.neighbors[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == g.n


def is_bipartite(g: Graph):
    """Two-color by BFS.  Returns (True, (part0, part1)) or (False, None)."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            nxt = []
            for u in queue:
                for v in g.neighbors[u]:
                    if color[v] == -1:
                        color[v] = 1 - color[u]
                        nxt.append(v)
                    elif color[v] == color[u]:
                        return False, None
            queue = nxt
    part0 = tuple(v for v in range(g.n) if color[v] == 0)
    part1 = tuple(v for v in range(g.n) if color[v] == 1)
    return True, (part0, part1)


def is_regular(g: Graph) -> bool:
    return len(set(g.degrees)) == 1


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
