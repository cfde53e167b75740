"""Exact combinatorial oracles with explicit size limits.

These exponential-time ground-truth oracles refuse inputs above their size
limit by raising OracleLimitError, so callers can degrade gracefully;
``limit=None`` means the oracle's own default (ALPHA_LIMIT, VB_LIMIT or
EB_LIMIT).  Independence numbers come from a branch and bound for a maximum
clique of the complement (Tomita's MCQ), pruned by a greedy clique cover,
with the vertices taken in ascending degree order.  Vertex bipartiteness is
n - alpha(G □ K2): an induced bipartite subgraph of G is two disjoint
independent sets, i.e. one independent set of the Cartesian product of G
with an edge.  The two copies of each vertex are neighbours in bit order,
so the greedy cover pairs them.  Swapping the two copies is an automorphism
of G □ K2, so some maximum independent set avoids copy 1 of the
lowest-degree vertex, and the search starts without it.  Max cut
tabulates all bipartitions, in place, by doubling; a bipartite graph cuts
all its edges.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .graphs import Graph, is_bipartite

ALPHA_LIMIT = 30
VB_LIMIT = 20
EB_LIMIT = 24


class OracleLimitError(ValueError):
    """Input exceeds the size limit of an oracle."""

    def __init__(self, what: str, n: int, limit: int):
        super().__init__(f"{what}: n={n} exceeds oracle limit {limit}")
        self.what = what
        self.n = n
        self.limit = limit


def _adjacency_masks(g: Graph, doubled: bool = False):
    """Neighbourhood bitmasks, with the vertices relabelled in ascending
    degree order (a stable sort): the branch and bound takes the lowest bit
    first.  With ``doubled``, the masks of G □ K2, whose two copies of the
    vertex of rank r are 2r and 2r + 1."""
    step = 2 if doubled else 1
    label = np.empty(g.n, dtype=np.int64)
    label[np.argsort(g.degrees, kind="stable")] = np.arange(0, step * g.n, step)
    adj = [0] * (step * g.n)
    for u, v in label[g.edge_array].tolist():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if doubled:
        for u in range(0, 2 * g.n, 2):
            a = adj[u]
            adj[u] = a | 2 << u
            adj[u + 1] = a << 1 | 1 << u
    return adj


def _max_independent_set(nv: int, adj, cand: Optional[int] = None) -> int:
    """Independence number of the graph on nv vertices with neighbourhood
    bitmasks adj; with ``cand``, of the subgraph induced by that mask."""
    best = 0

    def expand(cand: int, size: int):
        nonlocal best
        # cover the candidates greedily by cliques; a vertex in the k-th
        # clique heads a branch that can add at most k vertices
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

    expand((1 << nv) - 1 if cand is None else cand, 0)
    return best


def independence_number(g: Graph, limit: Optional[int] = None) -> int:
    """Maximum independent set size."""
    limit = ALPHA_LIMIT if limit is None else limit
    if g.n > limit:
        raise OracleLimitError("independence number", g.n, limit)
    return _max_independent_set(g.n, _adjacency_masks(g))


def vertex_bipartiteness(g: Graph, limit: Optional[int] = None) -> int:
    """Minimum number of vertex deletions leaving a bipartite graph:
    n - alpha(G □ K2).  Bipartite inputs short-circuit to 0."""
    if is_bipartite(g)[0]:
        return 0
    limit = VB_LIMIT if limit is None else limit
    if g.n > limit:
        raise OracleLimitError("vertex bipartiteness", g.n, limit)
    # swapping the two copies is an automorphism of G □ K2 that maps a
    # maximum independent set holding copy 1 of the rank-0 vertex (bit 1) to
    # one of the same size holding copy 0 instead, so the search may start
    # without bit 1
    cand = ((1 << 2 * g.n) - 1) ^ 2
    return g.n - _max_independent_set(2 * g.n, _adjacency_masks(g, doubled=True), cand)


def max_cut(g: Graph, limit: Optional[int] = None) -> int:
    """Maximum cut size over all 2^(n-1) bipartitions (vertex n-1 of the
    degree order pinned to side 0).  Bipartite inputs short-circuit to m.

    Doubling builds the cut value of every bipartition of the first
    ``head`` = min(n - 1, 20) vertices in one table, in place: vertex k
    joins side 0 in the lower half and side 1 in the upper half, and cuts
    its earlier neighbours on the other side.  The other vertices (at most
    three free vertices at EB_LIMIT, plus the pinned vertex n-1) are fixed
    once per block of 2^head bipartitions, and vertex k adds its edges to
    the fixed vertices on the other side to the constant of its half, so
    no array exceeds 2^20 entries.
    """
    limit = EB_LIMIT if limit is None else limit
    if g.n > limit:
        raise OracleLimitError("max cut", g.n, limit)
    if g.m == 0:
        return 0
    if is_bipartite(g)[0]:
        return g.m
    n = g.n
    adj = _adjacency_masks(g)
    head = min(n - 1, 20)
    fixed = ((1 << n) - 1) ^ ((1 << head) - 1)
    # cut <= m, so one byte per entry does below m = 256
    table = np.empty(1 << head, dtype=np.uint8 if g.m < 256 else np.uint16)
    # count[j]: the earlier neighbours of vertex k on side 1 in bipartition
    # j, summed over the high and the low `split` bits of j; one bit count
    # per entry of a 2^19 uint32 array costs several of these byte passes
    split = min(head - 1, 10)
    width = 1 << split
    masks = np.arange(width, dtype=np.uint16)
    count = np.empty(1 << (head - 1), dtype=np.uint8)
    best = 0
    # ones: the fixed vertices on side 1, as a bitmask without vertex n-1
    for ones in range(0, 1 << (n - 1), 1 << head):
        zeros = fixed & ~ones
        # the edges from fixed vertices on side 1 to those on side 0
        table[0] = sum((adj[w] & zeros).bit_count() for w in range(head, n) if ones >> w & 1)
        for k in range(head):
            half = 1 << k
            earlier = adj[k] & (half - 1)
            lower, upper, side1 = table[:half], table[half : 2 * half], count[:half]
            if k <= split:
                np.bitwise_count(masks[:half] & earlier, out=side1)
            else:
                rows = half >> split
                high = np.bitwise_count(masks[:rows] & (earlier >> split))
                low = np.bitwise_count(masks & (earlier & (width - 1)))
                np.add(high[:, None], low, out=side1.reshape(rows, width))
            # on side 1, vertex k cuts its earlier and fixed neighbours on
            # side 0; on side 0, those on side 1
            np.subtract(earlier.bit_count() + (adj[k] & zeros).bit_count(), side1, out=upper)
            upper += lower
            lower += side1
            fixed1 = (adj[k] & ones).bit_count()
            if fixed1:
                lower += fixed1
        best = max(best, int(table.max()))
    return best


def edge_bipartiteness(g: Graph, limit: Optional[int] = None) -> int:
    """Minimum number of edge deletions leaving a bipartite graph: m - maxcut."""
    return g.m - max_cut(g, limit=limit)

