"""Exact combinatorial oracles with explicit size limits.

These exponential-time ground-truth oracles refuse inputs above their size
limit by raising OracleLimitError, so callers can degrade gracefully;
``limit=None`` means the oracle's own default (ALPHA_LIMIT, VB_LIMIT or
EB_LIMIT).  Independence numbers come from a branch and bound for a maximum
clique of the complement (Tomita's MCQ), pruned by a greedy clique cover.
Vertex bipartiteness is n - alpha(G □ K2): an induced bipartite subgraph of
G is two disjoint independent sets, i.e. one independent set of the
Cartesian product of G with an edge.  Max cut tabulates all bipartitions.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _adjacency_masks(g: Graph):
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _max_independent_set(nv: int, adj) -> int:
    """Independence number of the graph on nv vertices with neighbourhood
    bitmasks adj."""
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

    expand((1 << nv) - 1, 0)
    return best


def independence_number(g: Graph, limit: Optional[int] = None) -> int:
    """Maximum independent set size."""
    limit = ALPHA_LIMIT if limit is None else limit
    if g.n > limit:
        raise OracleLimitError("independence number", g.n, limit)
    return _max_independent_set(g.n, _adjacency_masks(g))


def vertex_cover_number(g: Graph, limit: Optional[int] = None) -> int:
    """tau = n - alpha (complement of a maximum independent set)."""
    return g.n - independence_number(g, limit=limit)


def vertex_bipartiteness(g: Graph, limit: Optional[int] = None) -> int:
    """Minimum number of vertex deletions leaving a bipartite graph:
    n - alpha(G □ K2).  Bipartite inputs short-circuit to 0."""
    if is_bipartite(g)[0]:
        return 0
    limit = VB_LIMIT if limit is None else limit
    if g.n > limit:
        raise OracleLimitError("vertex bipartiteness", g.n, limit)
    n = g.n
    adj = _adjacency_masks(g)
    doubled = [a | 1 << (v + n) for v, a in enumerate(adj)]
    doubled += [a << n | 1 << v for v, a in enumerate(adj)]
    return n - _max_independent_set(2 * n, doubled)


def max_cut(g: Graph, limit: Optional[int] = None) -> int:
    """Maximum cut size over all 2^(n-1) bipartitions (vertex n-1 pinned).

    Doubling builds the cut value of every bipartition of the first
    ``head`` <= 20 vertices: vertex k cuts its earlier neighbours on side 1
    when it joins side 0, and the others when it joins side 1.  The rest
    (at most three free vertices at EB_LIMIT, plus the pinned one) is added
    to that table once per assignment, so no array exceeds 2^20 entries.
    """
    limit = EB_LIMIT if limit is None else limit
    if g.n > limit:
        raise OracleLimitError("max cut", g.n, limit)
    if g.m == 0:
        return 0
    adj = _adjacency_masks(g)
    head = min(g.n - 1, 20)
    low = (1 << head) - 1
    masks = np.arange(1 << head, dtype=np.uint32)
    cut = np.zeros(1, dtype=np.uint16)
    for k in range(head):
        earlier = adj[k] & ((1 << k) - 1)
        side0 = np.bitwise_count(masks[: 1 << k] & earlier)
        cut = np.concatenate((cut + side0, cut + (earlier.bit_count() - side0)))
    tail = [(w, np.bitwise_count(masks & (adj[w] & low)), (adj[w] & low).bit_count())
            for w in range(head, g.n)]
    del masks
    best = 0
    # ones: the tail vertices on side 1, as a bitmask without vertex n-1
    for ones in range(0, 1 << (g.n - 1), 1 << head):
        block = cut.copy()
        within = 0
        for w, side0, degree in tail:
            if ones >> w & 1:
                block += degree - side0
                within += (adj[w] & ~ones & ~low).bit_count()
            else:
                block += side0
        best = max(best, int(block.max()) + within)
    return best


def edge_bipartiteness(g: Graph, limit: Optional[int] = None) -> int:
    """Minimum number of edge deletions leaving a bipartite graph: m - maxcut."""
    return g.m - max_cut(g, limit=limit)


@dataclass(frozen=True)
class DensityConditionReport:
    """Whether n(n-alpha)(n-alpha-1) <= 8m, with the derived quantities."""

    holds: bool
    necessary_holds: bool
    k: int
    alpha: int


def check_density_condition(g: Graph, limit: Optional[int] = None) -> DensityConditionReport:
    """Test n*k*(k-1) <= 8m for k = n - alpha, plus the necessary
    condition 4(n-1) >= k(k-1) that follows from m <= n(n-1)/2."""
    alpha = independence_number(g, limit=limit)
    k = g.n - alpha
    return DensityConditionReport(
        holds=g.n * k * (k - 1) <= 8 * g.m,
        necessary_holds=4 * (g.n - 1) >= k * (k - 1),
        k=k,
        alpha=alpha,
    )
