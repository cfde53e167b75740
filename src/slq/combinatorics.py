"""Exact combinatorial oracles, brute force with explicit size limits.

Everything here is exponential-time by design: these are ground-truth
oracles for the spread bounds, not production solvers.  Each operation
refuses inputs above its size limit by raising OracleLimitError so
callers can degrade gracefully.  ``limit=None`` means the oracle's own
default (ALPHA_LIMIT, VB_LIMIT or EB_LIMIT).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import Graph, is_bipartite

ALPHA_LIMIT = 30
VB_LIMIT = 20
EB_LIMIT = 24


class OracleLimitError(ValueError):
    """Input exceeds the brute-force size limit for an oracle."""

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


def independence_number(g: Graph, limit: Optional[int] = None) -> int:
    """Maximum independent set size by branch and bound on bitmasks."""
    limit = ALPHA_LIMIT if limit is None else limit
    if g.n > limit:
        raise OracleLimitError("independence number", g.n, limit)
    adj = _adjacency_masks(g)
    best = 0

    def expand(cand: int, size: int):
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if cand == 0:
            best = size
            return
        # pivot on the candidate with most candidate neighbors
        v = -1
        vdeg = -1
        c = cand
        while c:
            b = c & -c
            u = b.bit_length() - 1
            d = (adj[u] & cand).bit_count()
            if d > vdeg:
                v, vdeg = u, d
            c ^= b
        bit = 1 << v
        expand(cand & ~(adj[v] | bit), size + 1)
        if vdeg > 0:
            # excluding v only matters when v has candidate neighbors
            expand(cand & ~bit, size)

    expand((1 << g.n) - 1, 0)
    return best


def vertex_cover_number(g: Graph, limit: Optional[int] = None) -> int:
    """tau = n - alpha (complement of a maximum independent set)."""
    return g.n - independence_number(g, limit=limit)


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


def vertex_bipartiteness(g: Graph, limit: Optional[int] = None) -> int:
    """Minimum number of vertex deletions leaving a bipartite graph.

    Exhaustive over deletion sets in order of increasing size; the first
    hit is optimal.  Bipartite inputs short-circuit to 0.
    """
    if is_bipartite(g)[0]:
        return 0
    limit = VB_LIMIT if limit is None else limit
    if g.n > limit:
        raise OracleLimitError("vertex bipartiteness", g.n, limit)
    adj = _adjacency_masks(g)
    # deleting all but 2 vertices always suffices
    for k in range(1, g.n - 1):
        for subset in itertools.combinations(range(g.n), k):
            removed = 0
            for v in subset:
                removed |= 1 << v
            if _bipartite_after_removal(adj, g.n, removed):
                return k
    return g.n - 2


def max_cut(g: Graph, limit: Optional[int] = None) -> int:
    """Maximum cut size over all 2^(n-1) bipartitions (vertex n-1 pinned)."""
    limit = EB_LIMIT if limit is None else limit
    if g.n > limit:
        raise OracleLimitError("max cut", g.n, limit)
    if g.m == 0:
        return 0
    total = 1 << (g.n - 1)
    chunk = 1 << 20
    best = 0
    one = np.uint64(1)
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        acc = np.zeros(masks.shape[0], dtype=np.uint16)
        for u, v in g.edges:
            acc += (((masks >> np.uint64(u)) ^ (masks >> np.uint64(v))) & one).astype(
                np.uint16
            )
        best = max(best, int(acc.max()))
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
