"""Exact combinatorial oracles with explicit size limits.

These exponential-time ground-truth oracles refuse inputs above their size
limit by raising OracleLimitError, so callers can degrade gracefully;
``limit=None`` means the oracle's own default (ALPHA_LIMIT, VB_LIMIT or
EB_LIMIT).  Each oracle takes a Graph or an OracleRecord, which holds what
the oracles share on one graph, each part made on first use: the
neighbourhood bitmasks in ascending degree order (one pass over the
edges), the masks of G □ K2 derived from them, the bipartite flag of the
graph's two-coloring, and alpha(G) with one maximum independent set S.
Every oracle checks its own limit before it runs or reads a search, so a
shared record refuses exactly as a fresh graph does.  Vertex bipartiteness
and max cut first read the two-coloring: a bipartite graph, an edgeless
one too, is answered (0 and m) at any n, and only then is the limit
checked.

Independence numbers come from a branch and bound for a maximum clique of
the complement (Tomita's MCQ), pruned by a greedy clique cover, with the
vertices taken in ascending degree order.  Vertex bipartiteness is
n - alpha(G □ K2): an induced bipartite subgraph of G is two disjoint
independent sets, i.e. one independent set of the Cartesian product of G
with an edge.  The two copies of each vertex are neighbours in bit order,
so the greedy cover pairs them.  The search starts from the incumbent
alpha(G) + alpha(G - S), S on copy 0 and a maximum independent set of
G - S on copy 1, and is skipped when that meets the bound 2 alpha(G); the
values are those of a search from nothing.  Swapping the two copies is an
automorphism of G □ K2, so some maximum independent set avoids copy 1 of
the lowest-degree vertex, and the search starts without it.  Max cut
tabulates, in place by doubling, only the 2^(n - alpha - 1) bipartitions
of the vertices outside S, one of them pinned; each vertex of S then takes
its better side on its own, which is exact because S has no inner edges.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Optional

import numpy as np

from .graphs import Graph

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
    """Neighbourhood bitmasks, with the vertices relabelled in ascending
    degree order (a stable sort): the branch and bound takes the lowest bit
    first."""
    label = np.empty(g.n, dtype=np.int64)
    label[np.argsort(g.degrees, kind="stable")] = np.arange(g.n)
    adj = [0] * g.n
    for u, v in label[g.edge_array].tolist():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _spread(mask: int) -> int:
    """mask with bit r moved to bit 2r: its binary digits read in base 4."""
    return int(format(mask, "b"), 4)


def _max_independent_set(nv: int, adj, cand: Optional[int] = None, incumbent: int = 0):
    """A maximum independent set of the graph on nv vertices with
    neighbourhood bitmasks adj, as (size, mask); with ``cand``, of the
    subgraph induced by that mask.  The search starts from the independent
    set ``incumbent`` and returns it when it finds no larger set."""
    best = incumbent.bit_count()
    found = incumbent

    def expand(cand: int, size: int, chosen: int):
        nonlocal best, found
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
                expand(rest, size + 1, chosen | b)
            elif size + 1 > best:
                best = size + 1
                found = chosen | b
            cand ^= b

    expand((1 << nv) - 1 if cand is None else cand, 0, 0)
    return best, found


class OracleRecord:
    """What the oracles share on one graph, each part made on first use."""

    def __init__(self, graph: Graph):
        self.graph = graph

    @cached_property
    def masks(self) -> list:
        return _adjacency_masks(self.graph)

    @cached_property
    def doubled_masks(self) -> list:
        """The masks of G □ K2, whose two copies of the vertex of rank r
        are 2r and 2r + 1: each mask of G spread to the even bits."""
        adj = []
        for r, a in enumerate(self.masks):
            even = _spread(a)
            adj += (even | 2 << 2 * r, even << 1 | 1 << 2 * r)
        return adj

    @property
    def bipartite(self) -> bool:
        """Read from the graph, which keeps it with its two-coloring."""
        return self.graph._bipartite

    @cached_property
    def alpha(self) -> tuple:
        """alpha(G) and one maximum independent set, as a mask of ranks."""
        return _max_independent_set(self.graph.n, self.masks)


def _record(g) -> OracleRecord:
    return g if isinstance(g, OracleRecord) else OracleRecord(g)


def _check_limit(what: str, n: int, limit: Optional[int], default: int):
    """Refuse n above the limit, which is ``default`` when limit is None."""
    limit = default if limit is None else limit
    if n > limit:
        raise OracleLimitError(what, n, limit)


def _prism_independent_set(record: OracleRecord):
    """A maximum independent set of G □ K2, as (size, mask of the doubled
    ranks).  S on copy 0 and a maximum independent set of G - S on copy 1
    are independent in G □ K2; each copy holds at most alpha(G) vertices,
    so an incumbent of 2 alpha(G) needs no search."""
    n = record.graph.n
    alpha, s = record.alpha
    rest, t = _max_independent_set(n, record.masks, ((1 << n) - 1) ^ s)
    incumbent = _spread(s) | _spread(t) << 1
    if rest == alpha:
        return 2 * alpha, incumbent
    # swapping the two copies is an automorphism of G □ K2 that maps a
    # maximum independent set holding copy 1 of the rank-0 vertex (bit 1) to
    # one of the same size holding copy 0 instead, so the search may start
    # without bit 1
    cand = ((1 << 2 * n) - 1) ^ 2
    return _max_independent_set(2 * n, record.doubled_masks, cand, incumbent)


def independence_number(g, limit: Optional[int] = None) -> int:
    """Maximum independent set size of a Graph or OracleRecord."""
    record = _record(g)
    _check_limit("independence number", record.graph.n, limit, ALPHA_LIMIT)
    return record.alpha[0]


def vertex_bipartiteness(g, limit: Optional[int] = None) -> int:
    """Minimum number of vertex deletions leaving a bipartite graph:
    n - alpha(G □ K2).  Bipartite inputs short-circuit to 0."""
    record = _record(g)
    if record.bipartite:
        return 0
    n = record.graph.n
    _check_limit("vertex bipartiteness", n, limit, VB_LIMIT)
    return n - _prism_independent_set(record)[0]


def _side_counts(out, mask: int, masks, split: int):
    """out[j] = the bits of mask set in j, for every j < len(out), a power
    of two; summed over the high and the low ``split`` bits of j, since one
    bit count per entry of a uint32 array costs several byte passes.
    ``masks`` holds 0 .. 2^split - 1."""
    width = 1 << split
    if len(out) <= width:
        np.bitwise_count(masks[: len(out)] & mask, out=out)
    else:
        rows = len(out) >> split
        high = np.bitwise_count(masks[:rows] & (mask >> split))
        low = np.bitwise_count(masks & (mask & (width - 1)))
        np.add(high[:, None], low, out=out.reshape(rows, width))


def _gather(masks, order, n: int) -> list:
    """Each mask with bit order[i] moved to bit i and the bits outside
    order dropped: its n binary digits picked in order."""
    pick = operator.itemgetter(*(n - 1 - r for r in reversed(order)))
    return [int("".join(pick(format(mask, f"0{n}b"))), 2) for mask in masks]


def _max_cut(record: OracleRecord):
    """A maximum cut of a graph that is not bipartite, as (size, mask of
    the ranks on side 1).

    S, the maximum independent set of ``record.alpha``, has no inner
    edges, so once the other t = n - alpha vertices T have sides, each s in
    S takes its better side on its own and cuts max(c_s, d_s - c_s) edges,
    c_s its neighbours on side 1.  Only the bipartitions of T are
    tabulated, the last vertex of T pinned to side 0: 2^(t-1) entries.

    Doubling builds the cut value of every bipartition of the first
    ``head`` = min(t - 1, 20) vertices of T in one table, in place: vertex
    k joins side 0 in the lower half and side 1 in the upper half, and cuts
    its earlier neighbours on the other side.  The other vertices of T (the
    free ones past 20, plus the pinned one) are fixed once per block of
    2^head bipartitions, and vertex k adds its edges to the fixed vertices
    on the other side to the constant of its half, so no array exceeds 2^20
    entries.  Each s in S then adds its best to every entry.
    """
    n, m = record.graph.n, record.graph.m
    _, s = record.alpha
    inside = [r for r in range(n) if s >> r & 1]
    order = [r for r in range(n) if not s >> r & 1]
    t = len(order)
    # the masks of T and S over the positions in order
    adj = _gather([record.masks[r] for r in order], order, n)
    outer = _gather([record.masks[r] for r in inside], order, n)
    head = min(t - 1, 20)
    fixed = ((1 << t) - 1) ^ ((1 << head) - 1)
    # cut <= m, so one byte per entry does below m = 256
    table = np.empty(1 << head, dtype=np.uint8 if m < 256 else np.uint16)
    split = min(head - 1, 10)
    masks = np.arange(1 << split, dtype=np.uint16)
    count = np.empty(1 << (head - 1), dtype=np.uint8)
    spare = np.empty_like(count)
    best = found = 0
    # ones: the fixed vertices on side 1, as a bitmask without vertex t-1
    for ones in range(0, 1 << (t - 1), 1 << head):
        zeros = fixed & ~ones
        # the edges from fixed vertices on side 1 to those on side 0
        table[0] = sum((adj[w] & zeros).bit_count() for w in range(head, t) if ones >> w & 1)
        for k in range(head):
            half = 1 << k
            earlier = adj[k] & (half - 1)
            lower, upper, side1 = table[:half], table[half : 2 * half], count[:half]
            _side_counts(side1, earlier, masks, split)
            # on side 1, vertex k cuts its earlier and fixed neighbours on
            # side 0; on side 0, those on side 1
            np.subtract(earlier.bit_count() + (adj[k] & zeros).bit_count(), side1, out=upper)
            upper += lower
            lower += side1
            fixed1 = (adj[k] & ones).bit_count()
            if fixed1:
                lower += fixed1
        # each s in S adds max(c_s, d_s - c_s): c_s over the lower half of
        # the table first, where vertex head - 1 is on side 0; the upper half
        # differs only where s is its neighbour
        lower, upper = table[: len(count)], table[len(count) :]
        for a in outer:
            _side_counts(count, a & (len(count) - 1), masks, split)
            fixed1 = (a & ones).bit_count()
            if fixed1:
                count += fixed1
            np.subtract(a.bit_count(), count, out=spare)
            np.maximum(count, spare, out=spare)
            lower += spare
            if a >> (head - 1) & 1:
                count += 1
                np.subtract(a.bit_count(), count, out=spare)
                np.maximum(count, spare, out=spare)
            upper += spare
        j = int(table.argmax())
        if table[j] > best:
            best, found = int(table[j]), ones | j
    side1 = sum(1 << r for i, r in enumerate(order) if found >> i & 1)
    for a, r in zip(outer, inside):
        c = (a & found).bit_count()
        if a.bit_count() - c > c:
            side1 |= 1 << r
    return best, side1


def max_cut(g, limit: Optional[int] = None) -> int:
    """Maximum cut size of a Graph or OracleRecord.  A bipartite input
    (an edgeless one too) cuts all m edges at any n; only then is the limit
    checked.  Otherwise ``_max_cut`` tabulates the 2^(n-alpha-1)
    bipartitions of the vertices outside a maximum independent set S, and
    each vertex of S adds its better side.  That is exact because S has no
    inner edges: the side of one s changes the cut of no other."""
    record = _record(g)
    if record.bipartite:
        return record.graph.m
    _check_limit("max cut", record.graph.n, limit, EB_LIMIT)
    return _max_cut(record)[0]


def edge_bipartiteness(g, limit: Optional[int] = None) -> int:
    """Minimum number of edge deletions leaving a bipartite graph: m - maxcut."""
    record = _record(g)
    return record.graph.m - max_cut(record, limit=limit)

