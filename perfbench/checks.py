"""Correctness checks on what each workload's program calls return.

None of them calls slq's eigensolver or oracles: the spreads are
recomputed with ``np.linalg.eigvalsh`` on a matrix assembled here, and
the oracle values are held against closed forms, values recorded from
this package and one-sided bounds from greedy solutions.  Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io

SPREAD_RTOL = 1e-9

# (alpha, vertex bipartiteness, edge bipartiteness) of the oracle_small
# random members, recorded from slq.combinatorics
RECORDED_ORACLE_VALUES = {
    "rand:n=16,m=32,seed=8631957831668394588": (7, 4, 8),
    "rand:n=16,m=48,seed=7692986104271406305": (6, 6, 11),
    "rand:n=16,m=64,seed=2073255812448292667": (5, 7, 20),
    "rand:n=17,m=34,seed=2384282141814561249": (7, 4, 5),
    "rand:n=17,m=51,seed=1295983908386715082": (6, 7, 14),
    "rand:n=17,m=68,seed=2177544841222198934": (5, 8, 22),
    "rand:n=18,m=36,seed=393734565146676707": (7, 5, 7),
    "rand:n=18,m=54,seed=2957421043113230456": (6, 7, 15),
    "rand:n=18,m=72,seed=2111055161533036032": (6, 8, 21),
    "rand:n=19,m=38,seed=9012881196754619843": (8, 3, 7),
    "rand:n=19,m=57,seed=190637571743043143": (6, 7, 14),
    "rand:n=19,m=76,seed=8628841098075897184": (5, 9, 22),
    "rand:n=20,m=40,seed=6498665209168132836": (9, 3, 8),
    "rand:n=20,m=60,seed=7955836555317649619": (7, 7, 16),
    "rand:n=20,m=80,seed=3877864773555672700": (6, 9, 25),
}


def closed_form_oracle_values(kind: str, params) -> tuple:
    """(alpha, vb, eb) of complete graphs, cycles and complete bipartite graphs."""
    if kind == "complete":
        k = params
        return 1, k - 2, k * (k - 1) // 2 - (k * k) // 4
    if kind == "cycle":
        k = params
        odd = k % 2
        return k // 2, odd, odd
    if kind == "kbip":
        p, q = params
        return max(p, q), 0, 0
    raise ValueError(f"no closed form for {kind!r}")


# ---------------------------------------------------------------------------
# validate


def check_validate_report(report, corpus_size: int, catalog_size: int) -> list:
    """The suite passed and accounted for every graph and every cell."""
    problems = []
    if not report.ok:
        problems.append("validation report is not ok")
    if report.graphs_checked != corpus_size:
        problems.append(
            f"graphs_checked {report.graphs_checked} != corpus size {corpus_size}"
        )
    cells = report.cells_checked + report.inapplicable_cells
    if cells != corpus_size * catalog_size:
        problems.append(
            f"cells {cells} != {corpus_size} graphs x {catalog_size} catalog entries"
        )
    return problems


# ---------------------------------------------------------------------------
# table_large


def reference_spread(n: int, edges) -> float:
    """q_1 - q_n of Q = D + A assembled from the edge list."""
    import numpy as np  # here, so that a set-up probe loads numpy only if slq does

    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    q = np.zeros((n, n))
    q[e[:, 0], e[:, 1]] = 1.0
    q[e[:, 1], e[:, 0]] = 1.0
    q[np.arange(n), np.arange(n)] = q.sum(axis=1)
    values = np.linalg.eigvalsh(q)
    return float(values[-1] - values[0])


def check_table_row(output, n: int, m: int, s_q: float) -> list:
    """run_table output (csv text, exit code) for a one-graph table."""
    text, code = output
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 1:
        return problems + [f"expected 1 table row, got {len(rows)}"]
    row = rows[0]
    if (row.get("n"), row.get("m")) != (str(n), str(m)):
        problems.append(f"n, m = {row.get('n')}, {row.get('m')}, expected {n}, {m}")
    try:
        got = float(row["s_Q"])
    except (KeyError, ValueError):
        return problems + [f"unreadable s_Q {row.get('s_Q')!r}"]
    if not abs(got - s_q) <= SPREAD_RTOL * abs(s_q):
        problems.append(f"s_Q {got!r} differs from eigvalsh {s_q!r}")
    return problems


# ---------------------------------------------------------------------------
# oracle_small


def parse_invariants(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _masks(n: int, edges) -> list:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def greedy_independent_set(n: int, edges) -> int:
    """Size of a minimum-degree-first maximal independent set."""
    adj = _masks(n, edges)
    alive = (1 << n) - 1
    size = 0
    while alive:
        v = min(
            (u for u in range(n) if alive >> u & 1),
            key=lambda u: (adj[u] & alive).bit_count(),
        )
        size += 1
        alive &= ~(adj[v] | 1 << v)
    return size


def greedy_matching(edges) -> int:
    used = set()
    size = 0
    for u, v in edges:
        if u not in used and v not in used:
            used.update((u, v))
            size += 1
    return size


def greedy_cut(n: int, edges) -> int:
    """Cut size after single-vertex flips until none improves it."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    side = [v % 2 for v in range(n)]
    improved = True
    while improved:
        improved = False
        for v in range(n):
            same = sum(1 for w in adj[v] if side[w] == side[v])
            if 2 * same > len(adj[v]):
                side[v] ^= 1
                improved = True
    return sum(1 for u, v in edges if side[u] != side[v])


def _two_colorable(n: int, adj, keep: int) -> bool:
    color = {}
    for start in range(n):
        if not keep >> start & 1 or start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            nbrs = adj[u] & keep
            while nbrs:
                b = nbrs & -nbrs
                w = b.bit_length() - 1
                nbrs ^= b
                if w not in color:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def greedy_bipartite_set(n: int, edges) -> int:
    """Size of an induced bipartite subgraph grown vertex by vertex."""
    adj = _masks(n, edges)
    keep = 0
    for v in sorted(range(n), key=lambda u: adj[u].bit_count()):
        if _two_colorable(n, adj, keep | 1 << v):
            keep |= 1 << v
    return keep.bit_count()


def check_invariants(text: str, n: int, edges, expected=None) -> list:
    """run_invariants output against exact expected values when known and,
    always, against the greedy one-sided bounds."""
    fields = parse_invariants(text)
    m = len(edges)
    try:
        alpha = int(fields["alpha"])
        vb = int(fields["vertex_bipartiteness"])
        eb = int(fields["edge_bipartiteness"])
        got_n, got_m = int(fields["n"]), int(fields["m"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable invariants output ({exc!r})"]
    problems = []
    if (got_n, got_m) != (n, m):
        problems.append(f"n, m = {got_n}, {got_m}, expected {n}, {m}")
    if expected is not None and (alpha, vb, eb) != tuple(expected):
        problems.append(f"(alpha, vb, eb) = {(alpha, vb, eb)}, expected {tuple(expected)}")
    if not greedy_independent_set(n, edges) <= alpha <= n - greedy_matching(edges):
        problems.append(f"alpha {alpha} outside its greedy bounds")
    if not greedy_cut(n, edges) <= m - eb <= m:
        problems.append(f"max cut {m - eb} outside its greedy bounds")
    bipartite = _two_colorable(n, _masks(n, edges), (1 << n) - 1)
    if (vb == 0) != bipartite or not 0 <= vb <= n - greedy_bipartite_set(n, edges):
        problems.append(f"vertex bipartiteness {vb} outside its greedy bounds")
    return problems
