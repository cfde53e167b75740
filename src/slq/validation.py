"""Corpus construction and bound validation.

The sandwich check drives everything: for every corpus graph and every
applicable catalog entry, a lower bound must sit below the exact spread
and an upper bound above it (each bound is compared against the spread it
targets).  A short list of printed closed forms is known to overshoot on
specific small graphs; those cells are logged instead of failed, and any
other violation is an error.  Equality fixtures, exact matrix identities
and gradient cross-checks round out the suite.  The CLI `validate`
subcommand and the test suite both run through this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .bounds import CatalogOptions, GraphData, evaluate_catalog
from .graphs import (
    build_graph,
    generate_named,
    generate_random_connected_many,
    is_bipartite,
)
from .minmax import (
    f_value,
    grad_f_squared,
    gradient_search,
    numerical_grad_f_squared,
)
from .rng import SplitMix64
from .spectra import (
    adjacency_matrix,
    eigenvalues,
    incidence_matrix,
    laplacian_matrix,
    line_graph,
    oriented_incidence_matrix,
    signless_laplacian_matrix,
)

SANDWICH_TOL = 1e-6

# Entries whose printed closed form is unsound outside a characterized
# graph class.  The degree-only pair form (meg2 and its comparison-section
# alias L1) overshoots s_Q on K_2, K_3 and the 3-vertex path; exhaustive
# search over all 1.89M connected graphs with min degree >= 1 and n <= 7
# found no other violator.  Off the connected case it also overshoots on
# graphs with an isolated vertex (delta = 0 inflates the formula while the
# isolated vertex pins q_n = 0: K_2+K_1 gives sqrt(7) > 2) and on some
# disjoint unions (P_3+K_2 gives sqrt(11) > 3; 2K_2 gives sqrt(8) > 2).
# 2 sqrt(k+1) overshoots on K_2 and K_3.
def printed_form_excluded(name: str, data: GraphData) -> bool:
    """True when an entry hits the known-unsound class of its printed form,
    as the README lists them: meg2 and L1 on K_2, K_3, P_3, graphs with an
    isolated vertex and disconnected graphs; regular_sqrt on K_2 and K_3.
    Such cells are logged rather than failed."""
    g = data.graph
    k2_or_k3 = g.n in (2, 3) and g.m == g.n * (g.n - 1) // 2
    if name == "regular_sqrt":
        return k2_or_k3
    if name in ("meg2", "L1"):
        p3 = g.n == 3 and g.m == 2
        return k2_or_k3 or p3 or data.profile.delta == 0 or not data.connected
    return False


@dataclass(frozen=True)
class CellViolation:
    """One bound value on one graph on the wrong side of the exact spread;
    excluded cells are logged rather than failed."""

    graph_label: str
    entry: str
    direction: str
    target: str
    value: float
    reference: float
    excluded: bool

    def __str__(self):
        rel = "<" if self.direction == "upper" else ">"
        return (
            f"{self.graph_label}: {self.entry} = {self.value:.6f} "
            f"{rel} {self.target} = {self.reference:.6f}"
        )


def cell_violations(label: str, data: GraphData, outcomes, exclude) -> list:
    """The one violation rule: a CellViolation, in outcome order, for each
    evaluated outcome on the wrong side of the spread it targets (a lower
    bound above spread + SANDWICH_TOL, an upper bound below spread -
    SANDWICH_TOL), with excluded = exclude(name, data), False when exclude
    is None.

    The reference is read from data only here, so a spectrum is solved only
    for a cell that needs it.  An upper bound on s_L at or above the upper
    end of q_1's enclosure passes without the Laplacian spectrum: |L| = Q
    entrywise, so mu_1 <= q_1, and s_L = mu_1 - mu_{n-1} <= mu_1.  That
    clears no violated cell; any other s_L cell is decided against s_L."""
    out = []
    for o in outcomes:
        if not o.evaluated:
            continue
        if o.target == "s_Q":
            ref = data.s_q
        elif o.direction == "upper" and o.value >= data.q_extremes.top_enclosure[1]:
            continue
        else:
            ref = data.s_l
        lower = o.direction == "lower"
        if (o.value > ref + SANDWICH_TOL) if lower else (o.value < ref - SANDWICH_TOL):
            excluded = exclude is not None and exclude(o.name, data)
            out.append(CellViolation(label, o.name, o.direction, o.target, o.value, ref, excluded))
    return out


# ---------------------------------------------------------------------------
# corpora


def named_corpus(max_n: int = 12):
    """Every named family member with at most max_n vertices."""
    out = []
    for n in range(2, max_n + 1):
        out.append((f"path:{n}", generate_named("path", n)))
    for n in range(3, max_n + 1):
        out.append((f"cycle:{n}", generate_named("cycle", n)))
    for n in range(2, max_n + 1):
        out.append((f"complete:{n}", generate_named("complete", n)))
    for k in range(1, max_n):
        out.append((f"star:{k}", generate_named("star", k)))
    for p in range(1, max_n // 2 + 1):
        for q in range(p, max_n - p + 1):
            out.append((f"kbip:{p},{q}", generate_named("complete_bipartite", (p, q))))
    for n in range(3, max_n + 1):
        out.append((f"kn1uk1:{n}", generate_named("kn1uk1", n)))
    return out


def _random_graphs(count: int, seed: int, min_n: int, max_n: int, cap) -> list:
    """``count`` labelled seeded random connected graphs.  The specs come
    from one master stream: n in min_n..max_n, m in n - 1..cap(n), then the
    graph's seed; the graphs are then built in batches."""
    master = SplitMix64(seed)
    specs = []
    for _ in range(count):
        n = min_n + master.below(max_n - min_n + 1)
        m = (n - 1) + master.below(cap(n) - (n - 1) + 1)
        specs.append((n, m, master.next_uint64()))
    return [
        (f"rand:n={n},m={m},seed={gseed}", g)
        for (n, m, gseed), g in zip(specs, generate_random_connected_many(specs))
    ]


def random_corpus(count: int = 420, max_n: int = 60, seed: int = 20240817):
    """Seeded random connected graphs, n in 5..max_n.

    Members small enough for the vertex-bipartiteness oracle (n <= 20) are
    kept sparse (m <= n + 5) so the exhaustive oracle stays fast; larger
    members draw any edge count up to 3n.
    """
    return _random_graphs(
        count, seed, 5, max_n, lambda n: min(n * (n - 1) // 2, n + 5 if n <= 20 else 3 * n)
    )


@lru_cache(maxsize=1)
def standard_corpus():
    """Named families (n <= 12) plus 420 seeded random connected graphs."""
    return tuple(named_corpus(12) + random_corpus())


def small_connected_sample(count: int = 200, seed: int = 77001, max_n: int = 8):
    """Seeded random connected graphs small enough for every oracle."""
    return _random_graphs(count, seed, 3, max_n, lambda n: n * (n - 1) // 2)


def random_connected_bipartites(specs) -> list:
    """A random connected bipartite graph per (n, seed) pair: a random tree
    plus a random number of extra edges across its (unique) 2-coloring."""
    trees = generate_random_connected_many([(n, n - 1, seed) for n, seed in specs])
    out = []
    for tree, (n, seed) in zip(trees, specs):
        ok, parts = is_bipartite(tree)
        assert ok
        part0, part1 = parts
        present = set(tree.edges)
        cross = [
            (min(u, v), max(u, v))
            for u in part0
            for v in part1
            if (min(u, v), max(u, v)) not in present
        ]
        cross.sort()
        rng = SplitMix64(seed ^ 0x5EED5EED5EED5EED)
        extra = rng.below(len(cross) + 1) if cross else 0
        rng.shuffle_prefix(cross, extra)
        out.append(build_graph(n, list(tree.edges) + cross[:extra]))
    return out


def random_unit_vector(n: int, rng: SplitMix64) -> np.ndarray:
    """Deterministic unit vector with entries drawn uniformly from [-1, 1)."""
    while True:
        x = np.array(
            [rng.next_uint64() / 2.0**64 * 2.0 - 1.0 for _ in range(n)],
            dtype=np.float64,
        )
        norm = float(np.linalg.norm(x))
        if norm > 1e-3:
            return x / norm


# ---------------------------------------------------------------------------
# report types


@dataclass
class ValidationReport:
    """Aggregated results of a validation run."""

    graphs_checked: int = 0
    cells_checked: int = 0
    inapplicable_cells: int = 0
    failures: list = field(default_factory=list)  # unexcluded CellViolations
    logged: list = field(default_factory=list)  # excluded CellViolations
    fixture_failures: list = field(default_factory=list)
    identity_failures: list = field(default_factory=list)
    gradient_failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.failures
            or self.fixture_failures
            or self.identity_failures
            or self.gradient_failures
        )


# ---------------------------------------------------------------------------
# the sandwich check


def check_sandwich(
    corpus,
    options: Optional[CatalogOptions] = None,
    report: Optional[ValidationReport] = None,
    exclude=printed_form_excluded,
) -> ValidationReport:
    """Every applicable lower bound <= spread + SANDWICH_TOL and every upper
    bound >= spread - SANDWICH_TOL, per target spread, as decided by
    cell_violations.  Violations from excluded cells go to report.logged;
    everything else to report.failures."""
    rep = report if report is not None else ValidationReport()
    for label, g in corpus:
        data = GraphData(g, options)
        outcomes = evaluate_catalog(data)
        evaluated = sum(o.evaluated for o in outcomes)
        rep.graphs_checked += 1
        rep.cells_checked += evaluated
        rep.inapplicable_cells += len(outcomes) - evaluated
        for v in cell_violations(label, data, outcomes, exclude):
            (rep.logged if v.excluded else rep.failures).append(v)
    return rep


# ---------------------------------------------------------------------------
# equality fixtures


def check_equality_fixtures(report: Optional[ValidationReport] = None) -> ValidationReport:
    """Cases where a bound or closed form meets the spread exactly."""
    from . import bounds

    rep = report if report is not None else ValidationReport()

    def expect(label, got, want):
        if abs(got - want) > SANDWICH_TOL:
            rep.fixture_failures.append(f"{label}: got {got!r}, expected {want!r}")

    # one GraphData, and so one spectrum, per fixture graph
    @lru_cache(maxsize=None)
    def named(family, params):
        return GraphData(generate_named(family, params))

    for n in range(2, 31):
        expect(f"s_Q(path:{n})", named("path", n).s_q, 2.0 + 2.0 * np.cos(np.pi / n))
    for family, k in (("star", 3), ("complete", 4), ("cycle", 6), ("cycle", 8)):
        expect(f"s_Q({family}:{k})", named(family, k).s_q, 4.0)
    for n in range(5, 13):
        d = named("kn1uk1", n)
        expect(f"s_Q(kn1uk1:{n})", d.s_q, 2.0 * n - 4.0)
        expect(f"global_2n4(kn1uk1:{n})", bounds.ub_global_2n4(d), 2.0 * n - 4.0)
    for k in range(1, 9):
        d = named("complete_bipartite", (k, k))
        expect(f"mirsky_q(kbip:{k},{k})", bounds.ub_mirsky_q(d), 2.0 * k)
        expect(f"s_Q(kbip:{k},{k})", d.s_q, 2.0 * k)
    specs = [(4 + SplitMix64(990000 + i).below(13), 990100 + i) for i in range(20)]
    for (n, seed), g in zip(specs, random_connected_bipartites(specs)):
        d = GraphData(g)
        expect(f"mu1_minus_vb(bipartite n={n} seed={seed})", bounds.lb_mu1_minus_vb(d), d.s_q)
    for k in range(1, 9):
        d = named("complete", k + 1)
        expect(f"cubic_moment(complete:{k + 1})", bounds.lb_cubic_moment(d), k + 1.0)
        expect(f"s_Q(complete:{k + 1})", d.s_q, k + 1.0)
    for n in range(2, 16):
        d = named("path", n)
        expect(f"path_universal(path:{n})", bounds.lb_path_universal(d), d.s_q)
    for n in range(3, 16, 2):
        d = named("cycle", n)
        expect(f"path_universal(cycle:{n})", bounds.lb_path_universal(d), d.s_q)
    return rep


# ---------------------------------------------------------------------------
# exact matrix identities


def check_identities(
    sample=None, report: Optional[ValidationReport] = None
) -> ValidationReport:
    """Incidence factorizations (exact integer) and the line-graph
    eigenvalue shift q_i = 2 + lambda_i(line graph) for i <= min(m, n)."""
    rep = report if report is not None else ValidationReport()
    if sample is None:
        sample = small_connected_sample(count=100, seed=31001)
    rng = SplitMix64(460001)
    for idx, (label, g) in enumerate(sample):
        inc = incidence_matrix(g)
        q_int = inc @ inc.T
        q = signless_laplacian_matrix(g)
        if not np.array_equal(q_int, q.astype(np.int64)) or not np.array_equal(
            q_int.astype(np.float64), q
        ):
            rep.identity_failures.append(f"{label}: I I^T != Q")
        orientation = [1 if rng.next_uint64() & 1 else -1 for _ in range(g.m)]
        k = oriented_incidence_matrix(g, orientation)
        l_int = k @ k.T
        lap = laplacian_matrix(g)
        if not np.array_equal(l_int.astype(np.float64), lap):
            rep.identity_failures.append(f"{label}: K K^T != L")
        if idx < 50 and g.m >= 1:
            lg = line_graph(g)
            lam = eigenvalues(adjacency_matrix(lg)).values
            qv = eigenvalues(q).values
            top = min(g.m, g.n)
            if np.abs(qv[:top] - (2.0 + lam[:top])).max() > 1e-8:
                rep.identity_failures.append(
                    f"{label}: q_i != 2 + line-graph lambda_i"
                )
    return rep


# ---------------------------------------------------------------------------
# gradient checks


def check_gradients(
    sample=None, report: Optional[ValidationReport] = None
) -> ValidationReport:
    """Analytic gradient vs central differences, and search-trace validity
    (no trace value may exceed the exact spread)."""
    rep = report if report is not None else ValidationReport()
    if sample is None:
        sample = small_connected_sample(count=50, seed=52001)
    rng = SplitMix64(530001)
    for label, g in sample:
        data = GraphData(g)
        q = data.q.dense
        x = random_unit_vector(g.n, rng)
        ana = grad_f_squared(q, x)
        num = numerical_grad_f_squared(q, x)
        scale = max(1.0, float(np.linalg.norm(ana)))
        if float(np.linalg.norm(ana - num)) / scale > 1e-5:
            rep.gradient_failures.append(f"{label}: analytic vs numerical gradient")
        trace = gradient_search(q)
        worst = max((trace.initial_value,) + trace.values)
        if worst > data.s_q + SANDWICH_TOL:
            rep.gradient_failures.append(
                f"{label}: search trace value {worst:.8f} exceeds s_Q = {data.s_q:.8f}"
            )
        if abs(f_value(q, trace.best_vector) - trace.best_value) > 1e-8:
            rep.gradient_failures.append(f"{label}: best_vector inconsistent with best_value")
    return rep


# ---------------------------------------------------------------------------
# full run


def validate_all(
    corpus=None, options: Optional[CatalogOptions] = None
) -> ValidationReport:
    """Sandwich over the corpus plus fixtures, identities and gradients."""
    if corpus is None:
        corpus = standard_corpus()
    rep = ValidationReport()
    check_sandwich(corpus, options=options, report=rep)
    check_equality_fixtures(report=rep)
    check_identities(report=rep)
    check_gradients(report=rep)
    return rep
