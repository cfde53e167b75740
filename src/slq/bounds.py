"""Catalog of closed-form lower and upper bounds on the signless
Laplacian spread.

Every catalog evaluator is a plain function of one ``GraphData`` that
checks its hypotheses and returns the bound's value.  A catalog entry
declares the bound's name, its direction and the spread it targets (s_Q
or s_L) once.  ``evaluate_catalog`` runs the catalog on one graph and
reports inapplicable entries with a reason instead of skipping them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import minmax
from .combinatorics import OracleLimitError, vertex_bipartiteness
from .graphs import Graph, degree_profile, is_connected, is_regular
from .minmax import SearchConfig
# eigenvalues stays bound here, unused: the benchmark's tracing test
# (perfbench/test_perfbench.py) checks that its wrapper reaches this module
from .spectra import GraphMatrix, eigenvalues, extreme_eigenvalues  # noqa: F401


class BoundNotApplicable(ValueError):
    """The graph fails a bound's hypotheses."""


# ---------------------------------------------------------------------------
# shared per-graph context


@dataclass(frozen=True)
class CatalogOptions:
    """Catalog evaluation settings."""

    oracle_limit: Optional[int] = None  # caps every oracle; None = each its own default
    search: SearchConfig = field(default_factory=SearchConfig)


class GraphData:
    """Caches the extreme eigenvalues, degree data and oracle values one
    catalog run needs; each is computed on first read, so a spectrum no
    entry reads is never solved."""

    def __init__(self, g: Graph, options: Optional[CatalogOptions] = None):
        self.graph = g
        self.options = options or CatalogOptions()

    @cached_property
    def profile(self):
        return degree_profile(self.graph)

    @cached_property
    def connected(self) -> bool:
        return is_connected(self.graph)

    @cached_property
    def regular(self) -> bool:
        return is_regular(self.graph)

    @cached_property
    def q(self) -> GraphMatrix:
        """The signless Laplacian, shared by s_Q and the sphere bounds."""
        return GraphMatrix(self.graph, "signless")

    @cached_property
    def q_extremes(self):
        return extreme_eigenvalues(self.q)

    @cached_property
    def search(self) -> minmax.SearchTrace:
        """The gradient search on Q, shared by eta and one_step."""
        return minmax.gradient_search(self.q.operand, self.options.search)

    @cached_property
    def mu_extremes(self):
        return extreme_eigenvalues(GraphMatrix(self.graph, "laplacian"))

    @property
    def s_q(self) -> float:
        return self.q_extremes.top - self.q_extremes.bottom

    @property
    def s_l(self) -> float:
        return self.mu_extremes.top - self.mu_extremes.bottom

    @property
    def mu1(self) -> float:
        return self.mu_extremes.top

    @cached_property
    def lambda1(self) -> float:
        return extreme_eigenvalues(GraphMatrix(self.graph, "adjacency")).top

    @cached_property
    def _vb(self):
        # the oracle's value, or the refusal it raised, so every vb entry
        # shares one oracle call
        try:
            return vertex_bipartiteness(self.graph, limit=self.options.oracle_limit)
        except OracleLimitError as exc:
            return exc

    @property
    def vb(self) -> int:
        if isinstance(self._vb, OracleLimitError):
            raise self._vb
        return self._vb


def _require(cond: bool, reason: str):
    if not cond:
        raise BoundNotApplicable(reason)


# ---------------------------------------------------------------------------
# lower bounds on s_Q


def lb_mu1_minus_vb(data: GraphData) -> float:
    """s_Q >= mu_1 - vertex bipartiteness, with equality on connected
    bipartite graphs."""
    _require(data.connected, "needs a connected graph")
    vb = data.vb  # refuses above the oracle limit before any spectrum is solved
    return data.mu1 - vb


def lb_4m_over_n_minus_vb(data: GraphData) -> float:
    """s_Q >= 4m/n - vertex bipartiteness (mu_1 >= 4m/n)."""
    _require(data.connected, "needs a connected graph")
    return 4.0 * data.graph.m / data.graph.n - data.vb


def lb_2lambda1_minus_vb(data: GraphData) -> float:
    """s_Q >= 2 lambda_1 - vertex bipartiteness; equality when regular bipartite."""
    _require(data.connected, "needs a connected graph")
    vb = data.vb  # refuses above the oracle limit before any spectrum is solved
    return 2.0 * data.lambda1 - vb


def lb_degree_two_case(data: GraphData) -> float:
    """s_Q >= max(2 sqrt(Delta), sqrt((Delta-delta)^2 + 2Delta + 2delta)).

    The two expressions are the piecewise cases split at Delta - delta = 2;
    each dominates exactly on its own side, so the max reproduces the split.
    """
    p = data.profile
    return max(
        2.0 * np.sqrt(p.Delta),
        np.sqrt((p.Delta - p.delta) ** 2 + 2 * p.Delta + 2 * p.delta),
    )


def meg2_value(Delta: int, delta: int) -> float:
    """Degree-only pair bound sqrt((Delta-delta)^2 + 2 Delta + 2 delta + 4)."""
    return float(np.sqrt((Delta - delta) ** 2 + 2 * Delta + 2 * delta + 4))


def liu_23_value(n: int, m: int, Delta: int) -> float:
    """Degree-extremes bound sqrt((n Delta)^2 + 8(m-Delta)(2m-n Delta))/(n-1)."""
    if n < 2:
        raise ValueError("needs at least 2 vertices")
    rad = (n * Delta) ** 2 + 8 * (m - Delta) * (2 * m - n * Delta)
    return float(np.sqrt(max(rad, 0)) / (n - 1))


def lb_jz_degree_form(data: GraphData) -> float:
    """s_Q >= sqrt((Delta-delta)^2 + 2Delta + 2delta + 4) (reported as
    meg2, and as L1 under its comparison-section name).  It equals the
    Jiang-Zhan sharpened pair bound of Q on non-regular graphs and exceeds
    it on k-regular ones, 2 sqrt(k+1) against 2 sqrt(k)."""
    return meg2_value(data.profile.Delta, data.profile.delta)


def lb_regular_sqrt(data: GraphData) -> float:
    """s_Q >= 2 sqrt(k+1) on k-regular graphs."""
    _require(data.regular, "needs a regular graph")
    _require(data.graph.m >= 1, "needs at least one edge")
    return 2.0 * np.sqrt(data.profile.Delta + 1.0)


def lb_zagreb(data: GraphData) -> float:
    """s_Q >= (2/n) sqrt(n M1 - 4 m^2 + 2 m n) on connected graphs
    (reported as meg1)."""
    _require(data.connected, "needs a connected graph")
    _require(data.graph.n >= 2, "needs at least 2 vertices")
    n, m = data.graph.n, data.graph.m
    rad = n * data.profile.m1 - 4 * m * m + 2 * m * n
    return 2.0 / n * np.sqrt(max(rad, 0))


def lb_liu_delta(data: GraphData) -> float:
    """s_Q > Delta + 1 - delta on connected graphs (strict)."""
    _require(data.connected, "needs a connected graph")
    _require(data.graph.n >= 2, "needs at least 2 vertices")
    return data.profile.Delta + 1.0 - data.profile.delta


def lb_l2(data: GraphData) -> float:
    """s_Q >= sqrt((n Delta)^2 + 8 (m - Delta) (2m - n Delta)) / (n-1)
    (reported as liu_2.3)."""
    _require(data.graph.n >= 2, "needs at least 2 vertices")
    return liu_23_value(data.graph.n, data.graph.m, data.profile.Delta)


def lb_cubic_moment(data: GraphData) -> float:
    """s_Q >= |(sum d^3 + sum d*d2)/M1 - Y| where Y minimizes, over edges
    pq with deg(q) = Delta, (Delta + d_p)/2 - sqrt(((Delta - d_p)/2)^2 + 1)."""
    _require(data.graph.m >= 1, "needs at least one edge")
    p = data.profile
    deg = data.graph.degrees
    ratio = float((deg**3).sum() + (deg * p.d2).sum()) / p.m1
    u, v = data.graph.edge_array.T
    ends, tips = np.concatenate((u, v)), np.concatenate((v, u))
    d_p = deg[ends[deg[tips] == p.Delta]]
    y = ((p.Delta + d_p) / 2.0 - np.sqrt(((p.Delta - d_p) / 2.0) ** 2 + 1.0)).min()
    return abs(ratio - y)


def lb_regular_kplus1(data: GraphData) -> float:
    """s = s_Q >= k+1 on k-regular graphs with at least one edge."""
    _require(data.regular, "needs a regular graph")
    _require(data.graph.m >= 1, "needs at least one edge")
    return data.profile.Delta + 1.0


def lb_path_universal(data: GraphData) -> float:
    """s_Q >= 2 + 2 cos(pi/n) on connected graphs, with equality on the
    path (fails on disconnected graphs: two disjoint edges have s_Q = 2)."""
    _require(data.connected, "needs a connected graph")
    return 2.0 + 2.0 * np.cos(np.pi / data.graph.n)


def lb_ncon(data: GraphData) -> float:
    """All-ones vector bound (4/n) sqrt(n M1 - 4m^2) (reported as Ncon)."""
    return minmax.ncon_value(data.graph.n, data.graph.m, data.profile.m1)


def lb_degree_vector(data: GraphData) -> float:
    """Degree-vector minmax bound."""
    _require(data.graph.m >= 1, "needs at least one edge")
    return minmax.degree_vector_value(data.graph.degrees, data.profile.d2)


def lb_z1(data: GraphData) -> float:
    """Inverse-degree minmax bound (reported as Z1)."""
    _require(data.profile.delta >= 1, "needs a graph without isolated vertices")
    return minmax.inverse_degree_value(data.graph)


def lb_z2(data: GraphData) -> float:
    """Inverse-cubed-degree minmax bound (reported as Z2)."""
    _require(data.profile.delta >= 1, "needs a graph without isolated vertices")
    deg = data.graph.degrees.astype(np.float64)
    return minmax.bound_from_vector(data.q.operand, deg**-3)


def lb_eta(data: GraphData) -> float:
    """Gradient-search lower bound on s_Q."""
    return data.search.best_value


def lb_one_step(data: GraphData) -> float:
    """One projected gradient step from the all-ones vector: the search's
    first step, whose size is the configured step in both step modes."""
    return data.search.first_step_value


# ---------------------------------------------------------------------------
# upper bounds


def ub_mirsky_q(data: GraphData) -> float:
    """s_Q <= sqrt(2 M1 + 4m - 8 m^2 / n); equality iff K_{n/2,n/2}."""
    n, m = data.graph.n, data.graph.m
    rad = 2.0 * data.profile.m1 + 4.0 * m - 8.0 * m * m / n
    return np.sqrt(max(rad, 0.0))


def ub_mirsky_q_degreeonly(data: GraphData) -> float:
    """Degree-extremes variant: M1 replaced by its degree-based majorant,
    so the value always dominates ub_mirsky_q."""
    _require(data.graph.n >= 2, "needs at least 2 vertices")
    p = data.profile
    n, m = data.graph.n, data.graph.m
    m1_major = m * (
        2.0 * m / (n - 1)
        + (n - 2.0) / (n - 1) * p.Delta
        + (p.Delta - p.delta) * (1.0 - p.Delta / (n - 1.0))
    )
    rad = 2.0 * m1_major + 4.0 * m - 8.0 * m * m / n
    return np.sqrt(max(rad, 0.0))


def ub_global_2n4(data: GraphData) -> float:
    """s_Q <= 2n - 4 for n >= 5; equality iff K_{n-1} plus an isolated vertex."""
    _require(data.graph.n >= 5, "needs at least 5 vertices")
    return 2.0 * data.graph.n - 4.0


def ub_liu_degree_avg(data: GraphData) -> float:
    """s_Q <= max over vertices of d(v) + average degree of v's neighbors,
    on connected graphs."""
    _require(data.connected, "needs a connected graph")
    _require(data.graph.n >= 2, "needs at least 2 vertices")
    deg = data.graph.degrees.astype(np.float64)
    return float((deg + data.profile.d2 / deg).max())


def ub_das_laplacian(data: GraphData) -> float:
    """Laplacian-spread analogue s_L <= sqrt(2 M1 + 4m - 8 m^2/(n-1)) for
    n >= 5, m >= 1; validated against s_L, not s_Q."""
    _require(data.graph.n >= 5, "needs at least 5 vertices")
    _require(data.graph.m >= 1, "needs at least one edge")
    n, m = data.graph.n, data.graph.m
    rad = 2.0 * data.profile.m1 + 4.0 * m - 8.0 * m * m / (n - 1.0)
    return np.sqrt(max(rad, 0.0))


# ---------------------------------------------------------------------------
# closed-form comparison of the two degree-parameter lower bounds


@dataclass(frozen=True)
class L1L2Report:
    """Which of the two degree-parameter bounds dominates, and whether the
    classification theorem predicts it for this graph."""

    l1: float
    l2: float
    dominant: str  # "L1" | "L2" | "tie"
    regime: str
    predicted: Optional[str]
    consistent: Optional[bool]


def compare_l1_l2(g: Graph) -> L1L2Report:
    """Compare L1 = sqrt((Delta-delta)^2 + 2Delta + 2delta + 4) with
    L2 = sqrt((n Delta)^2 + 8(m-Delta)(2m-n Delta))/(n-1).

    Classified regimes (for n > 2): k-regular graphs have L2 > L1 except
    k <= 3, or k = 4 with n >= 10; connected graphs with a pendant vertex
    have L2 < L1 when (2n-1)/(n-1)^2 * Delta^2 < 7.
    """
    p = degree_profile(g)
    l1 = meg2_value(p.Delta, p.delta)
    l2 = liu_23_value(g.n, g.m, p.Delta) if g.n >= 2 else float("nan")
    tol = 1e-9
    if l2 > l1 + tol:
        dominant = "L2"
    elif l1 > l2 + tol:
        dominant = "L1"
    else:
        dominant = "tie"
    regime = "unclassified"
    predicted = None
    if g.n > 2 and is_regular(g):
        k = p.Delta
        if k <= 3:
            regime, predicted = "regular k<=3", "L1"
        elif k == 4 and g.n >= 10:
            regime, predicted = "regular k=4, n>=10", "L1"
        else:
            regime, predicted = "regular L2-dominant", "L2"
    elif g.n > 2 and is_connected(g) and p.delta == 1:
        if (2.0 * g.n - 1.0) / (g.n - 1.0) ** 2 * p.Delta**2 < 7.0:
            regime, predicted = "pendant small-degree", "L1"
    if predicted is None:
        consistent = None
    elif predicted == "L1":
        consistent = l2 <= l1 + tol
    else:
        consistent = l2 > l1 - tol
    return L1L2Report(
        l1=l1, l2=l2, dominant=dominant, regime=regime,
        predicted=predicted, consistent=consistent,
    )


# ---------------------------------------------------------------------------
# the catalog


@dataclass(frozen=True)
class BoundCatalogEntry:
    """A named bound: its direction ("lower" | "upper"), the spread it
    targets ("s_Q" | "s_L") and its evaluator, a function of GraphData
    that returns the value or raises BoundNotApplicable."""

    name: str
    direction: str
    target: str
    evaluate: Callable[[GraphData], float]


CATALOG = (
    BoundCatalogEntry("mu1_minus_vb", "lower", "s_Q", lb_mu1_minus_vb),
    BoundCatalogEntry("4m_over_n_minus_vb", "lower", "s_Q", lb_4m_over_n_minus_vb),
    BoundCatalogEntry("2lambda1_minus_vb", "lower", "s_Q", lb_2lambda1_minus_vb),
    BoundCatalogEntry("degree_two_case", "lower", "s_Q", lb_degree_two_case),
    BoundCatalogEntry("meg2", "lower", "s_Q", lb_jz_degree_form),
    BoundCatalogEntry("L1", "lower", "s_Q", lb_jz_degree_form),
    BoundCatalogEntry("regular_sqrt", "lower", "s_Q", lb_regular_sqrt),
    BoundCatalogEntry("meg1", "lower", "s_Q", lb_zagreb),
    BoundCatalogEntry("liu_delta", "lower", "s_Q", lb_liu_delta),
    BoundCatalogEntry("liu_2.3", "lower", "s_Q", lb_l2),
    BoundCatalogEntry("cubic_moment", "lower", "s_Q", lb_cubic_moment),
    BoundCatalogEntry("regular_kplus1", "lower", "s_Q", lb_regular_kplus1),
    BoundCatalogEntry("path_universal", "lower", "s_Q", lb_path_universal),
    BoundCatalogEntry("Ncon", "lower", "s_Q", lb_ncon),
    BoundCatalogEntry("degree_vector", "lower", "s_Q", lb_degree_vector),
    BoundCatalogEntry("Z1", "lower", "s_Q", lb_z1),
    BoundCatalogEntry("Z2", "lower", "s_Q", lb_z2),
    BoundCatalogEntry("one_step", "lower", "s_Q", lb_one_step),
    BoundCatalogEntry("eta", "lower", "s_Q", lb_eta),
    BoundCatalogEntry("mirsky_q", "upper", "s_Q", ub_mirsky_q),
    BoundCatalogEntry("mirsky_q_degree", "upper", "s_Q", ub_mirsky_q_degreeonly),
    BoundCatalogEntry("global_2n4", "upper", "s_Q", ub_global_2n4),
    BoundCatalogEntry("liu_degree_avg", "upper", "s_Q", ub_liu_degree_avg),
    BoundCatalogEntry("das_laplacian", "upper", "s_L", ub_das_laplacian),
)

CATALOG_BY_NAME = {entry.name: entry for entry in CATALOG}


@dataclass(frozen=True)
class CatalogOutcome:
    """Result of one catalog entry on one graph: the value, or None with a
    reason why the bound was not evaluated (failed hypotheses or oracle
    size limit)."""

    name: str
    direction: str  # "lower" | "upper"
    target: str  # "s_Q" | "s_L"
    value: Optional[float]
    reason: str = ""

    @property
    def evaluated(self) -> bool:
        return self.value is not None


def evaluate_catalog(g, names=None):
    """Evaluate the named catalog entries (all when names is None) on g,
    in name order.

    g is a Graph or a GraphData (whose options then apply).  Inapplicable
    entries and oracle size-limit refusals become outcomes with a reason;
    they never abort the remaining entries.
    """
    data = g if isinstance(g, GraphData) else GraphData(g)
    if names is None:
        names = CATALOG_BY_NAME
    else:
        unknown = [x for x in names if x not in CATALOG_BY_NAME]
        if unknown:
            raise ValueError(f"unknown bound names: {', '.join(sorted(unknown))}")
    outcomes = []
    for name in sorted(names):
        entry = CATALOG_BY_NAME[name]
        try:
            value, reason = float(entry.evaluate(data)), ""
        except (BoundNotApplicable, OracleLimitError) as exc:
            value, reason = None, str(exc)
        outcomes.append(CatalogOutcome(name, entry.direction, entry.target, value, reason))
    return outcomes
