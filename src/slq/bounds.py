"""Catalog of closed-form lower and upper bounds on the signless
Laplacian spread, plus the generic symmetric-matrix spread bounds they
specialize.

Every evaluator returns a BoundResult carrying the value, the bound
direction, the spread it targets (s_Q or s_L), and the hypotheses it
assumed.  ``evaluate_catalog`` runs the whole catalog on one graph,
reporting inapplicable entries with a reason instead of skipping them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from . import minmax
from .combinatorics import (
    ALPHA_LIMIT,
    EB_LIMIT,
    VB_LIMIT,
    OracleLimitError,
    vertex_bipartiteness,
)
from .graphs import Graph, degree_profile, is_connected, is_regular
from .minmax import SearchConfig
from .spectra import eigenvalues, laplacian_matrix, adjacency_matrix, signless_laplacian_matrix


class BoundNotApplicable(ValueError):
    """The graph fails a bound's hypotheses."""


@dataclass(frozen=True)
class BoundResult:
    """One evaluated bound."""

    name: str
    value: float
    direction: str  # "lower" | "upper"
    target: str  # "s_Q" | "s_L"
    assumptions: frozenset
    inputs_used: tuple
    strict: bool = False


# ---------------------------------------------------------------------------
# generic symmetric-matrix spread bounds


def mirsky_upper(w) -> float:
    """s(W) <= sqrt(2 ||W||_F^2 - (2/n) (tr W)^2); equality for n = 2.

    The radicand is evaluated as 2 ||W - (tr W / n) I||_F^2, the same
    quantity without the subtraction that cancels catastrophically when
    the spread is small next to the entries."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("matrix must be square")
    n = w.shape[0]
    centred = w - float(np.trace(w)) / n * np.eye(n)
    return float(np.sqrt(2.0 * float((centred * centred).sum())))


def barnes_hoffman_lower(w) -> float:
    """s(W) >= max over index pairs, including i = j, of
    sqrt((w_ii - w_jj)^2 + 2 r_i + 2 r_j) with r_i the off-diagonal
    squared row sum; diagonal pairs give sqrt(4 r_i)."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("matrix must be square")
    d = np.diag(w)
    r = (w * w).sum(axis=1) - d * d
    gap = d[:, None] - d[None, :]
    vals = gap * gap + 2.0 * r[:, None] + 2.0 * r[None, :]
    return float(np.sqrt(max(float(vals.max()), 0.0)))


def jiang_zhan_lower(w) -> float:
    """The sharpened pair bound: over i != j,
    sqrt((w_ii - w_jj)^2 + 2 r_i + 2 r_j + 4 e_ij) where e_ij couples the
    rows through f_ij = |r_i - r_j|; e_ij = 2 f_ij when the diagonals tie,
    else min((w_ii - w_jj)^2 + 2 |(w_ii - w_jj)^2 - f_ij|, f_ij^2 / (w_ii - w_jj)^2).
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("matrix must be square")
    n = w.shape[0]
    if n < 2:
        return 0.0
    d = np.diag(w)
    r = (w * w).sum(axis=1) - d * d
    best = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            gap2 = (d[i] - d[j]) ** 2
            f = abs(r[i] - r[j])
            if d[i] == d[j]:
                e = 2.0 * f
            else:
                e = min(gap2 + 2.0 * abs(gap2 - f), f * f / gap2)
            best = max(best, gap2 + 2.0 * r[i] + 2.0 * r[j] + 4.0 * e)
    return float(np.sqrt(best))


# ---------------------------------------------------------------------------
# shared per-graph context


@dataclass(frozen=True)
class CatalogOptions:
    """Catalog evaluation settings."""

    include: Optional[tuple] = None  # entry names; None = whole catalog
    alpha_limit: int = ALPHA_LIMIT
    vb_limit: int = VB_LIMIT
    eb_limit: int = EB_LIMIT
    search: SearchConfig = field(default_factory=SearchConfig)


class GraphData:
    """Caches the spectra, degree data and oracle values one catalog run
    needs; each is computed on first read, so a spectrum no entry reads is
    never solved."""

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
    def q_matrix(self):
        return signless_laplacian_matrix(self.graph)

    @cached_property
    def q_values(self):
        return eigenvalues(self.q_matrix).values

    @cached_property
    def mu_values(self):
        return eigenvalues(laplacian_matrix(self.graph)).values

    @cached_property
    def lambda_values(self):
        return eigenvalues(adjacency_matrix(self.graph)).values

    @property
    def s_q(self) -> float:
        q = self.q_values
        return float(q[0] - q[-1])

    @property
    def s_l(self) -> float:
        mu = self.mu_values
        return float(mu[0] - mu[-2])

    @property
    def mu1(self) -> float:
        return float(self.mu_values[0])

    @property
    def lambda1(self) -> float:
        return float(self.lambda_values[0])

    @cached_property
    def _vb_value(self):
        try:
            return vertex_bipartiteness(self.graph, limit=self.options.vb_limit)
        except OracleLimitError:
            return None

    @property
    def vb(self) -> int:
        if self._vb_value is None:
            raise OracleLimitError(
                "vertex bipartiteness", self.graph.n, self.options.vb_limit
            )
        return self._vb_value


def _data(g, options: Optional[CatalogOptions] = None) -> GraphData:
    return g if isinstance(g, GraphData) else GraphData(g, options)


def _require(cond: bool, reason: str):
    if not cond:
        raise BoundNotApplicable(reason)


def _lower(name, value, assumptions=(), inputs=(), strict=False, target="s_Q"):
    return BoundResult(
        name=name,
        value=float(value),
        direction="lower",
        target=target,
        assumptions=frozenset(assumptions),
        inputs_used=tuple(inputs),
        strict=strict,
    )


def _upper(name, value, assumptions=(), inputs=(), target="s_Q"):
    return BoundResult(
        name=name,
        value=float(value),
        direction="upper",
        target=target,
        assumptions=frozenset(assumptions),
        inputs_used=tuple(inputs),
    )


# ---------------------------------------------------------------------------
# lower bounds on s_Q


def lb_mu1_minus_vb(g) -> BoundResult:
    """s_Q >= mu_1 - vertex bipartiteness, with equality on connected
    bipartite graphs."""
    d = _data(g)
    _require(d.connected, "needs a connected graph")
    vb = d.vb  # refuses above the oracle limit before any spectrum is solved
    return _lower(
        "mu1_minus_vb", d.mu1 - vb, assumptions=("connected",), inputs=("mu1", "vb")
    )


def lb_4m_over_n_minus_vb(g) -> BoundResult:
    """s_Q >= 4m/n - vertex bipartiteness (mu_1 >= 4m/n)."""
    d = _data(g)
    _require(d.connected, "needs a connected graph")
    g_ = d.graph
    return _lower(
        "4m_over_n_minus_vb",
        4.0 * g_.m / g_.n - d.vb,
        assumptions=("connected",),
        inputs=("n", "m", "vb"),
    )


def lb_2lambda1_minus_vb(g) -> BoundResult:
    """s_Q >= 2 lambda_1 - vertex bipartiteness; equality when regular bipartite."""
    d = _data(g)
    _require(d.connected, "needs a connected graph")
    vb = d.vb  # refuses above the oracle limit before any spectrum is solved
    return _lower(
        "2lambda1_minus_vb",
        2.0 * d.lambda1 - vb,
        assumptions=("connected",),
        inputs=("lambda1", "vb"),
    )


def lb_degree_two_case(g) -> BoundResult:
    """s_Q >= max(2 sqrt(Delta), sqrt((Delta-delta)^2 + 2Delta + 2delta)).

    The two expressions are the piecewise cases split at Delta - delta = 2;
    each dominates exactly on its own side, so the max reproduces the split.
    """
    d = _data(g)
    p = d.profile
    value = max(
        2.0 * np.sqrt(p.Delta),
        np.sqrt((p.Delta - p.delta) ** 2 + 2 * p.Delta + 2 * p.delta),
    )
    return _lower("degree_two_case", value, inputs=("Delta", "delta"))


def meg2_value(Delta: int, delta: int) -> float:
    """Degree-only pair bound sqrt((Delta-delta)^2 + 2 Delta + 2 delta + 4)."""
    return float(np.sqrt((Delta - delta) ** 2 + 2 * Delta + 2 * delta + 4))


def liu_23_value(n: int, m: int, Delta: int) -> float:
    """Degree-extremes bound sqrt((n Delta)^2 + 8(m-Delta)(2m-n Delta))/(n-1)."""
    if n < 2:
        raise ValueError("needs at least 2 vertices")
    rad = (n * Delta) ** 2 + 8 * (m - Delta) * (2 * m - n * Delta)
    return float(np.sqrt(max(rad, 0)) / (n - 1))


def lb_jz_degree_form(g, name: str = "meg2") -> BoundResult:
    """s_Q >= sqrt((Delta-delta)^2 + 2Delta + 2delta + 4), the degree-only
    form of the sharpened pair bound (reported as meg2, and as L1 under its
    comparison-section name)."""
    d = _data(g)
    p = d.profile
    return _lower(name, meg2_value(p.Delta, p.delta), inputs=("Delta", "delta"))


def lb_regular_sqrt(g) -> BoundResult:
    """s_Q >= 2 sqrt(k+1) on k-regular graphs."""
    d = _data(g)
    _require(d.regular, "needs a regular graph")
    _require(d.graph.m >= 1, "needs at least one edge")
    k = d.graph.degrees[0]
    return _lower(
        "regular_sqrt", 2.0 * np.sqrt(k + 1.0), assumptions=("regular",), inputs=("k",)
    )


def lb_zagreb(g) -> BoundResult:
    """s_Q >= (2/n) sqrt(n M1 - 4 m^2 + 2 m n) on connected graphs
    (reported as meg1)."""
    d = _data(g)
    _require(d.connected, "needs a connected graph")
    _require(d.graph.n >= 2, "needs at least 2 vertices")
    g_ = d.graph
    m1 = d.profile.m1
    rad = g_.n * m1 - 4 * g_.m * g_.m + 2 * g_.m * g_.n
    return _lower(
        "meg1",
        2.0 / g_.n * np.sqrt(max(rad, 0)),
        assumptions=("connected",),
        inputs=("n", "m", "M1"),
    )


def lb_liu_delta(g) -> BoundResult:
    """s_Q > Delta + 1 - delta on connected graphs (strict)."""
    d = _data(g)
    _require(d.connected, "needs a connected graph")
    _require(d.graph.n >= 2, "needs at least 2 vertices")
    p = d.profile
    return _lower(
        "liu_delta",
        p.Delta + 1.0 - p.delta,
        assumptions=("connected",),
        inputs=("Delta", "delta"),
        strict=True,
    )


def lb_l2(g) -> BoundResult:
    """s_Q >= sqrt((n Delta)^2 + 8 (m - Delta) (2m - n Delta)) / (n-1)
    (reported as liu_2.3)."""
    d = _data(g)
    _require(d.graph.n >= 2, "needs at least 2 vertices")
    g_ = d.graph
    return _lower(
        "liu_2.3",
        liu_23_value(g_.n, g_.m, d.profile.Delta),
        inputs=("n", "m", "Delta"),
    )


def lb_cubic_moment(g) -> BoundResult:
    """s_Q >= |(sum d^3 + sum d*d2)/M1 - Y| where Y minimizes, over edges
    pq with deg(q) = Delta, (Delta + d_p)/2 - sqrt(((Delta - d_p)/2)^2 + 1)."""
    d = _data(g)
    _require(d.graph.m >= 1, "needs at least one edge")
    p = d.profile
    deg = p.degrees
    ratio = float((deg**3).sum() + (deg * p.d2).sum()) / p.m1
    y = None
    for u, v in d.graph.edges:
        for a, b in ((u, v), (v, u)):
            if deg[b] == p.Delta:
                cand = (p.Delta + deg[a]) / 2.0 - np.sqrt(
                    ((p.Delta - deg[a]) / 2.0) ** 2 + 1.0
                )
                if y is None or cand < y:
                    y = cand
    return _lower(
        "cubic_moment", abs(ratio - y), inputs=("degrees", "d2", "M1")
    )


def lb_regular_kplus1(g) -> BoundResult:
    """s = s_Q >= k+1 on k-regular graphs with at least one edge."""
    d = _data(g)
    _require(d.regular, "needs a regular graph")
    _require(d.graph.m >= 1, "needs at least one edge")
    k = d.graph.degrees[0]
    return _lower(
        "regular_kplus1", k + 1.0, assumptions=("regular",), inputs=("k",)
    )


def lb_path_universal(g) -> BoundResult:
    """s_Q >= 2 + 2 cos(pi/n) on connected graphs, with equality on the
    path (fails on disconnected graphs: two disjoint edges have s_Q = 2)."""
    d = _data(g)
    _require(d.connected, "needs a connected graph")
    n = d.graph.n
    return _lower(
        "path_universal",
        2.0 + 2.0 * np.cos(np.pi / n),
        assumptions=("connected",),
        inputs=("n",),
    )


def lb_ncon(g) -> BoundResult:
    """All-ones vector bound (4/n) sqrt(n M1 - 4m^2) (reported as Ncon)."""
    d = _data(g)
    value = minmax.ncon_value(d.graph.n, d.graph.m, d.profile.m1)
    return _lower("Ncon", value, inputs=("n", "m", "M1"))


def lb_degree_vector(g) -> BoundResult:
    """Degree-vector minmax bound."""
    d = _data(g)
    _require(d.graph.m >= 1, "needs at least one edge")
    return _lower(
        "degree_vector",
        minmax.degree_vector_value(d.profile),
        inputs=("degrees", "d2"),
    )


def lb_z1(g) -> BoundResult:
    """Inverse-degree minmax bound (reported as Z1)."""
    d = _data(g)
    _require(d.profile.delta >= 1, "needs a graph without isolated vertices")
    return _lower("Z1", minmax.inverse_degree_value(d.graph), inputs=("degrees",))


def lb_z2(g) -> BoundResult:
    """Inverse-cubed-degree minmax bound (reported as Z2)."""
    d = _data(g)
    _require(d.profile.delta >= 1, "needs a graph without isolated vertices")
    deg = d.profile.degrees.astype(np.float64)
    return _lower(
        "Z2", minmax.bound_from_vector(d.q_matrix, deg**-3), inputs=("degrees", "Q")
    )


def lb_eta(g) -> BoundResult:
    """Gradient-search lower bound on s_Q."""
    d = _data(g)
    trace = minmax.gradient_search(d.q_matrix, d.options.search)
    return _lower("eta", trace.best_value, inputs=("Q",))


def lb_one_step(g) -> BoundResult:
    """One projected gradient step from the all-ones vector."""
    d = _data(g)
    value = minmax.one_step_analytic_bound(d.q_matrix, step=d.options.search.step)
    return _lower("one_step", value, inputs=("Q",))


# ---------------------------------------------------------------------------
# upper bounds


def ub_mirsky_q(g) -> BoundResult:
    """s_Q <= sqrt(2 M1 + 4m - 8 m^2 / n); equality iff K_{n/2,n/2}."""
    d = _data(g)
    g_ = d.graph
    rad = 2.0 * d.profile.m1 + 4.0 * g_.m - 8.0 * g_.m * g_.m / g_.n
    return _upper("mirsky_q", np.sqrt(max(rad, 0.0)), inputs=("n", "m", "M1"))


def ub_mirsky_q_degreeonly(g) -> BoundResult:
    """Degree-extremes variant: M1 replaced by its degree-based majorant,
    so the value always dominates ub_mirsky_q."""
    d = _data(g)
    _require(d.graph.n >= 2, "needs at least 2 vertices")
    g_ = d.graph
    p = d.profile
    n, m = g_.n, g_.m
    m1_major = m * (
        2.0 * m / (n - 1)
        + (n - 2.0) / (n - 1) * p.Delta
        + (p.Delta - p.delta) * (1.0 - p.Delta / (n - 1.0))
    )
    rad = 2.0 * m1_major + 4.0 * m - 8.0 * m * m / n
    return _upper(
        "mirsky_q_degree",
        np.sqrt(max(rad, 0.0)),
        inputs=("n", "m", "Delta", "delta"),
    )


def ub_global_2n4(g) -> BoundResult:
    """s_Q <= 2n - 4 for n >= 5; equality iff K_{n-1} plus an isolated vertex."""
    d = _data(g)
    _require(d.graph.n >= 5, "needs at least 5 vertices")
    return _upper("global_2n4", 2.0 * d.graph.n - 4.0, inputs=("n",))


def ub_liu_degree_avg(g) -> BoundResult:
    """s_Q <= max over vertices of d(v) + average degree of v's neighbors,
    on connected graphs."""
    d = _data(g)
    _require(d.connected, "needs a connected graph")
    _require(d.graph.n >= 2, "needs at least 2 vertices")
    p = d.profile
    deg = p.degrees.astype(np.float64)
    value = float((deg + p.d2 / deg).max())
    return _upper(
        "liu_degree_avg", value, assumptions=("connected",), inputs=("degrees", "d2")
    )


def ub_das_laplacian(g) -> BoundResult:
    """Laplacian-spread analogue s_L <= sqrt(2 M1 + 4m - 8 m^2/(n-1)) for
    n >= 5, m >= 1; validated against s_L, not s_Q."""
    d = _data(g)
    _require(d.graph.n >= 5, "needs at least 5 vertices")
    _require(d.graph.m >= 1, "needs at least one edge")
    g_ = d.graph
    rad = 2.0 * d.profile.m1 + 4.0 * g_.m - 8.0 * g_.m * g_.m / (g_.n - 1.0)
    return _upper(
        "das_laplacian", np.sqrt(max(rad, 0.0)), inputs=("n", "m", "M1"), target="s_L"
    )


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


def compare_l1_l2(g) -> L1L2Report:
    """Compare L1 = sqrt((Delta-delta)^2 + 2Delta + 2delta + 4) with
    L2 = sqrt((n Delta)^2 + 8(m-Delta)(2m-n Delta))/(n-1).

    Classified regimes (for n > 2): k-regular graphs have L2 > L1 except
    k <= 3, or k = 4 with n >= 10; connected graphs with a pendant vertex
    have L2 < L1 when (2n-1)/(n-1)^2 * Delta^2 < 7.
    """
    d = _data(g)
    g_ = d.graph
    p = d.profile
    l1 = meg2_value(p.Delta, p.delta)
    l2 = float(lb_l2(d).value) if g_.n >= 2 else float("nan")
    tol = 1e-9
    if l2 > l1 + tol:
        dominant = "L2"
    elif l1 > l2 + tol:
        dominant = "L1"
    else:
        dominant = "tie"
    regime = "unclassified"
    predicted = None
    if g_.n > 2 and d.regular:
        k = p.Delta
        if k <= 3:
            regime, predicted = "regular k<=3", "L1"
        elif k == 4 and g_.n >= 10:
            regime, predicted = "regular k=4, n>=10", "L1"
        else:
            regime, predicted = "regular L2-dominant", "L2"
    elif g_.n > 2 and d.connected and p.delta == 1:
        if (2.0 * g_.n - 1.0) / (g_.n - 1.0) ** 2 * p.Delta**2 < 7.0:
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
    """A named bound and its evaluator; the direction and target spread
    travel on the BoundResult the evaluator returns."""

    name: str
    evaluate: Callable


CATALOG = (
    BoundCatalogEntry("mu1_minus_vb", lb_mu1_minus_vb),
    BoundCatalogEntry("4m_over_n_minus_vb", lb_4m_over_n_minus_vb),
    BoundCatalogEntry("2lambda1_minus_vb", lb_2lambda1_minus_vb),
    BoundCatalogEntry("degree_two_case", lb_degree_two_case),
    BoundCatalogEntry("meg2", lb_jz_degree_form),
    BoundCatalogEntry("L1", partial(lb_jz_degree_form, name="L1")),
    BoundCatalogEntry("regular_sqrt", lb_regular_sqrt),
    BoundCatalogEntry("meg1", lb_zagreb),
    BoundCatalogEntry("liu_delta", lb_liu_delta),
    BoundCatalogEntry("liu_2.3", lb_l2),
    BoundCatalogEntry("cubic_moment", lb_cubic_moment),
    BoundCatalogEntry("regular_kplus1", lb_regular_kplus1),
    BoundCatalogEntry("path_universal", lb_path_universal),
    BoundCatalogEntry("Ncon", lb_ncon),
    BoundCatalogEntry("degree_vector", lb_degree_vector),
    BoundCatalogEntry("Z1", lb_z1),
    BoundCatalogEntry("Z2", lb_z2),
    BoundCatalogEntry("one_step", lb_one_step),
    BoundCatalogEntry("eta", lb_eta),
    BoundCatalogEntry("mirsky_q", ub_mirsky_q),
    BoundCatalogEntry("mirsky_q_degree", ub_mirsky_q_degreeonly),
    BoundCatalogEntry("global_2n4", ub_global_2n4),
    BoundCatalogEntry("liu_degree_avg", ub_liu_degree_avg),
    BoundCatalogEntry("das_laplacian", ub_das_laplacian),
)

CATALOG_BY_NAME = {entry.name: entry for entry in CATALOG}


@dataclass(frozen=True)
class CatalogOutcome:
    """Result of one catalog entry on one graph; reason says why a bound
    was not evaluated (failed hypotheses or oracle size limit)."""

    name: str
    result: Optional[BoundResult]
    reason: str = ""

    @property
    def evaluated(self) -> bool:
        return self.result is not None


def evaluate_catalog(g, options: Optional[CatalogOptions] = None):
    """Evaluate every selected catalog entry on g, in name order.

    g is a Graph or a GraphData; options default to the GraphData's own.
    Inapplicable entries and oracle size-limit refusals become outcomes
    with a reason; they never abort the remaining entries.
    """
    data = _data(g, options)
    opts = options or data.options
    if opts.include is None:
        names = sorted(CATALOG_BY_NAME)
    else:
        unknown = [x for x in opts.include if x not in CATALOG_BY_NAME]
        if unknown:
            raise ValueError(f"unknown bound names: {', '.join(sorted(unknown))}")
        names = sorted(opts.include)
    outcomes = []
    for name in names:
        try:
            result = CATALOG_BY_NAME[name].evaluate(data)
        except (BoundNotApplicable, OracleLimitError) as exc:
            outcomes.append(CatalogOutcome(name=name, result=None, reason=str(exc)))
        else:
            outcomes.append(CatalogOutcome(name=name, result=result))
    return outcomes
