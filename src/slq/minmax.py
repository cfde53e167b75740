"""Minmax machinery for spread lower bounds on the unit sphere.

For a symmetric matrix W and unit vector x, the spread satisfies
s(W) >= f(x) = 2 ||W x - (x' W x) x||.  Applied to the signless Laplacian
this gives vector-parameterized lower bounds on s_Q and a projected
gradient ascent heuristic eta that maximizes f over the sphere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import Graph

UNIT_TOL = 1e-8
# tangential gradient below this (relative) scale counts as stationary
STATIONARY_TOL = 1e-9


def unit_vector(v) -> np.ndarray:
    """Normalize to unit length; rejects zero or non-finite input."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("expected a 1-d vector")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / norm


def _as_matrix(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("matrix must be square")
    return w


def _check_unit(x: np.ndarray):
    if abs(float(np.linalg.norm(x)) - 1.0) > UNIT_TOL:
        raise ValueError("x must be a unit vector")


def f_value(w, x) -> float:
    """f(x) = 2 ||W x - (x' W x) x|| for unit x."""
    w = _as_matrix(w)
    x = np.asarray(x, dtype=np.float64)
    _check_unit(x)
    wx = w @ x
    r = wx - (x @ wx) * x
    return 2.0 * float(np.linalg.norm(r))


def f_value_quadratic(w, x) -> float:
    """Same value through the radicand form 2 sqrt(x'W^2x - (x'Wx)^2)."""
    w = _as_matrix(w)
    x = np.asarray(x, dtype=np.float64)
    _check_unit(x)
    wx = w @ x
    rad = float(wx @ wx) - float(x @ wx) ** 2
    return 2.0 * np.sqrt(max(rad, 0.0))


def bound_from_vector(w, y) -> float:
    """Spread lower bound from any nonzero y: the f value of y/||y||,
    written scale-free as 2 sqrt(Sy^2 St^2 - (Syt)^2)/Sy^2 with t = W y."""
    w = _as_matrix(w)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != w.shape[0]:
        raise ValueError("y must be a vector matching the matrix order")
    if not np.isfinite(y).all():
        raise ValueError("vector entries must be finite")
    yy = float(y @ y)
    if yy == 0.0:
        raise ValueError("y must be nonzero")
    t = w @ y
    rad = yy * float(t @ t) - float(y @ t) ** 2
    return 2.0 * np.sqrt(max(rad, 0.0)) / yy


def grad_f_squared(w, x) -> np.ndarray:
    """Ambient gradient of f(x)^2 = 4(x'W^2x - (x'Wx)^2): 8W^2x - 16(x'Wx)Wx."""
    w = _as_matrix(w)
    x = np.asarray(x, dtype=np.float64)
    wx = w @ x
    return 8.0 * (w @ wx) - 16.0 * float(x @ wx) * wx


def numerical_grad_f_squared(w, x, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the ambient f^2, for cross-checking."""
    w = _as_matrix(w)
    x = np.asarray(x, dtype=np.float64)

    def ambient(v):
        wv = w @ v
        return 4.0 * (float(wv @ wv) - float(v @ wv) ** 2)

    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (ambient(x + e) - ambient(x - e)) / (2.0 * h)
    return g


@dataclass(frozen=True)
class SearchConfig:
    """Projected gradient ascent settings."""

    iterations: int = 10
    step: float = 0.1
    step_mode: str = "constant"

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if self.step_mode not in ("constant", "decreasing"):
            raise ValueError("step_mode must be 'constant' or 'decreasing'")


@dataclass(frozen=True, eq=False)
class SearchTrace:
    """Full record of one gradient search run."""

    initial_value: float
    values: tuple
    best_value: float
    best_vector: np.ndarray
    iteration_of_best: int
    perturbed: bool
    stagnated_at: Optional[int]


def gradient_search(w, config: Optional[SearchConfig] = None) -> SearchTrace:
    """Maximize f over the unit sphere by projected gradient ascent.

    Starts from the normalized all-ones vector.  Each iteration moves along
    the tangential component of the f^2 gradient (the ambient gradient
    projected onto the sphere's tangent space; the radial part only
    rescales x) with step s_k = s (constant) or s/sqrt(k) (decreasing),
    then renormalizes.  A start point whose tangential gradient vanishes
    (e.g. regular graphs, where the all-ones vector is an eigenvector) is
    nudged once in coordinate 0 so the search can leave the stationary
    point; later stationary iterates stop moving and the trace records
    where.  Returns the best value ever seen, including the start.
    """
    w = _as_matrix(w)
    cfg = config or SearchConfig()
    n = w.shape[0]
    x = np.full(n, 1.0 / np.sqrt(n))
    initial = f_value(w, x)
    best = initial
    best_x = x.copy()
    best_iter = 0

    g = grad_f_squared(w, x)
    tang = g - (g @ x) * x
    perturbed = False
    if float(np.linalg.norm(tang)) <= STATIONARY_TOL * max(1.0, float(np.linalg.norm(g))):
        x = x.copy()
        x[0] += 1e-3
        x /= np.linalg.norm(x)
        perturbed = True

    values = []
    stagnated_at = None
    for k in range(1, cfg.iterations + 1):
        g = grad_f_squared(w, x)
        tang = g - (g @ x) * x
        tnorm = float(np.linalg.norm(tang))
        if tnorm <= STATIONARY_TOL * max(1.0, float(np.linalg.norm(g))):
            if stagnated_at is None:
                stagnated_at = k
            values.append(f_value(w, x))
            continue
        step = cfg.step if cfg.step_mode == "constant" else cfg.step / np.sqrt(k)
        x = x + step * (tang / tnorm)
        x /= np.linalg.norm(x)
        val = f_value(w, x)
        values.append(val)
        if val > best:
            best = val
            best_x = x.copy()
            best_iter = k
    return SearchTrace(
        initial_value=initial,
        values=tuple(values),
        best_value=best,
        best_vector=best_x,
        iteration_of_best=best_iter,
        perturbed=perturbed,
        stagnated_at=stagnated_at,
    )


# ---------------------------------------------------------------------------
# particular start vectors and single steps


def ncon_value(n: int, m: int, m1: int) -> float:
    """All-ones vector bound in closed form: (4/n) sqrt(n M1 - 4 m^2)."""
    return 4.0 / n * np.sqrt(max(n * m1 - 4 * m * m, 0))


def degree_vector_value(degrees: np.ndarray, d2: np.ndarray) -> float:
    """Degree-vector bound via the explicit degree formula (y = d,
    t = d^2 + d2 entrywise, no matrix product)."""
    y = degrees.astype(np.float64)
    t = y * y + d2.astype(np.float64)
    yy = float(y @ y)
    if yy == 0.0:
        raise ValueError("degree vector bound needs at least one edge")
    rad = yy * float(t @ t) - float(y @ t) ** 2
    return 2.0 * np.sqrt(max(rad, 0.0)) / yy


def inverse_degree_value(g: Graph) -> float:
    """Inverse-degree bound via its displayed formula (y_i = 1/d_i,
    t_i = 1 + sum of 1/d_j over neighbors j)."""
    if not g.degrees.all():
        raise ValueError("inverse-degree bound needs a graph without isolated vertices")
    y = 1.0 / g.degrees
    u, v = g.edge_array.T
    t = np.ones(g.n)
    # v endpoints first, then u: on canonically sorted edges this adds each
    # vertex's terms in ascending neighbour order, as a loop over the edges does
    np.add.at(t, v, y[u])
    np.add.at(t, u, y[v])
    yy = float(y @ y)
    rad = yy * float(t @ t) - float(y @ t) ** 2
    return 2.0 * np.sqrt(max(rad, 0.0)) / yy


def one_step_analytic_bound(w, step: float) -> float:
    """f after a single projected gradient step from the all-ones start point.

    Valid lower bound on s(W) by the minmax principle regardless of step
    size; for the signless Laplacian of a regular graph the start is
    stationary and the value is 0.
    """
    w = _as_matrix(w)
    n = w.shape[0]
    x = np.full(n, 1.0 / np.sqrt(n))
    g_vec = grad_f_squared(w, x)
    tang = g_vec - (g_vec @ x) * x
    tnorm = float(np.linalg.norm(tang))
    if tnorm > STATIONARY_TOL * max(1.0, float(np.linalg.norm(g_vec))):
        x = x + step * (tang / tnorm)
        x /= np.linalg.norm(x)
    return f_value(w, x)
