"""Minmax machinery for spread lower bounds on the unit sphere.

For a symmetric matrix W and unit vector x, the spread satisfies
s(W) >= f(x) = 2 ||W x - (x' W x) x||.  Applied to the signless Laplacian
this gives vector-parameterized lower bounds on s_Q and a projected
gradient ascent heuristic eta that maximizes f over the sphere.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

UNIT_TOL = 1e-8
# tangential gradient below this (relative) scale counts as stationary
STATIONARY_TOL = 1e-9


def _as_matrix(w):
    """w as a float array, or w itself when it is a graph matrix operator
    (spectra.GraphMatrix), whose ``@`` is the O(n + m) product."""
    if not hasattr(w, "graph"):
        w = np.asarray(w, dtype=np.float64)
    if len(w.shape) != 2 or w.shape[0] != w.shape[1]:
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
    return _f(x, wx, x @ wx)


def _norm(v) -> float:
    """The Euclidean norm of a real 1-d array, as np.linalg.norm computes
    it (the square root of v.dot(v)) without its dispatch."""
    return math.sqrt(v.dot(v))


def _f(x, wx, xwx) -> float:
    """f(x) read from wx = W x and xwx = x'Wx."""
    return 2.0 * _norm(wx - xwx * x)


def bound_from_vector(w, y) -> float:
    """Spread lower bound from any nonzero y: the f value of y/||y||,
    written scale-free as 2 ||t - (y't/y'y) y|| / ||y|| with t = W y.

    The residual form equals 2 sqrt(y'y t't - (y't)^2) / y'y, but that
    radicand cancels to noise of order sqrt(eps) ||W|| when y is nearly an
    eigenvector; the residual keeps its relative accuracy."""
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
    return _f(y, t, float(y @ t) / yy) / math.sqrt(yy)


def grad_f_squared(w, x) -> np.ndarray:
    """Ambient gradient of f(x)^2 = 4(x'W^2x - (x'Wx)^2): 8W^2x - 16(x'Wx)Wx."""
    w = _as_matrix(w)
    x = np.asarray(x, dtype=np.float64)
    wx = w @ x
    return _gradient(w, wx, x @ wx)


def _gradient(w, wx, xwx) -> np.ndarray:
    """The ambient f^2 gradient read from wx = W x and xwx = x'Wx."""
    return 8.0 * (w @ wx) - 16.0 * xwx * wx


def _tangent_step(w, x, wx, xwx, step: float):
    """Unit x moved by ``step`` along the unit tangential component of the
    f^2 gradient (the radial part only rescales x) and renormalized, with
    W times it and its x'Wx; None when that component vanishes, so x is
    stationary."""
    g = _gradient(w, wx, xwx)
    tang = g - (g @ x) * x
    tnorm = _norm(tang)
    if tnorm <= STATIONARY_TOL * max(1.0, _norm(g)):
        return None
    x = x + step * (tang / tnorm)
    x /= _norm(x)
    wx = w @ x
    return x, wx, x @ wx


def numerical_grad_f_squared(w, x) -> np.ndarray:
    """Central finite differences, step h = 1e-6, of the ambient f^2."""
    h = 1e-6
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


class _SearchFields(NamedTuple):
    iterations: int = 10
    step: float = 0.1
    step_mode: str = "constant"


class SearchConfig(_SearchFields):
    """Projected gradient ascent settings, checked when made."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        step = float(self.step)
        if not step > 0.0:
            raise ValueError("step must be positive")
        if not math.isfinite(step):
            raise ValueError("step must be finite")
        # a step moves x to a vector of squared norm 1 + step^2 before it is
        # renormalized; the factor 2 leaves room for the rounding of that sum
        if not math.isfinite(2.0 * (1.0 + step * step)):
            raise ValueError("step must be below 9.48e153, where its squared norm overflows")
        if self.step_mode not in ("constant", "decreasing"):
            raise ValueError("step_mode must be 'constant' or 'decreasing'")
        return self

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


class SearchTrace(NamedTuple):
    """Full record of one gradient search run."""

    initial_value: float
    values: tuple
    best_value: float
    best_vector: np.ndarray
    iteration_of_best: int
    perturbed: bool
    stagnated_at: Optional[int]
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__  # an array field

    @property
    def first_step_value(self) -> float:
        """f after one step of the full size s from the all-ones start: the
        first iterate, or the start itself when it was stationary."""
        return self.initial_value if self.perturbed else self.values[0]


def gradient_search(w, config: Optional[SearchConfig] = None) -> SearchTrace:
    """Maximize f over the unit sphere by projected gradient ascent.

    Starts from the normalized all-ones vector.  Each iteration moves along
    the tangential component of the f^2 gradient (the ambient gradient
    projected onto the sphere's tangent space; the radial part only
    rescales x) with step s_k = s (constant) or s/sqrt(k) (decreasing),
    then renormalizes.  A start point whose tangential gradient vanishes
    (e.g. regular graphs, where the all-ones vector is an eigenvector) is
    nudged once in coordinate 0 so the search can leave the stationary
    point; a later stationary iterate stops the search, its value repeated
    for the remaining iterations, and the trace records where.  Returns the
    best value ever seen, including the start.  Each iterate costs two
    products by W: one for the gradient, one for the moved point.
    """
    w = _as_matrix(w)
    cfg = config or SearchConfig()
    n = w.shape[0]
    x = np.full(n, 1.0 / np.sqrt(n))
    wx = w @ x
    xwx = x @ wx
    initial = _f(x, wx, xwx)
    best, best_x, best_iter = initial, x, 0

    # the probe for a stationary start is iteration 1's step: s_1 = s in
    # both step modes
    moved = _tangent_step(w, x, wx, xwx, cfg.step)
    perturbed = moved is None
    if perturbed:
        x = x.copy()
        x[0] += 1e-3
        x /= _norm(x)
        wx = w @ x
        xwx = x @ wx
        moved = _tangent_step(w, x, wx, xwx, cfg.step)

    values = []
    stagnated_at = None
    for k in range(1, cfg.iterations + 1):
        if k > 1:
            step = cfg.step if cfg.step_mode == "constant" else cfg.step / np.sqrt(k)
            moved = _tangent_step(w, x, wx, xwx, step)
        if moved is None:
            # x stays where it is, so every later iteration stagnates too
            stagnated_at = k
            values += [_f(x, wx, xwx)] * (cfg.iterations - k + 1)
            break
        x, wx, xwx = moved
        val = _f(x, wx, xwx)
        values.append(val)
        if val > best:
            best = val
            best_x = x
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
