"""Graph matrices and their spectra.

Provides the adjacency matrix A, Laplacian L = D - A, signless Laplacian
Q = D + A, (oriented) incidence matrices, the line graph, a symmetric
eigensolver that certifies its residual, and the three spread invariants
s (adjacency), s_L (Laplacian) and s_Q (signless Laplacian).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, GraphError, build_graph


class EigensolverError(RuntimeError):
    """Eigendecomposition failed to meet the residual contract."""


# residual certificate required of every decomposition
RESIDUAL_CONTRACT = 1e-9


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.float64)
    u, v = g.edge_array.T
    a[u, v] = 1.0
    a[v, u] = 1.0
    return a


def laplacian_matrix(g: Graph) -> np.ndarray:
    a = adjacency_matrix(g)
    return np.diag(g.degrees) - a


def signless_laplacian_matrix(g: Graph) -> np.ndarray:
    a = adjacency_matrix(g)
    return np.diag(g.degrees) + a


def incidence_matrix(g: Graph) -> np.ndarray:
    """Unoriented incidence: n x m 0/1 integer matrix, I I^T = Q exactly."""
    inc = np.zeros((g.n, g.m), dtype=np.int64)
    inc[g.edge_array.T, np.arange(g.m)] = 1
    return inc


def oriented_incidence_matrix(g: Graph, orientation=None) -> np.ndarray:
    """Oriented incidence: +1 at the head, -1 at the tail; K K^T = L exactly.

    ``orientation`` is an optional sequence of +-1 per canonical edge; +1
    keeps the edge pointing from its smaller to its larger endpoint.  The
    Laplacian identity holds for every orientation.
    """
    s = np.ones(g.m, dtype=np.int64) if orientation is None else np.asarray(orientation)
    if s.shape != (g.m,):
        raise GraphError("orientation must give one sign per edge")
    if not np.isin(s, (-1, 1)).all():
        raise GraphError("orientation entries must be +1 or -1")
    inc = np.zeros((g.n, g.m), dtype=np.int64)
    inc[g.edge_array.T, np.arange(g.m)] = -s, s
    return inc


def line_graph(g: Graph) -> Graph:
    """Graph on the edges of g; two edges are adjacent iff they share an endpoint."""
    if g.m == 0:
        raise GraphError("line graph of an edgeless graph has no vertices")
    # the edges at each vertex, one run per vertex
    ends = g.edge_array.ravel()
    order = np.argsort(ends)
    incident = order // 2
    # pair each entry with every later entry of its run
    later = np.cumsum(g.degrees)[ends[order]] - np.arange(2 * g.m) - 1
    first = np.repeat(np.arange(2 * g.m), later)
    offset = np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later) + 1
    pairs = np.stack((incident[first], incident[first + offset]), axis=1)
    return build_graph(g.m, pairs, allow_isolated=True)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues in descending order plus the certified residual bound."""

    values: np.ndarray
    residual_tol: float


def eigenvalues(w: np.ndarray) -> Spectrum:
    """Symmetric eigendecomposition with a residual certificate.

    Validates shape, symmetry and finiteness, then solves and measures
    max_i ||W v_i - lambda_i v_i||_2.  The reported residual_tol is that
    measurement floored at n*eps*max(1, ||W||_2); if it exceeds
    1e-9 * max(1, ||W||_2) the decomposition is rejected.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(w).all():
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(w, w.T):
        if not np.allclose(w, w.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(w).max())):
            raise ValueError("matrix must be symmetric")
        w = 0.5 * (w + w.T)
    n = w.shape[0]
    vals, vecs = np.linalg.eigh(w)
    scale = max(1.0, float(np.abs(vals).max()) if n else 1.0)
    resid = float(np.linalg.norm(w @ vecs - vecs * vals, axis=0).max()) if n else 0.0
    floor = n * np.finfo(np.float64).eps * scale
    tol = max(resid, floor)
    if tol > RESIDUAL_CONTRACT * scale:
        raise EigensolverError(
            f"residual {resid:.3e} exceeds contract {RESIDUAL_CONTRACT:.0e} * {scale:.3e}"
        )
    return Spectrum(values=vals[::-1].copy(), residual_tol=tol)


@dataclass(frozen=True, eq=False)
class SpreadReport:
    """The three spreads and the extreme eigenvalues they come from."""

    s: float
    s_l: float
    s_q: float
    lambda1: float
    lambda_n: float
    mu1: float
    algebraic_connectivity: float
    q1: float
    qn: float


def spread_report(g: Graph) -> SpreadReport:
    """Adjacency spread, Laplacian spread mu_1 - mu_{n-1}, and signless
    Laplacian spread q_1 - q_n for a graph with at least 2 vertices."""
    if g.n < 2:
        raise GraphError("spread needs at least 2 vertices")
    a = eigenvalues(adjacency_matrix(g)).values
    mu = eigenvalues(laplacian_matrix(g)).values
    q = eigenvalues(signless_laplacian_matrix(g)).values
    return SpreadReport(
        s=float(a[0] - a[-1]),
        s_l=float(mu[0] - mu[-2]),
        s_q=float(q[0] - q[-1]),
        lambda1=float(a[0]),
        lambda_n=float(a[-1]),
        mu1=float(mu[0]),
        algebraic_connectivity=float(mu[-2]),
        q1=float(q[0]),
        qn=float(q[-1]),
    )
