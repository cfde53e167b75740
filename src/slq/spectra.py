"""Graph matrices and their spectra.

Provides the adjacency matrix A, Laplacian L = D - A, signless Laplacian
Q = D + A, (oriented) incidence matrices, the line graph, a symmetric
eigensolver that certifies its residual, certified enclosures of a graph
matrix's extreme eigenvalues, and the three spread invariants s
(adjacency), s_L (Laplacian) and s_Q (signless Laplacian).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, GraphError, build_graph
from .rng import splitmix64_stream


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


def graph_matrix(g: Graph, matrix: str) -> np.ndarray:
    """The dense "adjacency", "laplacian" or "signless" matrix of g."""
    if matrix == "adjacency":
        return adjacency_matrix(g)
    if matrix == "laplacian":
        return laplacian_matrix(g)
    if matrix == "signless":
        return signless_laplacian_matrix(g)
    raise ValueError(f"unknown matrix kind {matrix!r}")


# ---------------------------------------------------------------------------
# certified extreme eigenvalues

# at or below this many vertices the extremes come from the dense
# eigenvalues(), above it from Lanczos (the measured crossover, see README)
DENSE_LIMIT = 400
# Lanczos steps before the dense fallback takes over, and at most n/5
LANCZOS_MAX_STEPS = 200
# Lanczos steps before the first convergence test; each later test comes a
# quarter more steps on
_FIRST_CHECK = 10
_UNIT_ROUNDOFF = 2.0**-53
_REALMIN = float(np.finfo(np.float64).tiny)


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the classical rounding-error factor."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _down(x):
    """The next float below fl(x): at most the exact x of a single
    round-to-nearest operation."""
    return np.nextafter(x, -np.inf)


def _up(x):
    """The next float above fl(x)."""
    return np.nextafter(x, np.inf)


@dataclass(frozen=True, eq=False)
class Extremes:
    """Top and bottom eigenvalue of a graph matrix, each with an enclosure
    (lo, hi) of the exact value: proved when the values come from Lanczos,
    the residual certificate (value +- residual_tol) when they come from the
    dense solve.  For the Laplacian the bottom is mu_{n-1}, the second
    smallest eigenvalue (NaN when n = 1)."""

    top: float
    bottom: float
    top_enclosure: tuple
    bottom_enclosure: tuple


def extreme_eigenvalues(g: Graph, matrix: str = "signless") -> Extremes:
    """Certified top and bottom eigenvalues of the graph's "adjacency",
    "laplacian" or "signless" matrix.

    Up to DENSE_LIMIT vertices they are the extremes of the dense
    eigenvalues(), enclosed by its residual certificate.  Above it they come
    from Lanczos with a Cholesky certificate (see ``_lanczos_extremes``); if
    Lanczos does not converge or the certificate fails, from the dense
    solve after all.  Either way each reported value lies within
    RESIDUAL_CONTRACT * max(1, |top|, |bottom|) of the exact one.
    """
    if g.n > DENSE_LIMIT:
        # n/5 steps keep a failed run within about a quarter of the dense
        # solve it falls back to
        found = _lanczos_extremes(g, matrix, min(LANCZOS_MAX_STEPS, g.n // 5))
        if found is not None:
            return found
    spectrum = eigenvalues(graph_matrix(g, matrix))
    values, tol = spectrum.values, spectrum.residual_tol
    top = float(values[0])
    if matrix != "laplacian":
        bottom = float(values[-1])
    else:
        bottom = float(values[-2]) if g.n > 1 else float("nan")
    return Extremes(
        top=top,
        bottom=bottom,
        top_enclosure=(top - tol, top + tol),
        bottom_enclosure=(bottom - tol, bottom + tol),
    )


def _lanczos_extremes(g: Graph, matrix: str, steps: int):
    """Extremes by Lanczos with full reorthogonalization, or None when the
    run needs more than ``steps`` steps or a certificate fails.

    Each matvec costs O(n + m), a ``bincount`` over the edge array.  The
    start vector is fixed, so the output is the same on every run.  For the
    Laplacian the Krylov space is kept orthogonal to the all-ones vector, so
    the bottom Ritz value approximates mu_{n-1}; its certificate is on
    L + J, whose eigenvalues are n and mu_1 .. mu_{n-1}.  The run stops
    when both extreme Ritz residuals are within RESIDUAL_CONTRACT * scale,
    scale = max(1, |theta_1|, |theta_n|).  Each enclosure then has
      * an inner end, the Rayleigh quotient of the Ritz vector widened by a
        bound on its rounding error (``_rayleigh``), and
      * an outer end theta_1 + delta above the top and theta_n - delta below
        the bottom, delta = RESIDUAL_CONTRACT * scale / 2, proved by a
        Cholesky test (``_positive_definite``).  When the matrix is positive
        semidefinite (Q, L + J) and theta_n <= delta, the bottom's outer end
        is 0 without a factorization.
    """
    n = g.n
    laplacian = matrix == "laplacian"
    ends = g.edge_array.ravel()
    tips = ends.reshape(-1, 2)[:, ::-1].ravel()  # the other end of each entry
    degrees = g.degrees.astype(np.float64)
    diag = np.zeros(n) if matrix == "adjacency" else degrees
    off = -1.0 if laplacian else 1.0  # the matrix entry at each edge

    def apply(x):
        y = np.bincount(ends, x[tips], n)
        if laplacian:
            return diag * x - y
        return diag * x + y

    steps = min(steps, n - 1 if laplacian else n)
    if steps < 1:
        return None
    basis = np.empty((steps, n))
    start = splitmix64_stream(0, n) / 2.0**64 - 0.5
    if laplacian:
        start -= start.mean()
    basis[0] = start / np.linalg.norm(start)
    alpha, beta = [], []
    check = _FIRST_CHECK
    for j in range(steps):
        w = apply(basis[j])
        # full Gram-Schmidt against the basis, twice; the first pass holds
        # the recurrence coefficient alpha_j
        coefficients = basis[: j + 1] @ w
        w -= coefficients @ basis[: j + 1]
        w -= (basis[: j + 1] @ w) @ basis[: j + 1]
        if laplacian:
            w -= w.mean()
        alpha.append(float(coefficients[j]))
        beta.append(float(np.sqrt(w @ w)))
        k = j + 1
        # beta_j below the contract means an invariant subspace (every
        # residual is at most beta_j and |alpha_j| <= scale); going on would
        # normalize rounding noise into a vector that is not orthogonal
        invariant = beta[-1] <= RESIDUAL_CONTRACT * max(1.0, abs(alpha[-1]))
        if k == check or k == steps or invariant:
            check += max(_FIRST_CHECK, k // 4)
            t = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
            theta, ritz = np.linalg.eigh(t)
            scale = max(1.0, float(abs(theta[0])), float(abs(theta[-1])))
            if (beta[-1] * np.abs(ritz[-1, [-1, 0]]) <= RESIDUAL_CONTRACT * scale).all():
                break
            if k == steps:
                return None
        basis[k] = w / beta[-1]
    y_top, y_bottom = ritz[:, [-1, 0]].T @ basis[:k]
    delta = 0.5 * RESIDUAL_CONTRACT * scale
    width = RESIDUAL_CONTRACT * scale
    buffer = np.empty((n, n))
    degree_max = float(degrees.max())
    # (terms summed per row of the matvec, largest absolute row sum)
    rows = (degree_max + 3, degree_max if matrix == "adjacency" else 2.0 * degree_max)

    rho, (inner, _) = _rayleigh(apply, y_top, *rows)
    outer = float(theta[-1]) + delta
    if not outer - inner <= width:
        return None
    if not _positive_definite(buffer, g, -1.0, outer, diag, off, 0.0, delta):
        return None
    top, top_enclosure = min(rho, outer), (inner, outer)

    entries, apply_bottom = (diag, off, 0.0), apply
    if laplacian:  # the bottom is certified on L + J

        def apply_bottom(x):
            return apply(x) + x.sum()

        entries = (diag + 1.0, 0.0, 1.0)
        rows = (n + degree_max + 4, float(n))
    rho, (_, inner) = _rayleigh(apply_bottom, y_bottom, *rows)
    # Q and L + J are positive semidefinite: near 0 that is the outer end
    semidefinite = matrix != "adjacency" and theta[0] <= delta
    outer = 0.0 if semidefinite else float(theta[0]) - delta
    if not inner - outer <= width:
        return None
    if not semidefinite and not _positive_definite(buffer, g, 1.0, outer, *entries, delta):
        return None
    return Extremes(
        top=top,
        bottom=max(rho, outer),
        top_enclosure=top_enclosure,
        bottom_enclosure=(outer, inner),
    )


def _rayleigh(apply, y, terms: float, row_sum: float):
    """The computed Rayleigh quotient rho of y, and an interval around it
    that holds the exact quotient.

    With fl(W y) summing at most ``terms`` products per row and row_sum >=
    || |W| ||_inf >= |y|^T |W| |y| / y^T y, the computed rho differs from
    the exact quotient by at most 2 gamma_{2n + terms + 2} (|rho| + row_sum):
    gamma_terms from the matvec, gamma_n from each inner product and u from
    the division, doubled to cover the evaluation of the bound itself.
    """
    z = apply(y)
    rho = float(y @ z) / float(y @ y)
    err = 2.0 * _gamma(2 * len(y) + int(terms) + 2) * (abs(rho) + row_sum)
    return rho, (float(_down(rho - err)), float(_up(rho + err)))


def _positive_definite(buffer, g: Graph, sign: float, shift: float, diag, off: float,
                       fill: float, room: float) -> bool:
    """Prove P = sign * (W - shift I) positive definite, where the symmetric W
    has diagonal ``diag``, the entry ``off`` at each edge of g and ``fill``
    elsewhere.  False when the proof fails, or when its margin is not below
    ``room``, the distance the caller expects from the spectrum of W to
    ``shift``.

    S. M. Rump, "Verification of positive definiteness", BIT 46 (2006)
    433-452: if the floating-point Cholesky factorization of a symmetric
    float matrix B runs to completion, then B + c I is positive definite for
    any c >= gamma_{n+1} / (1 - gamma_{n+1}) tr(B) + 4n (2(n+2) + max_i b_ii)
    realmin.  B = P - c I is written into ``buffer`` with every diagonal
    entry rounded down, so P >= B + c I; the trace and c are rounded up.
    """
    n = g.n
    gaps = sign * (diag - shift)  # the diagonal of P, up to one rounding
    if not (gaps > 0.0).all():
        return False
    trace = float(gaps.sum()) * (1.0 + _gamma(n + 2))
    margin = _gamma(n + 1) / (1.0 - _gamma(n + 1)) * trace
    margin += 4.0 * n * (2.0 * (n + 2) + float(gaps.max())) * _REALMIN
    margin *= 1.0 + 8.0 * _UNIT_ROUNDOFF
    if not margin < room:
        return False
    buffer.fill(sign * fill)
    u, v = g.edge_array.T
    buffer[u, v] = sign * off
    buffer[v, u] = sign * off
    if sign < 0:
        buffer[np.diag_indices(n)] = _down(_down(shift - margin) - diag)
    else:
        buffer[np.diag_indices(n)] = _down(diag - _up(shift + margin))
    try:
        np.linalg.cholesky(buffer)
    except np.linalg.LinAlgError:
        return False
    return True


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
    Laplacian spread q_1 - q_n for a graph with at least 2 vertices, from
    the certified extremes of A, L and Q."""
    if g.n < 2:
        raise GraphError("spread needs at least 2 vertices")
    a = extreme_eigenvalues(g, "adjacency")
    mu = extreme_eigenvalues(g, "laplacian")
    q = extreme_eigenvalues(g, "signless")
    return SpreadReport(
        s=a.top - a.bottom,
        s_l=mu.top - mu.bottom,
        s_q=q.top - q.bottom,
        lambda1=a.top,
        lambda_n=a.bottom,
        mu1=mu.top,
        algebraic_connectivity=mu.bottom,
        q1=q.top,
        qn=q.bottom,
    )
