"""Graph matrices and their spectra.

Provides the adjacency matrix A, Laplacian L = D - A, signless Laplacian
Q = D + A, (oriented) incidence matrices, the line graph, a symmetric
eigensolver that certifies its residual, certified enclosures of a graph
matrix's extreme eigenvalues, and the three spread invariants s
(adjacency), s_L (Laplacian) and s_Q (signless Laplacian).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    return GraphMatrix(g, "laplacian").dense


def signless_laplacian_matrix(g: Graph) -> np.ndarray:
    return GraphMatrix(g, "signless").dense


# up to this many vertices a graph matrix is used as its dense array, above
# it as the O(n + m) operator: the extreme eigenvalues come from the dense
# eigenvalues() or from Lanczos (the measured crossover, see README)
DENSE_LIMIT = 400


class GraphMatrix:
    """The adjacency matrix A ("adjacency"), the Laplacian L = D - A
    ("laplacian") or the signless Laplacian Q = D + A ("signless") of g,
    plus ``fill`` in every entry (L + J is the Laplacian with fill 1).

    The one statement of a graph matrix's entries: ``diag`` + fill on the
    diagonal, ``off`` + fill at each edge, fill elsewhere.  ``dense`` is
    the n x n array, built on first use; ``w @ x`` is always the O(n + m)
    product, with no n x n array: one ``np.add.reduceat`` sums x over each
    vertex's run of neighbours in ``Graph.neighbor_index``.
    """

    def __init__(self, g: Graph, kind: str = "signless", fill: float = 0.0):
        if kind not in ("adjacency", "laplacian", "signless"):
            raise ValueError(f"unknown matrix kind {kind!r}")
        self.graph, self.kind, self.fill = g, kind, fill
        self.shape = (g.n, g.n)
        self.diag = np.zeros(g.n) if kind == "adjacency" else g.degrees.astype(np.float64)
        self.off = -1.0 if kind == "laplacian" else 1.0

    @cached_property
    def dense(self) -> np.ndarray:
        w = np.diag(self.diag) + self.off * adjacency_matrix(self.graph)
        return w + self.fill if self.fill else w

    @cached_property
    def _segments(self):
        """The tips of ``neighbor_index``, the start of each nonempty run in
        them, and the vertices those runs belong to (``...`` for all).

        ``np.add.reduceat`` sums an empty run to the next entry, not to 0,
        and refuses a start at the end, so isolated vertices get no run."""
        g = self.graph
        tips, stops = g.neighbor_index
        starts = stops - g.degrees
        if g.degrees.all():
            return tips, starts, ...
        busy = np.flatnonzero(g.degrees)
        return tips, starts[busy], busy

    def __matmul__(self, x) -> np.ndarray:
        tips, starts, busy = self._segments
        y = self.diag * x
        y[busy] += self.off * np.add.reduceat(x[tips], starts)
        return y + self.fill * x.sum() if self.fill else y

    @property
    def operand(self):
        """What to multiply by: the dense array up to DENSE_LIMIT vertices,
        the operator itself above."""
        return self.dense if self.graph.n <= DENSE_LIMIT else self


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
    resid = 0.0
    if n:
        # the largest column norm of W V - V diag(vals), squared in place
        r = w @ vecs
        r -= vecs * vals
        r *= r
        resid = math.sqrt(r.sum(axis=0).max())
    floor = n * np.finfo(np.float64).eps * scale
    tol = max(resid, floor)
    if tol > RESIDUAL_CONTRACT * scale:
        raise EigensolverError(
            f"residual {resid:.3e} exceeds contract {RESIDUAL_CONTRACT:.0e} * {scale:.3e}"
        )
    return Spectrum(values=vals[::-1].copy(), residual_tol=tol)


# ---------------------------------------------------------------------------
# certified extreme eigenvalues

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
    (lo, hi) of the exact value: proved when the values come from Lanczos
    (the top of A and Q by a Collatz-Wielandt bound, or by a Cholesky test
    when that bound misses; every other end by a Cholesky test, which runs
    on the Schur complement over a low-degree independent set), the
    residual certificate (value +- residual_tol) when they come from the
    dense solve.  For the Laplacian the bottom is
    mu_{n-1}, the second smallest eigenvalue (NaN when n = 1)."""

    top: float
    bottom: float
    top_enclosure: tuple
    bottom_enclosure: tuple


def extreme_eigenvalues(w: GraphMatrix) -> Extremes:
    """Certified top and bottom eigenvalues of the graph matrix w.

    Up to DENSE_LIMIT vertices they are the extremes of eigenvalues() on
    ``w.dense``, enclosed by its residual certificate.  Above it they come
    from Lanczos with a proved certificate (see ``_lanczos_extremes``); if
    Lanczos does not converge or the certificate fails, from the dense
    solve after all.  Either way each reported value lies within
    RESIDUAL_CONTRACT * max(1, |top|, |bottom|) of the exact one.
    """
    n = w.graph.n
    if n > DENSE_LIMIT:
        # n/5 steps keep a failed run within about a quarter of the dense
        # solve it falls back to
        found = _lanczos_extremes(w, min(LANCZOS_MAX_STEPS, n // 5))
        if found is not None:
            return found
    spectrum = eigenvalues(w.dense)
    values, tol = spectrum.values, spectrum.residual_tol
    top = float(values[0])
    if w.kind != "laplacian":
        bottom = float(values[-1])
    else:
        bottom = float(values[-2]) if n > 1 else float("nan")
    return Extremes(
        top=top,
        bottom=bottom,
        top_enclosure=(top - tol, top + tol),
        bottom_enclosure=(bottom - tol, bottom + tol),
    )


def _lanczos_extremes(w: GraphMatrix, steps: int):
    """Extremes by Lanczos with full reorthogonalization, or None when the
    run needs more than ``steps`` steps or a certificate fails.

    Each matvec costs O(n + m), one segment sum per vertex.  The
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
        Cholesky test (``_positive_definite``), with two exceptions that
        need no factorization.  A and Q are nonnegative, so the top's outer
        end is the Collatz-Wielandt bound max_i (W y)_i / y_i of the top
        Ritz vector y (``_collatz_wielandt``) when y has one sign and the
        bound is at most theta_1 + delta; otherwise, and always for the
        Laplacian, the Cholesky test runs.  When the matrix is positive
        semidefinite (Q, L + J) and theta_n <= delta, the bottom's outer end
        is 0.  The Cholesky test eliminates a low-degree independent set S
        in closed form and factors the rest, an r x r array, r = n - |S|,
        allocated only when a factorization runs.  Rump's margin grows like
        r^2, so the reach of the test is set by r, not by n.
    """
    n = w.graph.n
    laplacian = w.kind == "laplacian"
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
        r = w @ basis[j]
        # full Gram-Schmidt against the basis, twice; the first pass holds
        # the recurrence coefficient alpha_j
        coefficients = basis[: j + 1] @ r
        r -= coefficients @ basis[: j + 1]
        r -= (basis[: j + 1] @ r) @ basis[: j + 1]
        if laplacian:
            r -= r.mean()
        alpha.append(float(coefficients[j]))
        beta.append(float(np.sqrt(r @ r)))
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
        basis[k] = r / beta[-1]
    y_top, y_bottom = ritz[:, [-1, 0]].T @ basis[:k]
    delta = 0.5 * RESIDUAL_CONTRACT * scale
    # the top: (theta_1 + delta) I - W is positive definite (sign -1); the
    # bottom: W - (theta_n - delta) I is (sign +1), for L on L + J
    w_bottom = GraphMatrix(w.graph, "laplacian", fill=1.0) if laplacian else w
    sides = []
    for sign, v, y, ritz_value in ((-1.0, w, y_top, theta[-1]),
                                   (1.0, w_bottom, y_bottom, theta[0])):
        rho, (lo, hi) = _rayleigh(v, y)
        inner = lo if sign < 0 else hi
        outer = float(ritz_value) - sign * delta
        # Q and L + J are positive semidefinite: near 0 that is the outer end
        proved = sign > 0 and v.kind != "adjacency" and ritz_value <= delta
        if proved:
            outer = 0.0
        elif sign < 0 and not laplacian:
            # A and Q are nonnegative: the top has a Collatz-Wielandt bound
            bound = _collatz_wielandt(v, y)
            proved = bound is not None and bound <= outer
            if proved:
                outer = bound
        if not sign * (inner - outer) <= RESIDUAL_CONTRACT * scale:
            return None
        if not proved and not _positive_definite(v, sign, outer, delta):
            return None
        enclosure = (inner, outer) if sign < 0 else (outer, inner)
        sides.append(((min if sign < 0 else max)(rho, outer), enclosure))
    (top, top_enclosure), (bottom, bottom_enclosure) = sides
    return Extremes(top, bottom, top_enclosure, bottom_enclosure)


def _product_terms(w: GraphMatrix) -> int:
    """A bound on the products summed per row of ``w @ x``: a fill adds
    x.sum(), n more terms, to every row."""
    return int(w.graph.degrees.max()) + 3 + (w.graph.n + 1 if w.fill else 0)


def _rayleigh(w: GraphMatrix, y):
    """The computed Rayleigh quotient rho of y, and an interval around it
    that holds the exact quotient.

    With fl(W y) summing at most ``terms`` products per row and row_sum >=
    || |W| ||_inf >= |y|^T |W| |y| / y^T y, the computed rho differs from
    the exact quotient by at most 2 gamma_{2n + terms + 2} (|rho| + row_sum):
    gamma_terms from the matvec, gamma_n from each inner product and u from
    the division, doubled to cover the evaluation of the bound itself.  Both
    follow from the entries of w.  The gamma bounds hold for any order in
    which the products of a row are summed (Higham, Accuracy and Stability,
    sec. 3.1), so they do not depend on how ``w @ y`` groups its sums.
    """
    n, degrees = w.graph.n, w.graph.degrees
    terms = _product_terms(w)
    rows = abs(w.diag + w.fill) + degrees * abs(w.off + w.fill) + (n - 1 - degrees) * abs(w.fill)
    row_sum = float(rows.max())
    z = w @ y
    rho = float(y @ z) / float(y @ y)
    err = 2.0 * _gamma(2 * n + terms + 2) * (abs(rho) + row_sum)
    return rho, (float(_down(rho - err)), float(_up(rho + err)))


def _collatz_wielandt(w: GraphMatrix, y):
    """An upper bound on the top eigenvalue of the nonnegative graph matrix
    w (A or Q) from the vector y, or None when y, flipped to a positive
    sum, has an entry <= 0.

    Collatz-Wielandt (Horn & Johnson, Matrix Analysis, Thm 8.1.26): for
    W >= 0 and y > 0, lambda_1(W) <= max_i (W y)_i / y_i.  The computed
    product z = fl(W y) sums at most terms = ``_product_terms(w)`` products
    per row, so |z - W y| <= gamma_terms |W| |y| = gamma_terms W y,
    and W y <= z / (1 - gamma_terms); each step is rounded up.  That bound
    holds for any order in which a row's products are summed.
    """
    if y.sum() < 0:
        y = -y
    if not (y > 0.0).all():
        return None
    z = _up((w @ y) / _down(1.0 - _up(_gamma(_product_terms(w)))))
    return float(_up(z / y).max())


def _elimination_set(w: GraphMatrix) -> np.ndarray:
    """The vertices that the Cholesky test of w eliminates in closed form,
    ascending: a maximal independent set of the vertices v with d_v^2 < n,
    taken greedily in ascending degree order (a stable sort).  Empty when
    w has a fill, which leaves no entry zero.

    Eliminating v rewrites the d_v^2 entries between its neighbours and
    takes a row of about n^2 flops off the factorization, so d_v^2 < n is
    where it pays.
    """
    g = w.graph
    if w.fill:
        return np.empty(0, dtype=np.int64)
    degrees = g.degrees
    candidates = np.flatnonzero(degrees * degrees < g.n)
    tips, stops = g.neighbor_index
    blocked = np.zeros(g.n, dtype=bool)
    chosen = []
    for v in candidates[np.argsort(degrees[candidates], kind="stable")].tolist():
        if not blocked[v]:
            chosen.append(v)
            blocked[tips[stops[v] - degrees[v]:stops[v]]] = True
    return np.sort(np.array(chosen, dtype=np.int64))


def _positive_definite(w: GraphMatrix, sign: float, shift: float, room: float) -> bool:
    """Prove P = sign * (W - shift I) positive definite for the graph matrix
    w.  False when the proof fails, or when its margin is not below
    ``room``, the distance the caller expects from the spectrum of W to
    ``shift``.

    S. M. Rump, "Verification of positive definiteness", BIT 46 (2006)
    433-452: if the floating-point Cholesky factorization of a symmetric
    float matrix B of order r runs to completion, then B + c I is positive
    definite for any c >= gamma_{r+1} / (1 - gamma_{r+1}) tr(B) + 4r (2(r+2)
    + max_i b_ii) realmin.

    The test runs on a Schur complement of order r = n - |S|, S the
    ``_elimination_set`` of w.  S has no inner edges and no fill, so P_SS is
    diagonal, and P is positive definite exactly when P_SS is and the Schur
    complement C = P_RR - P_RS P_SS^-1 P_SR over R = V \\ S is.
      * Lower bounds.  p_i >= pl_i = down(gap_i) > 0 for the computed
        diagonal gap_i of P, and rh_s = up(1 / pl_s) >= 1 / p_s.  With b_s
        the +-1 entries of P between s and its neighbours (all in R), and
        Pl equal to P with pl on its diagonal, C >= Cl = Pl_RR - sum_s rh_s
        b_s b_s^T.  Each b_s b_s^T is 1 on N(s) x N(s).
      * Rounding.  F = fl(Cl) subtracts at most K = max_i |N(i) & S| of the
        rh_s from each entry of Pl_RR, a recursive sum of K + 1 terms, so
        |F_ij - Cl_ij| <= gamma_K (|Pl_ij| + sum rh_s) (Higham, Accuracy
        and Stability of Numerical Algorithms, (4.4)).  A row of that bound
        sums to at most gamma_K (pl_i + d_i + sum_{s in N(i) & S} rh_s d_s),
        so Cl >= F - eps I, eps the largest row, rounded up.
      * B = F - (eps + c) I, its diagonal rounded down, and c the margin at
        order r from tr(F) >= tr(B), rounded up.  If the factorization of B
        runs to completion, C >= Cl >= F - eps I >= B + c I > 0.
      * lambda_min(C) >= lambda_min(P), since C^-1 is a principal block of
        P^-1, so a margin eps + c below ``room`` still leaves room for C.
      * (i, j) and (j, i) take the same subtractions in the same order, so
        F is symmetric bit for bit.
      * The factorization runs by blocks of rows (``_cholesky_completes``),
        and Rump's margin still applies.  His proof rests on |B - U^T U| <=
        gamma_{r+1} |U^T| |U| for the computed factor U (Higham, op. cit.,
        Lemma 8.4 and Thm 10.3), and Lemma 8.4 holds for any order and
        grouping of the sums.  Entry u_ij, i <= j, is (b_ij - sum_{k<i}
        u_ki u_kj) / u_ii, or its square root for j = i.  The blocked order
        computes (b_ij - S_1) - S_2 - ... - S_G, each S_g a BLAS dot
        product over some of the i - 1 rows above.  A product in S_g passes
        through at most |S_g| roundings inside S_g and one in each of the
        subtractions from the g-th on; every group holds at least one
        product, so that is at most i, as in the recursive order.  No
        Strassen-type product is used; LAPACK's own dpotrf is blocked the
        same way.
    With S empty (a fill, or no vertex with d^2 < n) eps = 0, and this is
    the test on the whole of P.  Only the r x r array of B is ever
    allocated at order r: the factor overwrites its upper triangle, and
    the factorization's own arrays have at most _CHOLESKY_BLOCK rows.
    """
    g = w.graph
    gaps = sign * (w.diag + w.fill - shift)  # the diagonal of P, up to one rounding
    low = _down(gaps)
    if not (low > 0.0).all():
        return False
    eliminated = _elimination_set(w)
    kept = np.ones(g.n, dtype=bool)
    kept[eliminated] = False
    r = g.n - len(eliminated)
    position = np.cumsum(kept) - 1
    # the neighbours of each eliminated vertex, one run per vertex
    tips, stops = g.neighbor_index
    lengths = g.degrees[eliminated]
    runs = tips[np.arange(lengths.sum()) + np.repeat(stops[eliminated] - lengths.cumsum(), lengths)]
    # rh_s of the eliminated vertex of each run entry
    inverse = np.repeat(_up(1.0 / low[eliminated]), lengths)
    diagonal = low[kept]
    np.subtract.at(diagonal, position[runs], inverse)
    if not (diagonal > 0.0).all():
        return False
    eps = 0.0
    if len(runs):
        k = int(np.bincount(runs).max())
        # each row bound is a sum of k + 2 positive terms, each rounded at
        # most k + 2 times
        rows = low + g.degrees + np.bincount(runs, inverse * np.repeat(lengths, lengths), g.n)
        eps = _gamma(k) * float(rows[kept].max()) / (1.0 - _gamma(k + 2))
    trace = float(diagonal.sum()) * (1.0 + _gamma(r + 2))
    margin = _gamma(r + 1) / (1.0 - _gamma(r + 1)) * trace
    margin += 4.0 * r * (2.0 * (r + 2) + float(diagonal.max(initial=0.0))) * _REALMIN
    margin = (margin + eps) * (1.0 + 16.0 * _UNIT_ROUNDOFF)
    if not margin < room:
        return False
    if not r:  # an edgeless graph: P is its positive diagonal
        return True
    b = _schur_complement(w, sign, kept, position, runs, lengths, inverse)
    b[np.diag_indices(r)] = _down(diagonal - margin)
    return _cholesky_completes(b)


# rows per block of ``_cholesky_completes`` (the measured best, see README)
_CHOLESKY_BLOCK = 48


def _cholesky_completes(b: np.ndarray) -> bool:
    """Whether the floating-point Cholesky factorization b = U^T U of the
    symmetric array b runs to completion, every pivot positive.

    U overwrites the upper triangle of b, left-looking by blocks of
    _CHOLESKY_BLOCK rows.  For each block, one product subtracts the rows
    of U above it from its rows, ``np.linalg.cholesky`` factors its
    diagonal square, and forward substitution finishes the rest of its
    rows (the panel) one row at a time.  Every array allocated has at most
    _CHOLESKY_BLOCK rows; at order r <= _CHOLESKY_BLOCK this is one
    ``np.linalg.cholesky`` call.
    """
    r = len(b)
    for i in range(0, r, _CHOLESKY_BLOCK):
        j = min(i + _CHOLESKY_BLOCK, r)
        if i:
            b[i:j, i:] -= b[:i, i:j].T @ b[:i, i:]
        try:
            u = np.linalg.cholesky(b[i:j, i:j], upper=True)
        except np.linalg.LinAlgError:
            return False
        b[i:j, i:j] = u
        if j == r:
            break
        panel = b[i:j, j:]
        # row k of the panel: (b_k - sum_{l<k} u_lk x_l) / u_kk
        for k, (column, pivot) in enumerate(zip(u.T.copy(), u.diagonal().tolist())):
            if k:
                panel[k] -= column[:k] @ panel[:k]
            panel[k] /= pivot
    return True


def _schur_complement(w: GraphMatrix, sign: float, kept, position, runs, lengths,
                      inverse) -> np.ndarray:
    """F of ``_positive_definite`` in a new r x r array, r = kept.sum(),
    but for its diagonal, which the caller overwrites.  Each eliminated
    vertex, in ascending order, subtracts its rh_s (``inverse``, one per run
    entry) from every pair of entries of its run in ``runs``.  The index
    arrays die on return, before the factorization, which overwrites this
    array and allocates only arrays of at most _CHOLESKY_BLOCK rows."""
    r = int(position[-1]) + 1
    b = np.full((r, r), sign * w.fill) if w.fill else np.zeros((r, r))
    u, v = w.graph.edge_array.T
    if len(runs):
        inner = kept[u] & kept[v]
        u, v = position[u[inner]], position[v[inner]]
    b[u, v] = b[v, u] = sign * (w.off + w.fill)
    # row by row: each entry of a run of length d is paired with the d
    # entries of its run
    per = np.repeat(lengths, lengths)
    first = np.repeat(lengths.cumsum() - lengths, lengths)
    rows = position[runs]
    cols = rows[np.arange(per.sum()) + np.repeat(first - (per.cumsum() - per), per)]
    np.subtract.at(b.reshape(-1), np.repeat(rows * r, per) + cols, np.repeat(inverse, per))
    return b


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
    a = extreme_eigenvalues(GraphMatrix(g, "adjacency"))
    mu = extreme_eigenvalues(GraphMatrix(g, "laplacian"))
    q = extreme_eigenvalues(GraphMatrix(g, "signless"))
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
