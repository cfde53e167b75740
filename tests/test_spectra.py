"""Graph matrices, the certified eigensolver, spreads, and exact identities.

The eigensolver is cross-checked against an independent oracle: the exact
integer characteristic polynomial (Faddeev-LeVerrier over rationals)
whose roots come from numpy's companion-matrix solver.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slq import (
    EigensolverError,
    adjacency_matrix,
    build_graph,
    eigenvalues,
    generate_named,
    generate_random_connected,
    incidence_matrix,
    is_bipartite,
    laplacian_matrix,
    line_graph,
    oriented_incidence_matrix,
    signless_laplacian_matrix,
    spread_report,
)
from slq.rng import SplitMix64

connected_specs = st.integers(2, 10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(n - 1, n * (n - 1) // 2),
        st.integers(0, 2**64 - 1),
    )
)


def exact_char_poly(w: np.ndarray) -> list[Fraction]:
    """Oracle: exact characteristic polynomial coefficients (monic, descending
    powers) by Faddeev-LeVerrier over Fractions."""
    n = w.shape[0]
    a = [[Fraction(int(w[i, j])) for j in range(n)] for i in range(n)]

    def matmul(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    def trace(x):
        return sum(x[i][i] for i in range(n))

    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += coeffs[-1]
        m = matmul(a, m)
        coeffs.append(Fraction(-1, k) * trace(m))
    return coeffs


def assert_spectrum_matches_char_poly(values: np.ndarray, w: np.ndarray) -> None:
    """Rebuilding the monic polynomial from the computed roots must reproduce
    the exact coefficients.  Roots of integer char polys are ill-conditioned at
    multiplicities, so the comparison runs in coefficient space instead."""
    exact = exact_char_poly(w)
    rebuilt = np.poly(values)
    for got, want in zip(rebuilt, exact):
        assert abs(got - float(want)) <= 1e-7 * max(1.0, abs(float(want)))


class TestMatrices:
    def test_signless_laplacian_entries(self):
        q = signless_laplacian_matrix(generate_named("path", 3))
        assert np.array_equal(q, [[1, 1, 0], [1, 2, 1], [0, 1, 1]])

    def test_laplacian_rows_sum_to_zero(self):
        lap = laplacian_matrix(generate_random_connected(7, 11, seed=5))
        assert np.abs(lap.sum(axis=1)).max() == 0

    def test_incidence_gram_is_two_i_plus_line_adjacency(self):
        g = generate_named("path", 3)
        inc = incidence_matrix(g)
        assert np.array_equal(inc.T @ inc, [[2, 1], [1, 2]])

    @given(connected_specs)
    def test_incidence_factorizations_exact(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, m, seed)
        inc = incidence_matrix(g)
        assert np.array_equal(inc @ inc.T, signless_laplacian_matrix(g).astype(np.int64))
        rng = SplitMix64(seed ^ 0xA5A5A5A5)
        orientation = [1 if rng.next_uint64() & 1 else -1 for _ in range(g.m)]
        k = oriented_incidence_matrix(g, orientation)
        assert np.array_equal(k @ k.T, laplacian_matrix(g).astype(np.int64))

    def test_orientation_validation(self):
        g = generate_named("path", 3)
        with pytest.raises(Exception):
            oriented_incidence_matrix(g, [1])
        with pytest.raises(Exception):
            oriented_incidence_matrix(g, [1, 2])


def reference_line_graph_edges(g):
    """The loop line graph, kept as the reference: every pair of edges at
    each vertex."""
    incident = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        incident[u].append(e)
        incident[v].append(e)
    pairs = {(a, b) for lst in incident for i, a in enumerate(lst) for b in lst[i + 1:]}
    return tuple(sorted(pairs))


class TestLineGraph:
    def test_path_line_is_shorter_path(self):
        lg = line_graph(generate_named("path", 4))
        assert lg == build_graph(3, [(0, 1), (1, 2)])

    def test_star_line_is_complete(self):
        lg = line_graph(generate_named("star", 3))
        assert lg == generate_named("complete", 3)

    def test_disjoint_edges_give_isolated_line_vertices(self):
        lg = line_graph(build_graph(4, [(0, 1), (2, 3)]))
        assert (lg.n, lg.m) == (2, 0)

    @given(connected_specs)
    def test_line_graph_size(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, m, seed)
        lg = line_graph(g)
        assert lg.n == g.m
        assert lg.m == sum(d * (d - 1) // 2 for d in g.degrees)
        assert lg.edges == reference_line_graph_edges(g)

    @given(connected_specs)
    def test_signless_eigenvalues_shift_to_line_graph(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, m, seed)
        qv = eigenvalues(signless_laplacian_matrix(g)).values
        lam = eigenvalues(adjacency_matrix(line_graph(g))).values
        top = min(n, m)
        assert np.abs(qv[:top] - (2.0 + lam[:top])).max() < 1e-8

    def test_more_edges_than_vertices_pads_minus_two(self):
        g = generate_named("complete", 4)  # m = 6 > n = 4
        lam = eigenvalues(adjacency_matrix(line_graph(g))).values
        assert np.abs(lam[4:] - (-2.0)).max() < 1e-8


class TestEigenvalues:
    def test_cycle4_signless_spectrum(self):
        vals = eigenvalues(signless_laplacian_matrix(generate_named("cycle", 4))).values
        assert np.allclose(vals, [4.0, 2.0, 2.0, 0.0], atol=1e-9)

    def test_star3_signless_spectrum(self):
        vals = eigenvalues(signless_laplacian_matrix(generate_named("star", 3))).values
        assert np.allclose(vals, [4.0, 1.0, 1.0, 0.0], atol=1e-9)

    def test_descending_order(self):
        vals = eigenvalues(signless_laplacian_matrix(generate_random_connected(9, 14, 3))).values
        assert np.all(np.diff(vals) <= 1e-12)

    def test_residual_certificate(self):
        q = signless_laplacian_matrix(generate_random_connected(30, 100, seed=8))
        spec = eigenvalues(q)
        scale = max(1.0, float(np.abs(spec.values).max()))
        assert 0.0 < spec.residual_tol <= 1e-9 * scale

    def test_trace_sum_invariant(self):
        for seed in range(5):
            g = generate_random_connected(12, 20, seed=seed)
            q = signless_laplacian_matrix(g)
            spec = eigenvalues(q)
            assert abs(spec.values.sum() - np.trace(q)) <= g.n * spec.residual_tol

    def test_input_validation(self):
        with pytest.raises(ValueError, match="square"):
            eigenvalues(np.ones((2, 3)))
        with pytest.raises(ValueError, match="symmetric"):
            eigenvalues(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError, match="finite"):
            eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @given(connected_specs)
    def test_matches_char_poly_oracle(self, spec):
        n, m, seed = spec
        if n > 7:
            n, m = 7, min(m, 21)
            m = max(m, n - 1)
        g = generate_random_connected(n, m, seed)
        for matrix in (adjacency_matrix(g), laplacian_matrix(g), signless_laplacian_matrix(g)):
            assert_spectrum_matches_char_poly(eigenvalues(matrix).values, matrix)

    def test_named_specs_match_char_poly_oracle(self):
        for g in (
            generate_named("path", 5),
            generate_named("cycle", 6),
            generate_named("complete", 5),
            generate_named("star", 4),
            generate_named("complete_bipartite", (2, 3)),
            generate_named("kn1uk1", 6),
        ):
            q = signless_laplacian_matrix(g)
            assert_spectrum_matches_char_poly(eigenvalues(q).values, q)


class TestSpreadReport:
    def test_path3_exact(self):
        r = spread_report(generate_named("path", 3))
        assert r.s_q == pytest.approx(3.0, abs=1e-9)
        assert r.s_l == pytest.approx(2.0, abs=1e-9)
        assert r.s == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)
        assert r.q1 == pytest.approx(3.0, abs=1e-9)
        assert r.qn == pytest.approx(0.0, abs=1e-9)
        assert r.algebraic_connectivity == pytest.approx(1.0, abs=1e-9)

    def test_complete4(self):
        r = spread_report(generate_named("complete", 4))
        assert r.s_q == pytest.approx(4.0, abs=1e-9)
        assert r.mu1 == pytest.approx(4.0, abs=1e-9)
        assert r.lambda1 == pytest.approx(3.0, abs=1e-9)

    def test_single_vertex_rejected(self):
        with pytest.raises(Exception, match="at least 2"):
            spread_report(generate_named("path", 1))

    @given(connected_specs)
    def test_bipartite_signless_equals_laplacian_top(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, n - 1, seed)  # trees are bipartite
        assert is_bipartite(g)[0]
        r = spread_report(g)
        assert r.qn == pytest.approx(0.0, abs=1e-8)
        assert r.q1 == pytest.approx(r.mu1, abs=1e-8)

    @given(connected_specs)
    def test_psd_and_interlacing_basics(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, m, seed)
        r = spread_report(g)
        assert r.qn >= -1e-9
        assert r.s_q >= 0.0 and r.s_l >= 0.0 and r.s >= 0.0
