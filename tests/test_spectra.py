"""Graph matrices, the certified eigensolver, spreads, and exact identities.

The eigensolver is cross-checked against an independent oracle: the exact
integer characteristic polynomial (Faddeev-LeVerrier over rationals)
whose roots come from numpy's companion-matrix solver.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slq import (
    EigensolverError,
    GraphMatrix,
    adjacency_matrix,
    build_graph,
    eigenvalues,
    generate_named,
    generate_random_connected,
    incidence_matrix,
    is_bipartite,
    is_connected,
    laplacian_matrix,
    line_graph,
    oriented_incidence_matrix,
    signless_laplacian_matrix,
    spread_report,
)
from slq import spectra
from slq.report import parse_graph_spec
from slq.rng import SplitMix64
from slq.validation import standard_corpus

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


KINDS = (("adjacency", 0.0), ("laplacian", 0.0), ("signless", 0.0), ("laplacian", 1.0))


def reference_matrix(g, kind, fill=0.0):
    """Reference assemblers, independent of GraphMatrix: A from the edge
    array, L = diag(d) - A, Q = diag(d) + A, plus fill in every entry."""
    a = np.zeros((g.n, g.n))
    u, v = g.edge_array.T
    a[u, v] = 1.0
    a[v, u] = 1.0
    w = {"adjacency": a, "laplacian": np.diag(g.degrees) - a,
         "signless": np.diag(g.degrees) + a}[kind]
    return w + fill if fill else w


class TestGraphMatrix:
    def test_dense_is_the_reference_bit_for_bit(self):
        for label, g in standard_corpus():
            for kind, fill in KINDS:
                dense = GraphMatrix(g, kind, fill).dense
                assert dense.dtype == np.float64
                assert dense.tobytes() == reference_matrix(g, kind, fill).tobytes(), (label, kind)
            assert laplacian_matrix(g).tobytes() == reference_matrix(g, "laplacian").tobytes()
            assert signless_laplacian_matrix(g).tobytes() == reference_matrix(g, "signless").tobytes()

    def test_product_agrees_with_the_dense_product(self):
        rng = SplitMix64(8101)
        for label, g in standard_corpus():
            x = np.array([rng.next_uint64() / 2.0**64 - 0.5 for _ in range(g.n)])
            for kind, fill in KINDS:
                w = GraphMatrix(g, kind, fill)
                scale = max(1.0, float(np.abs(w.dense).sum(axis=1).max()))
                assert np.abs(w @ x - w.dense @ x).max() <= 1e-12 * scale, (label, kind)

    def test_operand_is_dense_up_to_the_limit(self):
        small = GraphMatrix(generate_named("path", spectra.DENSE_LIMIT))
        assert small.operand is small.dense
        large = GraphMatrix(generate_named("path", spectra.DENSE_LIMIT + 1))
        assert large.operand is large
        assert "dense" not in vars(large)  # no n x n array was built

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown matrix kind"):
            GraphMatrix(generate_named("path", 3), "incidence")


def reference_extremes(g, matrix):
    """(top, bottom, tolerance) from np.linalg.eigvalsh on the dense matrix;
    the bottom of the Laplacian is mu_{n-1}.  The tolerance is the
    reference's own rounding error, 10 n eps max(1, |top|, |bottom|)."""
    values = np.linalg.eigvalsh(reference_matrix(g, matrix))
    top, bottom = values[-1], values[1 if matrix == "laplacian" else 0]
    scale = max(1.0, abs(top), abs(bottom))
    return top, bottom, 10 * g.n * np.finfo(float).eps * scale


def assert_encloses(found, g, matrix):
    top, bottom, tol = reference_extremes(g, matrix)
    scale = max(1.0, abs(top), abs(bottom))
    assert found.top == pytest.approx(top, rel=0, abs=1e-9 * scale)
    assert found.bottom == pytest.approx(bottom, rel=0, abs=1e-9 * scale)
    for (lo, hi), exact in ((found.top_enclosure, top), (found.bottom_enclosure, bottom)):
        assert lo - tol <= exact <= hi + tol
        assert lo <= hi and hi - lo <= spectra.RESIDUAL_CONTRACT * scale


MATRICES = ("signless", "laplacian", "adjacency")


class TestLanczosExtremes:
    """The Lanczos branch of extreme_eigenvalues, called directly with room
    for n steps, so that it runs on graphs of every size."""

    @staticmethod
    def lanczos(g, matrix):
        found = spectra._lanczos_extremes(GraphMatrix(g, matrix), g.n)
        assert found is not None, f"{matrix} extremes of {g!r} not certified"
        return found

    def test_agrees_with_eigvalsh_on_standard_corpus(self):
        for label, g in standard_corpus():
            for matrix in MATRICES:
                assert_encloses(self.lanczos(g, matrix), g, matrix)

    def test_large_random_graph_takes_the_lanczos_path(self):
        g = generate_random_connected(600, 6000, seed=3)
        assert g.n > spectra.DENSE_LIMIT
        for matrix in MATRICES:
            found = spectra._lanczos_extremes(GraphMatrix(g, matrix), spectra.LANCZOS_MAX_STEPS)
            assert found is not None
            assert_encloses(found, g, matrix)
            assert spectra.extreme_eigenvalues(GraphMatrix(g, matrix)).top == found.top

    def test_bipartite_graphs_have_qn_zero(self):
        rng = np.random.default_rng(5)
        pairs = rng.choice(300 * 300, size=3000, replace=False)
        big = build_graph(600, np.stack((pairs // 300, 300 + pairs % 300), axis=1),
                          allow_isolated=True)
        graphs = [g for _, g in standard_corpus() if is_bipartite(g)[0]] + [big]
        assert len(graphs) > 20
        for g in graphs:
            found = self.lanczos(g, "signless")
            assert found.bottom == pytest.approx(0.0, abs=1e-9 * max(1.0, found.top))
            lo, hi = found.bottom_enclosure
            assert lo <= 0.0 <= hi

    @pytest.mark.parametrize(
        "g",
        [
            build_graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]),
            build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)], allow_isolated=True),
            build_graph(5, [], allow_isolated=True),
            build_graph(450, [], allow_isolated=True),
        ],
        ids=["disconnected", "isolated-vertex", "edgeless", "edgeless-large"],
    )
    def test_disconnected_isolated_and_edgeless(self, g):
        for matrix in MATRICES:
            assert_encloses(self.lanczos(g, matrix), g, matrix)
            assert_encloses(spectra.extreme_eigenvalues(GraphMatrix(g, matrix)), g, matrix)

    @pytest.mark.parametrize("n", [450, 600])
    def test_path_falls_back_to_the_dense_solve(self, n):
        g = generate_named("path", n)
        steps = min(spectra.LANCZOS_MAX_STEPS, n // 5)
        assert spectra._lanczos_extremes(GraphMatrix(g), steps) is None
        found = spectra.extreme_eigenvalues(GraphMatrix(g))
        dense = eigenvalues(signless_laplacian_matrix(g)).values
        assert (found.top, found.bottom) == (dense[0], dense[-1])
        assert_encloses(found, g, "signless")

    def test_top_shifted_down_by_one_is_never_certified(self):
        for label, g in standard_corpus():
            q = signless_laplacian_matrix(g)
            q1 = float(np.linalg.eigvalsh(q)[-1])
            args = (np.empty((g.n, g.n)), GraphMatrix(g), -1.0)
            assert not spectra._positive_definite(*args, q1 - 1.0, 1.0)
            # the same test proves a bound just above q_1
            assert spectra._positive_definite(*args, q1 + 1e-6, 1.0)

    def test_runs_are_byte_identical(self):
        g = generate_random_connected(500, 5000, seed=9)
        for matrix in MATRICES:
            first, second = (
                spectra._lanczos_extremes(GraphMatrix(g, matrix), spectra.LANCZOS_MAX_STEPS)
                for _ in range(2)
            )
            assert first is not None
            fields = ("top", "bottom", "top_enclosure", "bottom_enclosure")
            assert [repr(getattr(first, f)) for f in fields] == [
                repr(getattr(second, f)) for f in fields
            ]

    def test_small_graphs_keep_the_dense_values(self):
        for label, g in standard_corpus()[::25]:
            assert g.n <= spectra.DENSE_LIMIT
            q = eigenvalues(signless_laplacian_matrix(g)).values
            found = spectra.extreme_eigenvalues(GraphMatrix(g))
            assert (found.top, found.bottom) == (q[0], q[-1])


# the table_large graphs of the benchmark's default seed (n 500..1500)
TABLE_LARGE = (
    "rand:n=500,m=5000,seed=8631957831668394588",
    "rand:n=1000,m=10000,seed=7692986104271406305",
    "rand:n=1500,m=15000,seed=2073255812448292667",
    "rand:n=800,m=32000,seed=2384282141814561249",
)


def disjoint_union(*graphs):
    offsets = np.cumsum([0] + [g.n for g in graphs])
    edges = np.concatenate([g.edge_array + k for g, k in zip(graphs, offsets)])
    return build_graph(int(offsets[-1]), edges)


def bipartite_double_cover(g):
    """Vertices v and v + n; edges (u, v + n) and (v, u + n) for each edge uv."""
    u, v = g.edge_array.T
    n = g.n
    return build_graph(2 * n, np.concatenate((np.stack((u, v + n), 1), np.stack((v, u + n), 1))))


@pytest.fixture
def factorizations(monkeypatch):
    """The sign of every ``_positive_definite`` call, in order."""
    signs = []
    original = spectra._positive_definite

    def spy(buffer, w, sign, shift, room):
        signs.append(sign)
        return original(buffer, w, sign, shift, room)

    monkeypatch.setattr(spectra, "_positive_definite", spy)
    return signs


@pytest.fixture
def bounds_returned(monkeypatch):
    """What every ``_collatz_wielandt`` call returned, in order."""
    found = []
    original = spectra._collatz_wielandt

    def spy(w, y):
        found.append(original(w, y))
        return found[-1]

    monkeypatch.setattr(spectra, "_collatz_wielandt", spy)
    return found


class TestCollatzWielandt:
    """The top of A and Q is certified by max_i (W y)_i / y_i, no factorization."""

    def test_bound_is_above_the_top_for_every_positive_vector(self):
        rng = SplitMix64(4242)
        for label, g in standard_corpus():
            for kind in ("adjacency", "signless"):
                w = GraphMatrix(g, kind)
                values, vectors = np.linalg.eigh(w.dense)
                top = values[-1]
                perron = np.abs(vectors[:, -1])
                found = spectra._collatz_wielandt(w, perron)
                if is_connected(g):
                    # the Perron vector of a connected graph is positive and
                    # gives the top itself, up to rounding
                    assert top <= found <= top + 1e-9 * max(1.0, top), (label, kind)
                else:
                    assert found is None or found >= top, (label, kind)
                for _ in range(3):
                    y = 1.0 - np.array([rng.next_uint64() for _ in range(g.n)]) / 2.0**64
                    assert spectra._collatz_wielandt(w, y) >= top, (label, kind)
                    # the sign of y is flipped to a positive sum
                    assert spectra._collatz_wielandt(w, -y) >= top, (label, kind)

    def test_none_on_a_vector_with_a_zero_or_negative_entry(self):
        w = GraphMatrix(generate_named("cycle", 5))
        assert spectra._collatz_wielandt(w, np.array([1.0, 1.0, 0.0, 1.0, 1.0])) is None
        assert spectra._collatz_wielandt(w, np.array([1.0, 1.0, -0.5, 1.0, 1.0])) is None
        # Q of C_5 is 4-regular: the bound is 4, rounded up a few ulps
        assert 4.0 < spectra._collatz_wielandt(w, np.ones(5)) < 4.0 + 1e-14

    @pytest.mark.parametrize("spec", TABLE_LARGE)
    def test_table_large_rows_factor_once_for_q(self, spec, factorizations):
        _, g = parse_graph_spec(spec)
        for kind, expected in (("signless", [1.0]), ("laplacian", [-1.0, 1.0]),
                               ("adjacency", [1.0])):
            factorizations.clear()
            found = spectra.extreme_eigenvalues(GraphMatrix(g, kind))
            # one Cholesky for the bottom of Q and A, two for L
            assert factorizations == expected, kind
            assert_encloses(found, g, kind)

    def test_disconnected_large_graphs_take_the_cholesky_path(self, factorizations,
                                                               bounds_returned):
        a = generate_random_connected(250, 2500, seed=1)
        twins = disjoint_union(a, a)
        unequal = disjoint_union(a, generate_random_connected(260, 2600, seed=2))
        # two equal components: the top Ritz vector of A changes sign
        # between them; two unequal ones: the other component's entries are
        # tiny and the bound is far off
        for g, kind, bound_ok in ((twins, "adjacency", lambda b: b is None),
                                  (unequal, "signless", lambda b: b is not None)):
            assert g.n > spectra.DENSE_LIMIT and not is_connected(g)
            factorizations.clear()
            bounds_returned.clear()
            found = spectra.extreme_eigenvalues(GraphMatrix(g, kind))
            (bound,) = bounds_returned
            assert bound_ok(bound)
            assert factorizations[0] == -1.0  # the top is factored
            assert_encloses(found, g, kind)

    def test_bipartite_cover_needs_no_factorization_or_square_buffer(self, factorizations):
        # the bipartite double cover of a random graph: q_n = 0 needs no
        # factorization, and here the bound fits delta; on about half of
        # the covers it does not yet (see ROADMAP item 2) and the top falls
        # back to the Cholesky test
        g = bipartite_double_cover(generate_random_connected(1250, 5000, seed=5))
        assert g.n == 2500 and is_connected(g)
        tracemalloc.start()
        try:
            found = spectra.extreme_eigenvalues(GraphMatrix(g, "signless"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factorizations == []
        assert peak < g.n * g.n * 8
        lo, hi = found.bottom_enclosure
        assert lo <= 0.0 <= hi
        assert found.top_enclosure[1] - found.top_enclosure[0] < 1e-9 * found.top
