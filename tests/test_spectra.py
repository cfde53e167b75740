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

    def test_residual_is_the_column_norm_formula_bit_for_bit(self, corpus, monkeypatch):
        def reference(w):
            vals, vecs = np.linalg.eigh(w)
            scale = max(1.0, float(np.abs(vals).max()))
            resid = float(np.linalg.norm(w @ vecs - vecs * vals, axis=0).max())
            return resid, w.shape[0] * np.finfo(np.float64).eps * scale

        def check(expect_floor):
            for label, g in corpus:
                for kind in ("signless", "laplacian", "adjacency"):
                    w = GraphMatrix(g, kind).dense
                    resid, floor = reference(w)
                    assert (resid <= floor) == expect_floor, (label, kind)
                    assert eigenvalues(w).residual_tol == max(resid, floor), (label, kind)

        # eigh's vectors leave every corpus residual below the floor n eps |W|;
        # perturbed vectors make the residual itself the certificate
        check(expect_floor=True)
        eigh = np.linalg.eigh

        def perturbed_eigh(w):
            vals, vecs = eigh(w)
            return vals, vecs + 1e-12 * np.cos(np.arange(vecs.size)).reshape(vecs.shape)

        monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh)
        check(expect_floor=False)

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
EVERY_KIND = [(kind, fill) for kind in ("adjacency", "laplacian", "signless") for fill in (0.0, 1.0)]

# the table_large graphs of the benchmark's default seed (n 500..1500)
TABLE_LARGE = (
    "rand:n=500,m=5000,seed=8631957831668394588",
    "rand:n=1000,m=10000,seed=7692986104271406305",
    "rand:n=1500,m=15000,seed=2073255812448292667",
    "rand:n=800,m=32000,seed=2384282141814561249",
)


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

    @staticmethod
    def assert_product_matches_dense(g, seed, label):
        """Integer entries sum exactly in any order, so the product equals
        the dense one; random entries agree within 1e-12 of the row sum."""
        rng = np.random.default_rng(seed)
        exact = rng.integers(-50, 51, g.n).astype(np.float64)
        x = rng.uniform(-0.5, 0.5, g.n)
        for kind, fill in EVERY_KIND:
            w = GraphMatrix(g, kind, fill)
            assert np.array_equal(w @ exact, w.dense @ exact), (label, kind, fill)
            scale = max(1.0, float(np.abs(w.dense).sum(axis=1).max()))
            assert np.abs(w @ x - w.dense @ x).max() <= 1e-12 * scale, (label, kind, fill)

    @pytest.mark.parametrize("label, n, edges", [
        ("isolated first", 5, [(1, 2), (1, 3), (2, 4), (3, 4)]),
        ("isolated in the middle", 6, [(0, 1), (0, 4), (1, 5), (4, 5)]),
        ("isolated last", 5, [(0, 1), (0, 2), (1, 3), (2, 3)]),
        ("isolated first, middle and last", 7, [(1, 2), (2, 4), (1, 5)]),
        ("one edge among isolated vertices", 4, [(1, 2)]),
        ("edgeless", 4, []),
        ("single vertex", 1, []),
    ])
    def test_product_with_isolated_vertices_or_no_edges(self, label, n, edges):
        g = build_graph(n, edges, allow_isolated=True)
        assert not g.degrees.all()
        self.assert_product_matches_dense(g, 6029, label)

    @pytest.mark.parametrize("spec", TABLE_LARGE)
    def test_product_on_table_large_graphs(self, spec):
        _, g = parse_graph_spec(spec)
        self.assert_product_matches_dense(g, 6030, spec)

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
            args = (GraphMatrix(g), -1.0)
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

    def spy(w, sign, shift, room):
        signs.append(sign)
        return original(w, sign, shift, room)

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
        for g in (twins, unequal):
            assert g.n > spectra.DENSE_LIMIT and not is_connected(g)
        # two components with different tops: the other component's entries
        # of the top Ritz vector are tiny, so the bound is far off or absent
        for kind in ("adjacency", "signless"):
            factorizations.clear()
            bounds_returned.clear()
            found = spectra.extreme_eigenvalues(GraphMatrix(unequal, kind))
            (bound,) = bounds_returned
            assert bound is None or bound > found.top_enclosure[1], kind
            assert factorizations[0] == -1.0, kind  # the top is factored
            assert_encloses(found, unequal, kind)
        # two equal components: the top of A is double, so whether its Ritz
        # vector has one sign, and which certificate proves it, is decided
        # by rounding
        assert_encloses(spectra.extreme_eigenvalues(GraphMatrix(twins, "adjacency")),
                        twins, "adjacency")

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


def unreduced_positive_definite(w, sign, shift, room):
    """Reference: Rump's test on the whole n x n matrix P = sign (W - shift
    I), with no vertex eliminated."""
    n = w.graph.n
    diag = w.diag + w.fill
    gaps = sign * (diag - shift)
    if not (gaps > 0.0).all():
        return False
    trace = float(gaps.sum()) * (1.0 + spectra._gamma(n + 2))
    margin = spectra._gamma(n + 1) / (1.0 - spectra._gamma(n + 1)) * trace
    margin += 4.0 * n * (2.0 * (n + 2) + float(gaps.max())) * spectra._REALMIN
    margin *= 1.0 + 8.0 * spectra._UNIT_ROUNDOFF
    if not margin < room:
        return False
    buffer = np.full((n, n), sign * w.fill)
    u, v = w.graph.edge_array.T
    buffer[u, v] = buffer[v, u] = sign * (w.off + w.fill)
    if sign < 0:
        buffer[np.diag_indices(n)] = spectra._down(spectra._down(shift - margin) - diag)
    else:
        buffer[np.diag_indices(n)] = spectra._down(diag - spectra._up(shift + margin))
    try:
        np.linalg.cholesky(buffer)
    except np.linalg.LinAlgError:
        return False
    return True


def reference_elimination_set(g):
    """A maximal independent set of the vertices v with d_v^2 < n, taken
    greedily in ascending degree order, ties by vertex, in plain Python."""
    neighbors = [set() for _ in range(g.n)]
    for a, b in g.edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    degree = [len(x) for x in neighbors]
    chosen = set()
    for v in sorted((v for v in range(g.n) if degree[v] ** 2 < g.n), key=degree.__getitem__):
        if not neighbors[v] & chosen:
            chosen.add(v)
    return sorted(chosen)


# A, Q and L at both ends (sign -1 proves the top, +1 the bottom), L + J at
# the bottom
REDUCED_CASES = (("adjacency", 0.0, (-1.0, 1.0)), ("signless", 0.0, (-1.0, 1.0)),
                 ("laplacian", 0.0, (-1.0, 1.0)), ("laplacian", 1.0, (1.0,)))
SOUNDNESS_SPECS = TABLE_LARGE + ("rand:n=300,m=3000,seed=5",)


def assert_reduced_test_is_sound(g, label):
    """At 1e-7 max(1, |lambda|) beyond each extreme the reduced test proves
    P positive definite; as far on the spectrum's side of it, it refuses.
    The unreduced reference gives the same answers."""
    for kind, fill, signs in REDUCED_CASES:
        w = GraphMatrix(g, kind, fill)
        values = np.linalg.eigvalsh(reference_matrix(g, kind, fill))
        for sign in signs:
            exact = float(values[-1] if sign < 0 else values[0])
            t = 1e-7 * max(1.0, abs(exact))
            for shift, expected in ((exact - sign * t, True), (exact + sign * t, False)):
                reduced = spectra._positive_definite(w, sign, shift, t)
                assert reduced == unreduced_positive_definite(w, sign, shift, t) == expected, (
                    label, kind, fill, sign, expected)


class TestReducedCholesky:
    """Rump's test on the Schur complement over a low-degree independent set."""

    def test_sound_and_as_decisive_as_the_unreduced_test_on_standard_corpus(self):
        for label, g in standard_corpus():
            assert_reduced_test_is_sound(g, label)

    @pytest.mark.parametrize("spec", SOUNDNESS_SPECS)
    def test_sound_and_as_decisive_as_the_unreduced_test_on_large_graphs(self, spec):
        _, g = parse_graph_spec(spec)
        assert_reduced_test_is_sound(g, spec)

    def test_elimination_set_is_a_maximal_independent_set_of_low_degree_vertices(self):
        graphs = list(standard_corpus()) + [parse_graph_spec(spec) for spec in SOUNDNESS_SPECS]
        for label, g in graphs:
            found = spectra._elimination_set(GraphMatrix(g, "adjacency"))
            assert found.tolist() == reference_elimination_set(g), label
            for kind in ("signless", "laplacian"):
                again = spectra._elimination_set(GraphMatrix(g, kind))
                assert again.tolist() == found.tolist(), (label, kind)
            chosen = np.zeros(g.n, dtype=bool)
            chosen[found] = True
            u, v = g.edge_array.T
            assert not (chosen[u] & chosen[v]).any(), label  # independent
            low = g.degrees ** 2 < g.n
            assert not (chosen & ~low).any(), label
            # maximal: every other low-degree vertex has a neighbour in it
            covered = np.bincount(np.concatenate((u[chosen[v]], v[chosen[u]])), minlength=g.n) > 0
            assert (chosen | covered)[low].all(), label
            # a fill leaves no entry zero, so nothing is eliminated
            assert len(spectra._elimination_set(GraphMatrix(g, "laplacian", fill=1.0))) == 0
        sizes = [len(spectra._elimination_set(GraphMatrix(parse_graph_spec(spec)[1])))
                 for spec in TABLE_LARGE]
        # the n = 800 row has minimum degree above sqrt(800): nothing pays
        assert sizes[3] == 0 and min(sizes[:3]) > 0.15 * 500

    def test_schur_complement_is_symmetric_bit_for_bit(self, monkeypatch):
        factored = []
        monkeypatch.setattr(spectra, "_cholesky_completes",
                            lambda b: factored.append(b.copy()) or True)
        for spec in SOUNDNESS_SPECS:
            _, g = parse_graph_spec(spec)
            for kind, sign in (("signless", 1.0), ("adjacency", 1.0), ("laplacian", -1.0)):
                w = GraphMatrix(g, kind)
                shift = -sign * float(g.degrees.max()) * 3.0
                factored.clear()
                assert spectra._positive_definite(w, sign, shift, 1.0)
                (b,) = factored
                r = g.n - len(spectra._elimination_set(w))
                assert b.shape == (r, r)
                assert b.tobytes() == b.T.copy().tobytes(), (spec, kind)

    @pytest.mark.parametrize("m, seed", [(6250, 3), (12500, 1)])
    def test_adjacency_of_bipartite_covers_needs_no_dense_solve(self, m, seed, factorizations,
                                                               monkeypatch):
        # Rump's margin grows like r^2 for the order r of the complement;
        # at n = 2500 it outgrew delta for the unreduced bottom of A
        g = bipartite_double_cover(generate_random_connected(1250, m, seed=seed))
        r = g.n - len(spectra._elimination_set(GraphMatrix(g, "adjacency")))
        assert g.n == 2500 and r < 2100
        dense = []
        original = spectra.eigenvalues
        monkeypatch.setattr(spectra, "eigenvalues", lambda w: dense.append(w) or original(w))
        found = spectra.extreme_eigenvalues(GraphMatrix(g, "adjacency"))
        assert dense == []
        assert factorizations == [1.0]  # the bottom, proved by one factorization
        # a bipartite spectrum is symmetric: -lambda_1 is in both enclosures
        (top_lo, top_hi), (bottom_lo, bottom_hi) = found.top_enclosure, found.bottom_enclosure
        assert bottom_lo <= -top_lo and -top_hi <= bottom_hi
        assert top_hi - top_lo < 1e-9 * found.top and bottom_hi - bottom_lo < 1e-9 * found.top

    def test_peak_memory_of_the_largest_table_row(self):
        # the unreduced test peaked at 38,782,515 bytes here: its n x n
        # buffer and the n x n factor, n = 1500; the complement has order
        # r = 1253, so both arrays shrink to r x r
        _, g = parse_graph_spec(TABLE_LARGE[2])
        tracemalloc.start()
        try:
            spectra.extreme_eigenvalues(GraphMatrix(g))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32_000_000

    @pytest.mark.parametrize("kind, ceiling", [("signless", 20_000_000),
                                               ("laplacian", 26_000_000)])
    def test_peak_memory_of_the_blocked_factorization(self, kind, ceiling):
        # with np.linalg.cholesky on the whole r x r array the peaks were
        # 28.3 MB (Q, r = 1253) and 39.1 MB (L, whose L + J bottom factors
        # at r = n = 1500): the array, numpy's copy of it and the factor;
        # factored in place by blocks they are 17.5 MB and 21.8 MB
        _, g = parse_graph_spec(TABLE_LARGE[2])
        tracemalloc.start()
        try:
            spectra.extreme_eigenvalues(GraphMatrix(g, kind))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ceiling


BLOCK = spectra._CHOLESKY_BLOCK
BLOCKED_ORDERS = (1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7, 413, 1253)


def numpy_cholesky_completes(b):
    try:
        np.linalg.cholesky(b)
    except np.linalg.LinAlgError:
        return False
    return True


def random_spd(r, seed):
    """Symmetric bit for bit, eigenvalues in about [0.5, 4.5]."""
    x = np.random.default_rng(seed).standard_normal((r, r)) / np.sqrt(r)
    a = x @ x.T
    return 0.5 * (a + a.T) + 0.5 * np.eye(r)


def indefinite_at(r, pivot, seed):
    """U^T D U for a well-conditioned unit upper triangular U and D = I but
    for -1 at ``pivot`` (if not None): the Cholesky pivots are positive up
    to ``pivot`` and about -1 there."""
    x = np.random.default_rng(seed).standard_normal((r, r))
    u = np.eye(r) + 0.1 * np.triu(x, 1) / np.sqrt(r)
    d = np.ones(r)
    if pivot is not None:
        d[pivot] = -1.0
    a = u.T @ (d[:, None] * u)
    return 0.5 * (a + a.T)


def schur_complement(spec, kind):
    """B of ``_positive_definite`` for the bottom of a graph matrix at shift
    -3 Delta, far below its spectrum."""
    _, g = parse_graph_spec(spec)
    captured = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectra, "_cholesky_completes", lambda b: captured.append(b.copy()) or True)
        assert spectra._positive_definite(GraphMatrix(g, kind), 1.0, -3.0 * g.degrees.max(), 1.0)
    (b,) = captured
    return b


# the orders of the Schur complements of Q, and of A, on two table rows
COMPLEMENTS = {413: ((TABLE_LARGE[0], "signless"),),
               1253: ((TABLE_LARGE[2], "signless"), (TABLE_LARGE[2], "adjacency"))}


def spd_matrices(r):
    """A random positive definite matrix of order r, and the Schur
    complements of that order in COMPLEMENTS."""
    matrices = [random_spd(r, seed=r)]
    for spec, kind in COMPLEMENTS.get(r, ()):
        matrices.append(schur_complement(spec, kind))
        assert matrices[-1].shape == (r, r)
    return matrices


def blocked_factor(a, expected, label):
    """The blocked factorization of a copy of a: it completes exactly when
    np.linalg.cholesky does, as ``expected``.  On completion it returns U,
    checked against the bound that Rump's proof rests on, |A - U^T U| <=
    gamma_{r+1} |U^T| |U|, with room for the rounding of the check."""
    b = a.copy()
    found = spectra._cholesky_completes(b)
    assert found == numpy_cholesky_completes(a) == expected, label
    if not found:
        return None
    u = np.triu(b)
    bound = 3.0 * spectra._gamma(len(a) + 1) * (np.abs(u).T @ np.abs(u))
    assert (np.abs(a - u.T @ u) <= bound).all(), label
    return u


class TestBlockedCholesky:
    """``_cholesky_completes`` against ``np.linalg.cholesky``."""

    @pytest.mark.parametrize("r", BLOCKED_ORDERS)
    def test_factor_matches_numpy(self, r):
        for a in spd_matrices(r):
            u = blocked_factor(a, True, r)
            expected = np.linalg.cholesky(a, upper=True)
            assert np.abs(u - expected).max() <= 1e-12 * np.abs(expected).max(), r

    @pytest.mark.parametrize("r", BLOCKED_ORDERS)
    def test_decides_as_numpy_just_inside_and_past_lambda_min(self, r):
        # nearly singular: only the bound in ``blocked_factor`` checks U, since
        # the distance to numpy's factor grows with the condition number
        for a in spd_matrices(r):
            lam = np.linalg.eigvalsh(a)[0]
            t = 1e-7 * abs(lam)
            for shift, expected in ((lam - t, True), (lam + t, False)):
                blocked_factor(a - shift * np.eye(r), expected, (r, shift))

    @pytest.mark.parametrize("r", (2 * BLOCK + 7, 413, 1253))
    @pytest.mark.parametrize("where", ("first block", "middle block", "last block"))
    def test_non_positive_pivot_in_each_block(self, r, where):
        blocks = -(-r // BLOCK)
        pivot = {"first block": BLOCK // 2,
                 "middle block": blocks // 2 * BLOCK + BLOCK // 2,
                 "last block": r - 1}[where]
        assert 0 < blocks // 2 < blocks - 1  # the middle block has a panel
        blocked_factor(indefinite_at(r, pivot, seed=r), False, (r, pivot))
        # with every entry of D 1 the same U gives a matrix that completes
        blocked_factor(indefinite_at(r, None, seed=r), True, r)
