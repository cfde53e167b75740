"""Minmax sphere bounds and the projected gradient search.

Ground truth for small cases comes from a dense angular scan: for 2x2
symmetric W the maximum of f over the unit circle equals the spread, so a
fine grid recovers it to grid resolution.
"""

import numpy as np
import pytest
from conftest import bound
from hypothesis import given, strategies as st

from slq import (
    SearchConfig,
    bound_from_vector,
    f_value,
    f_value_quadratic,
    generate_named,
    generate_random_connected,
    grad_f_squared,
    gradient_search,
    numerical_grad_f_squared,
    one_step_analytic_bound,
    signless_laplacian_matrix,
    spread_report,
    unit_vector,
)
from slq.minmax import inverse_degree_value
from slq.rng import SplitMix64

connected_specs = st.integers(2, 10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(n - 1, n * (n - 1) // 2),
        st.integers(0, 2**32),
    )
)

symmetric_2x2 = st.tuples(
    st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)
)


def random_unit(n: int, rng: SplitMix64) -> np.ndarray:
    v = np.array([rng.below(2_000_001) / 1_000_000.0 - 1.0 for _ in range(n)])
    if not v.any():
        v[0] = 1.0
    return v / np.linalg.norm(v)


def spread_of(w) -> float:
    vals = np.linalg.eigvalsh(np.asarray(w, dtype=np.float64))
    return float(vals[-1] - vals[0])


class TestFValue:
    def test_two_forms_agree_on_random_vectors(self):
        rng = SplitMix64(90001)
        for seed in range(20):
            n = 3 + seed % 8
            m = min(n * (n - 1) // 2, n + seed % 5)
            g = generate_random_connected(n, m, seed=seed)
            q = signless_laplacian_matrix(g)
            for _ in range(20):
                x = random_unit(g.n, rng)
                assert abs(f_value(q, x) - f_value_quadratic(q, x)) <= 1e-10

    def test_standard_basis_gives_twice_sqrt_degree(self):
        g = generate_random_connected(7, 12, seed=3)
        q = signless_laplacian_matrix(g)
        for i in range(g.n):
            e = np.zeros(g.n)
            e[i] = 1.0
            assert f_value(q, e) == pytest.approx(
                2.0 * np.sqrt(g.degrees[i]), abs=1e-12
            )

    def test_rejects_non_unit_vector(self):
        q = signless_laplacian_matrix(generate_named("path", 3))
        with pytest.raises(ValueError, match="unit"):
            f_value(q, np.array([1.0, 1.0, 0.0]))

    @given(symmetric_2x2)
    def test_angular_scan_attains_spread_order_two(self, abc):
        a, b, c = abc
        w = np.array([[a, b], [b, c]])
        s = spread_of(w)
        theta = np.linspace(0.0, np.pi, 4001)
        xs = np.stack([np.cos(theta), np.sin(theta)])
        wx = w @ xs
        rayleigh = (xs * wx).sum(axis=0)
        f_all = 2.0 * np.linalg.norm(wx - rayleigh * xs, axis=0)
        assert f_all.max() <= s + 1e-9
        assert f_all.max() >= s - 1e-4 * max(1.0, s)

    @given(connected_specs)
    def test_never_exceeds_spread(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, m, seed)
        q = signless_laplacian_matrix(g)
        rng = SplitMix64(seed | 1)
        s = spread_of(q)
        for _ in range(25):
            assert f_value(q, random_unit(n, rng)) <= s + 1e-9


class TestBoundFromVector:
    def test_matches_normalized_f_value(self):
        g = generate_random_connected(6, 9, seed=7)
        q = signless_laplacian_matrix(g)
        rng = SplitMix64(41)
        for _ in range(10):
            y = 3.7 * random_unit(g.n, rng)
            assert bound_from_vector(q, y) == pytest.approx(
                f_value(q, y / np.linalg.norm(y)), abs=1e-10
            )

    def test_scale_invariance(self):
        g = generate_named("star", 4)
        q = signless_laplacian_matrix(g)
        y = np.array([2.0, 1.0, 1.0, 0.5, 3.0])
        for c in (1e-3, 0.5, 10.0, 1e4):
            assert bound_from_vector(q, c * y) == pytest.approx(
                bound_from_vector(q, y), rel=1e-12
            )

    def test_input_validation(self):
        q = signless_laplacian_matrix(generate_named("path", 3))
        with pytest.raises(ValueError, match="nonzero"):
            bound_from_vector(q, np.zeros(3))
        with pytest.raises(ValueError, match="matching"):
            bound_from_vector(q, np.ones(4))
        with pytest.raises(ValueError, match="finite"):
            bound_from_vector(q, np.array([1.0, np.inf, 0.0]))

    def test_inverse_degree_formula_matches_direct(self):
        for seed in range(8):
            g = generate_random_connected(8, 13, seed=seed)
            q = signless_laplacian_matrix(g)
            d = np.asarray(g.degrees, dtype=np.float64)
            got = inverse_degree_value(g)
            want = bound_from_vector(q, 1.0 / d)
            scale = max(got, want)
            if scale > 1e-5:
                assert abs(got - want) <= 1e-10 * max(1.0, scale)

    def test_inverse_degree_matches_edge_loop_exactly(self, corpus):
        # the loop form adds each vertex's terms in ascending neighbour order
        def loop_form(g):
            y = 1.0 / np.asarray(g.degrees, dtype=np.float64)
            t = np.ones(g.n)
            for u, v in g.edges:
                t[u] += y[v]
                t[v] += y[u]
            yy = float(y @ y)
            rad = yy * float(t @ t) - float(y @ t) ** 2
            return 2.0 * np.sqrt(max(rad, 0.0)) / yy

        checked = 0
        for label, g in corpus:
            if min(g.degrees) > 0:
                assert inverse_degree_value(g) == loop_form(g), label
                checked += 1
        assert checked == 499

    def test_inverse_degree_rejects_isolated_vertices(self):
        with pytest.raises(ValueError, match="isolated"):
            inverse_degree_value(generate_named("kn1uk1", 5))


class TestGradient:
    @given(connected_specs)
    def test_analytic_matches_independent_finite_differences(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, m, seed)
        q = signless_laplacian_matrix(g)
        x = random_unit(n, SplitMix64(seed ^ 0x5DEECE66D))
        analytic = grad_f_squared(q, x)

        # independent check: difference the ambient f^2 written from scratch
        def ambient(v):
            wv = q @ v
            return 4.0 * (float(wv @ wv) - float(v @ wv) ** 2)

        h = 1e-6
        fd = np.zeros(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd[i] = (ambient(x + e) - ambient(x - e)) / (2.0 * h)
        scale = max(1.0, float(np.abs(analytic).max()))
        assert np.abs(analytic - fd).max() <= 1e-5 * scale

    def test_module_fd_helper_agrees(self):
        g = generate_random_connected(6, 10, seed=9)
        q = signless_laplacian_matrix(g)
        x = random_unit(6, SplitMix64(99))
        a = grad_f_squared(q, x)
        b = numerical_grad_f_squared(q, x)
        assert np.abs(a - b).max() <= 1e-5 * max(1.0, float(np.abs(a).max()))


class TestGradientSearch:
    def test_deterministic(self):
        q = signless_laplacian_matrix(generate_random_connected(12, 20, seed=14))
        t1 = gradient_search(q)
        t2 = gradient_search(q)
        assert t1.values == t2.values
        assert t1.best_value == t2.best_value
        assert np.array_equal(t1.best_vector, t2.best_vector)

    def test_trace_bookkeeping(self):
        q = signless_laplacian_matrix(generate_named("star", 5))
        cfg = SearchConfig(iterations=7, step=0.05)
        tr = gradient_search(q, cfg)
        assert len(tr.values) == 7
        assert tr.best_value == pytest.approx(max((tr.initial_value,) + tr.values))
        assert np.linalg.norm(tr.best_vector) == pytest.approx(1.0, abs=1e-9)
        assert f_value(q, tr.best_vector) == pytest.approx(tr.best_value, abs=1e-9)
        if tr.iteration_of_best == 0:
            assert tr.best_value == tr.initial_value
        else:
            assert tr.best_value == tr.values[tr.iteration_of_best - 1]

    def test_regular_start_is_perturbed(self):
        q = signless_laplacian_matrix(generate_named("complete", 4))
        tr = gradient_search(q)
        assert tr.perturbed
        assert tr.initial_value == pytest.approx(0.0, abs=1e-9)
        assert tr.best_value > 1.0  # escapes the stationary all-ones start

    def test_irregular_start_not_perturbed(self):
        q = signless_laplacian_matrix(generate_named("star", 4))
        assert not gradient_search(q).perturbed

    @given(connected_specs)
    def test_entire_trace_below_spread(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, m, seed)
        q = signless_laplacian_matrix(g)
        s = spread_of(q)
        for cfg in (
            SearchConfig(),
            SearchConfig(step_mode="decreasing"),
            SearchConfig(iterations=3, step=0.4),
        ):
            tr = gradient_search(q, cfg)
            assert tr.initial_value <= s + 1e-9
            assert max(tr.values) <= s + 1e-9
            assert tr.best_value <= s + 1e-9

    def test_search_improves_on_start_for_star(self):
        g = generate_named("star", 3)
        tr = gradient_search(signless_laplacian_matrix(g))
        assert tr.initial_value == pytest.approx(np.sqrt(12.0), abs=1e-9)
        assert tr.best_value > tr.initial_value
        assert tr.best_value <= spread_report(g).s_q + 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError, match="iterations"):
            SearchConfig(iterations=0)
        with pytest.raises(ValueError, match="step must be positive"):
            SearchConfig(step=0.0)
        with pytest.raises(ValueError, match="step_mode"):
            SearchConfig(step_mode="adaptive")


class TestOneStep:
    def test_regular_graph_sits_at_stationary_zero(self):
        g = generate_named("cycle", 6)
        value = one_step_analytic_bound(signless_laplacian_matrix(g), SearchConfig().step)
        assert value == pytest.approx(0.0, abs=1e-9)
        assert bound("one_step", g) == value

    def test_irregular_graph_moves_and_stays_valid(self):
        g = generate_named("star", 4)
        value = one_step_analytic_bound(signless_laplacian_matrix(g), SearchConfig().step)
        assert 0.0 < value <= spread_report(g).s_q + 1e-9

    @given(connected_specs)
    def test_always_a_valid_lower_bound(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, m, seed)
        value = one_step_analytic_bound(signless_laplacian_matrix(g), step=0.3)
        assert value <= spread_report(g).s_q + 1e-9


class TestUnitVector:
    def test_normalizes(self):
        v = unit_vector([3.0, 4.0])
        assert np.allclose(v, [0.6, 0.8])

    def test_rejections(self):
        with pytest.raises(ValueError, match="zero"):
            unit_vector([0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            unit_vector([1.0, np.nan])
        with pytest.raises(ValueError, match="1-d"):
            unit_vector(np.ones((2, 2)))
