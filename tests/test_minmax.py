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
    CatalogOptions,
    GraphData,
    GraphMatrix,
    SearchConfig,
    bound_from_vector,
    build_graph,
    evaluate_catalog,
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
)
from slq import minmax
from slq.rng import SplitMix64
from slq.validation import standard_corpus

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

    def test_largest_step_runs_without_overflow(self):
        # the largest step SearchConfig accepts; an overflow warning fails
        # the test (pytest turns RuntimeWarning into an error)
        step = 9.480751908109176e153
        assert SearchConfig(step=step).step == step
        for label, g in standard_corpus()[::25] + (("cycle:6", generate_named("cycle", 6)),):
            q = signless_laplacian_matrix(g)
            for mode in ("constant", "decreasing"):
                tr = gradient_search(q, SearchConfig(step=step, step_mode=mode))
                assert np.isfinite(tr.values).all(), label
                assert np.linalg.norm(tr.best_vector) == pytest.approx(1.0, abs=1e-12)

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
        with pytest.raises(ValueError, match="step must be positive"):
            SearchConfig(step=float("nan"))
        with pytest.raises(ValueError, match="step must be finite"):
            SearchConfig(step=float("inf"))
        for step in (1e200, 9.480751908109177e153, np.float64(1e200)):
            with pytest.raises(ValueError, match="step must be below 9.48e153"):
                SearchConfig(step=step)
        with pytest.raises(ValueError, match="step_mode"):
            SearchConfig(step_mode="adaptive")


def reference_search(w, cfg):
    """The search with a fresh product for every f and gradient, three per
    iteration: the reference that gradient_search must equal bit for bit."""
    n = w.shape[0]
    x = np.full(n, 1.0 / np.sqrt(n))
    best, values, stagnated_at = f_value(w, x), [], None
    g = grad_f_squared(w, x)
    tang = g - (g @ x) * x
    perturbed = float(np.linalg.norm(tang)) <= 1e-9 * max(1.0, float(np.linalg.norm(g)))
    if perturbed:
        x = x.copy()
        x[0] += 1e-3
        x /= np.linalg.norm(x)
    for k in range(1, cfg.iterations + 1):
        g = grad_f_squared(w, x)
        tang = g - (g @ x) * x
        tnorm = float(np.linalg.norm(tang))
        if tnorm <= 1e-9 * max(1.0, float(np.linalg.norm(g))):
            stagnated_at = stagnated_at or k
        else:
            step = cfg.step if cfg.step_mode == "constant" else cfg.step / np.sqrt(k)
            x = x + step * (tang / tnorm)
            x /= np.linalg.norm(x)
        values.append(f_value(w, x))
        best = max(best, values[-1])
    return tuple(values), best, perturbed, stagnated_at


class TestOneProductPerIterate:
    def test_search_equals_the_reference_bit_for_bit(self):
        configs = (SearchConfig(), SearchConfig(iterations=20, step=0.05),
                   SearchConfig(step_mode="decreasing"))
        # complete:8 starts stationary; on K_1 and an edgeless graph every
        # point is stationary, so the search stagnates at iteration 1
        extra = (("complete:8", generate_named("complete", 8)),
                 ("complete:1", generate_named("complete", 1)),
                 ("edgeless:3", build_graph(3, [], allow_isolated=True)))
        for label, g in standard_corpus()[::5] + extra:
            q = signless_laplacian_matrix(g)
            for cfg in configs:
                tr = gradient_search(q, cfg)
                got = (tr.values, tr.best_value, tr.perturbed, tr.stagnated_at)
                assert got == reference_search(q, cfg), label

    def test_graph_matrix_operator_agrees_with_the_dense_array(self):
        rng = SplitMix64(91001)
        for label, g in standard_corpus()[::10]:
            w, q = GraphMatrix(g), signless_laplacian_matrix(g)
            x = random_unit(g.n, rng)
            for fn in (f_value, f_value_quadratic, bound_from_vector):
                assert fn(w, x) == pytest.approx(fn(q, x), rel=1e-12, abs=1e-12), label
            assert np.allclose(grad_f_squared(w, x), grad_f_squared(q, x), rtol=1e-12, atol=1e-12)
            assert gradient_search(w).values == pytest.approx(gradient_search(q).values, rel=1e-12)
            assert one_step_analytic_bound(w, 0.1) == pytest.approx(
                one_step_analytic_bound(q, 0.1), rel=1e-12, abs=1e-12)

class TestOneSearchPerGraph:
    """eta and one_step read one cached search of GraphData."""

    @pytest.fixture
    def search_calls(self, monkeypatch):
        calls = []

        def counting(w, config=None):
            calls.append(config)
            return gradient_search(w, config)

        monkeypatch.setattr(minmax, "gradient_search", counting)
        return calls

    @pytest.mark.parametrize("names", [("eta", "one_step"), None])
    def test_catalog_runs_the_search_once(self, search_calls, names):
        options = CatalogOptions(search=SearchConfig(iterations=7, step=0.2))
        for label, g in standard_corpus()[::50]:
            del search_calls[:]
            outcomes = evaluate_catalog(GraphData(g, options), names)
            assert search_calls == [options.search], label
            assert {o.name for o in outcomes} >= {"eta", "one_step"}

    def test_the_start_probe_is_the_first_step(self, monkeypatch):
        # one tangent step per iteration, plus the stationary probe when the
        # start is perturbed
        steps = []

        def counting(*args, _real=minmax._tangent_step):
            steps.append(args[-1])
            return _real(*args)

        monkeypatch.setattr(minmax, "_tangent_step", counting)
        cfg = SearchConfig(iterations=7, step=0.2, step_mode="decreasing")
        for label, g in standard_corpus()[::50] + (("cycle:6", generate_named("cycle", 6)),):
            del steps[:]
            tr = gradient_search(signless_laplacian_matrix(g), cfg)
            assert tr.stagnated_at is None
            assert len(steps) == cfg.iterations + tr.perturbed, label
            assert steps[: 1 + tr.perturbed] == [cfg.step] * (1 + tr.perturbed)

    @pytest.mark.parametrize("step_mode", ["constant", "decreasing"])
    def test_catalog_entry_equals_the_single_step_bit_for_bit(self, step_mode):
        graphs = standard_corpus()[::5] + (("cycle:6", generate_named("cycle", 6)),)
        for step in (0.1, 0.3):
            options = CatalogOptions(search=SearchConfig(step=step, step_mode=step_mode))
            for label, g in graphs:
                want = one_step_analytic_bound(signless_laplacian_matrix(g), step)
                assert bound("one_step", g, options) == want, label
        assert gradient_search(signless_laplacian_matrix(generate_named("cycle", 6))).perturbed

    def test_single_step_is_the_reference_first_iterate(self):
        # the f value one reference step from the all-ones start, or of the
        # start itself when it is stationary
        cfg = SearchConfig(iterations=1, step=0.3)
        graphs = standard_corpus()[::25] + (("cycle:6", generate_named("cycle", 6)),)
        for label, g in graphs:
            q = signless_laplacian_matrix(g)
            values, _, perturbed, _ = reference_search(q, cfg)
            start = np.full(g.n, 1.0 / np.sqrt(g.n))
            want = f_value(q, start) if perturbed else values[0]
            assert one_step_analytic_bound(q, cfg.step) == want, label


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
