"""Bound catalog: frozen values, soundness sandwiches, applicability gates.

Two catalog entries (and the regular-graph square-root form) reproduce a
printed closed form that overshoots s_Q on specific small graphs; those
overshoots are frozen here as documented behavior rather than asserted
away.
"""

import numpy as np
import pytest
from conftest import bound
from hypothesis import example, given, strategies as st

from slq import (
    BoundNotApplicable,
    CATALOG,
    CatalogOptions,
    GraphData,
    bound_from_vector,
    bounds,
    build_graph,
    compare_l1_l2,
    evaluate_catalog,
    generate_named,
    generate_random_connected,
    generate_regular_circulant,
    is_regular,
    liu_23_value,
    meg2_value,
    signless_laplacian_matrix,
    spread_report,
    vertex_bipartiteness,
)
from slq.bounds import (
    CATALOG_BY_NAME,
    lb_cubic_moment,
    lb_degree_two_case,
    lb_jz_degree_form,
    lb_mu1_minus_vb,
    lb_regular_sqrt,
    ub_global_2n4,
    ub_liu_degree_avg,
    ub_mirsky_q,
)
from slq.report import parse_graph_spec
from slq.validation import small_connected_sample

UNSOUND_PRINTED_FORMS = {"meg2", "L1", "regular_sqrt"}

symmetric_2x2 = st.tuples(
    st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50)
)

connected_specs = st.integers(2, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(n - 1, n * (n - 1) // 2),
        st.integers(0, 2**32),
    )
)


def spread_of(w) -> float:
    vals = np.linalg.eigvalsh(np.asarray(w, dtype=np.float64))
    return float(vals[-1] - vals[0])


# ---------------------------------------------------------------------------
# generic symmetric-matrix spread bounds, kept as the references that the
# degree-only catalog entries specialize on Q


def _square(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("matrix must be square")
    return w


def mirsky_upper(w) -> float:
    """s(W) <= sqrt(2 ||W||_F^2 - (2/n) (tr W)^2); equality for n = 2.

    The radicand is evaluated as 2 ||W - (tr W / n) I||_F^2, the same
    quantity without the subtraction that cancels catastrophically when
    the spread is small next to the entries."""
    w = _square(w)
    n = w.shape[0]
    centred = w - float(np.trace(w)) / n * np.eye(n)
    return float(np.sqrt(2.0 * float((centred * centred).sum())))


def barnes_hoffman_lower(w) -> float:
    """s(W) >= max over index pairs, including i = j, of
    sqrt((w_ii - w_jj)^2 + 2 r_i + 2 r_j) with r_i the off-diagonal
    squared row sum; diagonal pairs give sqrt(4 r_i)."""
    w = _square(w)
    d = np.diag(w)
    r = (w * w).sum(axis=1) - d * d
    gap = d[:, None] - d[None, :]
    vals = gap * gap + 2.0 * r[:, None] + 2.0 * r[None, :]
    return float(np.sqrt(max(float(vals.max()), 0.0)))


def jiang_zhan_lower(w) -> float:
    """The sharpened pair bound: over i != j,
    sqrt((w_ii - w_jj)^2 + 2 r_i + 2 r_j + 4 e_ij) where e_ij couples the
    rows through f_ij = |r_i - r_j|; e_ij = 2 f_ij when the diagonals tie,
    else min((w_ii - w_jj)^2 + 2 |(w_ii - w_jj)^2 - f_ij|, f_ij^2 / (w_ii - w_jj)^2).
    Broadcast over the pair matrix; the tied pairs' quotient is computed
    and discarded."""
    w = _square(w)
    n = w.shape[0]
    if n < 2:
        return 0.0
    d = np.diag(w)
    r = (w * w).sum(axis=1) - d * d
    gap2 = (d[:, None] - d[None, :]) ** 2
    f = np.abs(r[:, None] - r[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        untied = np.minimum(gap2 + 2.0 * np.abs(gap2 - f), f * f / gap2)
    e = np.where(d[:, None] == d[None, :], 2.0 * f, untied)
    vals = gap2 + 2.0 * r[:, None] + 2.0 * r[None, :] + 4.0 * e
    np.fill_diagonal(vals, -np.inf)
    return float(np.sqrt(vals.max()))


class TestGenericMatrixBounds:
    def test_mirsky_all_ones_2x2(self):
        assert mirsky_upper([[1.0, 1.0], [1.0, 1.0]]) == pytest.approx(2.0, abs=1e-12)

    @given(symmetric_2x2)
    @example((1.0, 1e-8, 1.0))  # 2||W||_F^2 - (tr W)^2 cancels to 0 here
    def test_mirsky_equality_order_two(self, abc):
        a, b, c = abc
        w = [[a, b], [b, c]]
        assert mirsky_upper(w) == pytest.approx(spread_of(w), abs=1e-8)

    @given(connected_specs)
    def test_mirsky_dominates_spread(self, spec):
        n, m, seed = spec
        q = signless_laplacian_matrix(generate_random_connected(n, m, seed))
        assert mirsky_upper(q) >= spread_of(q) - 1e-9

    def test_barnes_hoffman_diagonal_is_gap(self):
        assert barnes_hoffman_lower(np.diag([7.0, 3.0])) == pytest.approx(4.0)

    def test_barnes_hoffman_star(self):
        q = signless_laplacian_matrix(generate_named("star", 3))
        assert barnes_hoffman_lower(q) == pytest.approx(np.sqrt(12.0), abs=1e-12)

    @given(connected_specs)
    def test_barnes_hoffman_below_spread(self, spec):
        n, m, seed = spec
        q = signless_laplacian_matrix(generate_random_connected(n, m, seed))
        assert barnes_hoffman_lower(q) <= spread_of(q) + 1e-8

    def test_barnes_hoffman_reaches_two_sqrt_maxdeg(self):
        # the diagonal i = j pairs contribute sqrt(4 r_i) = 2 sqrt(d_i) on Q
        q = signless_laplacian_matrix(generate_named("star", 5))
        assert barnes_hoffman_lower(q) >= 2.0 * np.sqrt(5.0) - 1e-12

    def test_sharpened_pair_bound_star(self):
        q = signless_laplacian_matrix(generate_named("star", 3))
        assert jiang_zhan_lower(q) == pytest.approx(4.0, abs=1e-12)

    def test_sharpened_pair_bound_overshoots_spread_on_path3(self):
        # frozen overshoot: the printed sharpened form gives sqrt(11) on
        # Q(P_3) while the spread is 3, so it is not used as a certified
        # lower bound anywhere in the catalog
        q = signless_laplacian_matrix(generate_named("path", 3))
        value = jiang_zhan_lower(q)
        assert value == pytest.approx(np.sqrt(11.0), abs=1e-12)
        assert value > spread_of(q) + 0.3

    def test_shape_validation(self):
        for fn in (mirsky_upper, barnes_hoffman_lower, jiang_zhan_lower):
            with pytest.raises(ValueError, match="square"):
                fn(np.ones((2, 3)))


@pytest.fixture(scope="module")
def corpus_q(corpus):
    return [(label, g, signless_laplacian_matrix(g)) for label, g in corpus]


class TestCatalogSpecializations:
    """The degree-only catalog entries are the generic bounds on Q."""

    def test_degree_two_case_is_barnes_hoffman(self, corpus_q):
        for label, g, q in corpus_q:
            assert lb_degree_two_case(GraphData(g)) == barnes_hoffman_lower(q), label

    def test_mirsky_q_is_mirsky_within_two_ulps(self, corpus_q):
        for label, g, q in corpus_q:
            value = ub_mirsky_q(GraphData(g))
            assert abs(value - mirsky_upper(q)) <= 2 * np.spacing(value), label

    def test_meg2_is_sharpened_pair_bound_off_regular_graphs(self, corpus_q):
        # on a k-regular graph the pair bound is 2 sqrt(k), meg2 2 sqrt(k+1)
        strict = set()
        for label, g, q in corpus_q:
            meg2, sharpened = lb_jz_degree_form(GraphData(g)), jiang_zhan_lower(q)
            assert sharpened <= meg2, label
            if sharpened < meg2:
                strict.add(label)
        regular = {label for label, g, _ in corpus_q if is_regular(g)}
        assert regular and strict == regular


class TestDegreeOnlyClosedForms:
    def test_printed_table_values(self):
        assert meg2_value(36, 27) == pytest.approx(14.53, abs=0.01)
        assert meg2_value(23, 9) == pytest.approx(16.25, abs=0.01)
        assert liu_23_value(40, 634, 36) == pytest.approx(28.68, abs=0.01)
        assert liu_23_value(40, 322, 23) == pytest.approx(11.06, abs=0.01)

    def test_exact_radicands(self):
        assert meg2_value(36, 27) == pytest.approx(np.sqrt(211.0), abs=1e-12)
        assert meg2_value(23, 9) == pytest.approx(np.sqrt(264.0), abs=1e-12)

    def test_liu_23_small_order_rejected(self):
        with pytest.raises(ValueError):
            liu_23_value(1, 0, 0)


class TestLowerBoundFixtures:
    def test_star3_catalog_values(self):
        g = generate_named("star", 3)
        assert bound("mu1_minus_vb", g) == pytest.approx(4.0, abs=1e-9)
        assert bound("degree_two_case", g) == pytest.approx(2.0 * np.sqrt(3.0), abs=1e-12)
        assert bound("meg2", g) == pytest.approx(4.0, abs=1e-12)
        assert bound("liu_delta", g) == pytest.approx(3.0, abs=1e-12)
        assert bound("cubic_moment", g) == pytest.approx(2.0 + np.sqrt(2.0), abs=1e-12)

    def test_degree_two_case_picks_the_right_branch(self):
        # large gap: the quadratic branch dominates; small gap: 2 sqrt(Delta)
        wide = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])  # star, gap 3
        assert bound("degree_two_case", wide) == pytest.approx(
            np.sqrt(9.0 + 8.0 + 2.0), abs=1e-12
        )
        tight = generate_named("path", 4)  # gap 1: 2 sqrt(Delta) dominates sqrt(7)
        assert bound("degree_two_case", tight) == pytest.approx(
            2.0 * np.sqrt(2.0), abs=1e-12
        )

    def test_regular_forms(self):
        c5 = generate_named("cycle", 5)
        assert bound("regular_sqrt", c5) == pytest.approx(2.0 * np.sqrt(3.0), abs=1e-12)
        assert bound("regular_kplus1", c5) == pytest.approx(3.0, abs=1e-12)
        k4 = generate_named("complete", 4)
        assert bound("regular_sqrt", k4) == pytest.approx(4.0, abs=1e-12)
        assert bound("regular_kplus1", k4) == pytest.approx(4.0, abs=1e-12)
        assert spread_report(k4).s_q == pytest.approx(4.0, abs=1e-9)

    def test_regular_sqrt_overshoots_on_triangle(self):
        # frozen overshoot of the printed form: 2 sqrt(k+1) on K_3 exceeds
        # s_Q(K_3) = 3; validation excludes this entry on regular graphs
        k3 = generate_named("complete", 3)
        assert bound("regular_sqrt", k3) > spread_report(k3).s_q + 0.4

    def test_degree_pair_form_overshoots_on_path3(self):
        g = generate_named("path", 3)
        assert bound("meg2", g) == pytest.approx(np.sqrt(11.0), abs=1e-12)
        assert bound("meg2", g) > spread_report(g).s_q + 0.3

    def test_cubic_moment_complete(self):
        for k in range(1, 7):
            g = generate_named("complete", k + 1)
            assert bound("cubic_moment", g) == pytest.approx(k + 1.0, abs=1e-9)

    def test_cubic_moment_complete_bipartite(self):
        for r, s in ((1, 1), (2, 2), (1, 3), (2, 5), (4, 6)):
            g = generate_named("complete_bipartite", (r, s))
            want = (r + s) / 2.0 + np.sqrt(((s - r) / 2.0) ** 2 + 1.0)
            assert bound("cubic_moment", g) == pytest.approx(want, abs=1e-9)

    def test_cubic_moment_matches_edge_loop_exactly(self, corpus):
        def loop_reference(g):
            p = GraphData(g).profile
            deg = g.degrees
            d2 = [0] * g.n  # A d
            for u, v in g.edges:
                d2[u] += int(deg[v])
                d2[v] += int(deg[u])
            ratio = float(sum(int(x) ** 3 + int(x) * y for x, y in zip(deg, d2))) / p.m1
            y = None
            for u, v in g.edges:
                for a, b in ((u, v), (v, u)):
                    if deg[b] == p.Delta:
                        cand = (p.Delta + deg[a]) / 2.0 - np.sqrt(
                            ((p.Delta - deg[a]) / 2.0) ** 2 + 1.0
                        )
                        if y is None or cand < y:
                            y = cand
            return abs(ratio - y)

        graphs = [g for _, g in corpus] + [g for _, g in small_connected_sample()]
        graphs += [generate_named("complete", k) for k in range(2, 10)]
        checked = 0
        for g in graphs:
            if g.m >= 1:
                assert lb_cubic_moment(GraphData(g)) == loop_reference(g)
                checked += 1
        assert checked > 700

    def test_liu_delta_value(self):
        assert bound("liu_delta", generate_named("path", 4)) == pytest.approx(2.0)

    def test_eta_bounded_by_spread(self):
        g = generate_random_connected(9, 16, seed=11)
        assert bound("eta", g) <= spread_report(g).s_q + 1e-9


class TestVectorBoundDualRoutes:
    @given(connected_specs)
    def test_formula_paths_match_direct_evaluation(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, m, seed)
        q = signless_laplacian_matrix(g)
        d = np.asarray(g.degrees, dtype=np.float64)
        routes = {
            "Ncon": np.ones(g.n),
            "degree_vector": d,
            "Z1": 1.0 / d,
            "Z2": d**-3.0,
        }
        by_name = {o.name: o for o in evaluate_catalog(g, routes)}
        for name, vec in routes.items():
            assert by_name[name].evaluated, by_name[name].reason
            got = by_name[name].value
            want = bound_from_vector(q, vec)
            if name != "Ncon":
                # the catalog evaluates these vectors on the same dense Q
                assert got == want, (name, got, want)
                continue
            # Ncon is the integer closed form of the all-ones vector
            scale = max(got, want)
            if scale > 1e-5:
                assert abs(got - want) <= 1e-9 * scale, (name, got, want)
            # else: the graph is regular and both routes sit at rounding
            # noise around zero


REGULAR_SPECS = [
    "complete:4", "complete:60", "complete:400", "complete:450",
    "kbip:3,3", "kbip:200,200", "kbip:225,225",
    "cycle:5", "cycle:400", "cycle:450",
]


class TestZ2OnRegularGraphs:
    """On a k-regular graph d, 1/d and d^-3 are eigenvectors of Q, so
    degree_vector, Z1 and Z2 are exactly 0; the computed values must be
    rounding-sized, not cancellation noise of order sqrt(eps) q_1."""

    @pytest.mark.parametrize("spec", REGULAR_SPECS)
    def test_z2_vanishes(self, spec):
        _, g = parse_graph_spec(spec)
        assert is_regular(g)
        q1 = 2.0 * float(g.degrees.max())  # Q of a k-regular graph has q_1 = 2k
        assert 0.0 <= bound("Z2", g) <= 1e-9 * q1

    @pytest.mark.parametrize("spec", REGULAR_SPECS)
    def test_z1_and_degree_vector_vanish(self, spec):
        _, g = parse_graph_spec(spec)
        assert is_regular(g)
        q1 = 2.0 * float(g.degrees.max())
        for name in ("Z1", "degree_vector"):
            assert 0.0 <= bound(name, g) <= 1e-9 * q1, name


class TestUpperBoundFixtures:
    def test_mirsky_q_balanced_bipartite_tight(self):
        g = generate_named("complete_bipartite", (2, 2))
        assert bound("mirsky_q", g) == pytest.approx(4.0, abs=1e-12)
        assert spread_report(g).s_q == pytest.approx(4.0, abs=1e-9)

    def test_mirsky_q_degree_majorizes(self):
        p4 = generate_named("path", 4)
        assert bound("mirsky_q_degree", p4) > bound("mirsky_q", p4)

    @given(connected_specs)
    def test_mirsky_q_degree_dominates_everywhere(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, m, seed)
        assert bound("mirsky_q_degree", g) >= bound("mirsky_q", g) - 1e-9

    def test_global_bound_equality_on_clique_plus_isolated(self):
        for n in (5, 7, 9):
            g = generate_named("kn1uk1", n)
            assert bound("global_2n4", g) == pytest.approx(2.0 * n - 4.0)
            assert spread_report(g).s_q == pytest.approx(2.0 * n - 4.0, abs=1e-9)

    def test_liu_degree_avg_tight_on_path3_and_star(self):
        assert bound("liu_degree_avg", generate_named("path", 3)) == pytest.approx(3.0)
        assert bound("liu_degree_avg", generate_named("star", 3)) == pytest.approx(4.0)

    def test_liu_degree_avg_is_at_least_q1(self, corpus):
        # max_v (Qd)_v / d_v is the Collatz-Wielandt bound on q_1; the
        # sandwich checks the entry only against s_Q
        graphs = [g for _, g in corpus]
        specs = ["rand:n=500,m=5000,seed=1", "rand:n=900,m=2700,seed=2",
                 "complete:450", "cycle:500"]
        graphs += [parse_graph_spec(spec)[1] for spec in specs]
        checked = 0
        for g in graphs:
            data = GraphData(g)
            if data.connected and g.n >= 2:
                assert ub_liu_degree_avg(data) >= data.q_extremes.top_enclosure[0]
                checked += 1
        assert checked > 500

    def test_das_targets_laplacian_spread(self):
        k5 = generate_named("complete", 5)
        assert CATALOG_BY_NAME["das_laplacian"].target == "s_L"
        value = bound("das_laplacian", k5)
        assert value == pytest.approx(0.0, abs=1e-12)
        rep = spread_report(k5)
        assert rep.s_l == pytest.approx(0.0, abs=1e-9)
        # the value sits far below s_Q; only the s_L target makes it sound
        assert value < rep.s_q - 1.0

    @given(connected_specs)
    def test_das_dominates_laplacian_spread(self, spec):
        n, m, seed = spec
        if n < 5:
            n, m = 5, max(m, 4)
            m = min(m, n * (n - 1) // 2)
        g = generate_random_connected(n, m, seed)
        assert bound("das_laplacian", g) >= spread_report(g).s_l - 1e-9


class TestCatalogSandwich:
    @given(connected_specs)
    def test_all_sound_entries_bracket_their_target(self, spec):
        n, m, seed = spec
        g = generate_random_connected(n, m, seed)
        rep = spread_report(g)
        targets = {"s_Q": rep.s_q, "s_L": rep.s_l}
        for outcome in evaluate_catalog(g):
            if not outcome.evaluated or outcome.name in UNSOUND_PRINTED_FORMS:
                continue
            ref = targets[outcome.target]
            if outcome.direction == "lower":
                assert outcome.value <= ref + 1e-6, (outcome.name, outcome.value, ref)
            else:
                assert outcome.value >= ref - 1e-6, (outcome.name, outcome.value, ref)


class TestApplicabilityAndOptions:
    def test_hypothesis_failures_raise_with_reason(self):
        p3 = generate_named("path", 3)
        with pytest.raises(BoundNotApplicable, match="regular"):
            lb_regular_sqrt(GraphData(p3))
        with pytest.raises(BoundNotApplicable, match="5 vertices"):
            ub_global_2n4(GraphData(p3))
        disconnected = generate_named("kn1uk1", 5)
        with pytest.raises(BoundNotApplicable, match="connected"):
            lb_mu1_minus_vb(GraphData(disconnected))

    def test_catalog_outcome_partition_star(self):
        outcomes = evaluate_catalog(generate_named("star", 3))
        names = [o.name for o in outcomes]
        assert names == sorted(o.name for o in CATALOG)
        skipped = {o.name for o in outcomes if not o.evaluated}
        assert skipped == {"regular_sqrt", "regular_kplus1", "global_2n4", "das_laplacian"}

    def test_catalog_outcome_partition_disconnected(self):
        outcomes = evaluate_catalog(generate_named("kn1uk1", 7))
        skipped = {o.name for o in outcomes if not o.evaluated}
        assert skipped == {
            "mu1_minus_vb", "4m_over_n_minus_vb", "2lambda1_minus_vb",
            "meg1", "liu_delta", "path_universal", "liu_degree_avg",
            "Z1", "Z2", "regular_sqrt", "regular_kplus1",
        }

    def test_include_subset_and_unknown_names(self):
        g = generate_named("cycle", 4)
        outcomes = evaluate_catalog(g, ("meg2", "eta"))
        assert [o.name for o in outcomes] == ["eta", "meg2"]
        with pytest.raises(ValueError, match="unknown bound names: nope"):
            evaluate_catalog(g, ("meg2", "nope"))

    def test_oracle_limit_isolated_per_entry(self):
        g = generate_random_connected(6, 9, seed=4)
        outcomes = evaluate_catalog(GraphData(g, CatalogOptions(oracle_limit=3)))
        by_name = {o.name: o for o in outcomes}
        for name in ("mu1_minus_vb", "4m_over_n_minus_vb", "2lambda1_minus_vb"):
            assert not by_name[name].evaluated
            assert "oracle limit" in by_name[name].reason
        assert by_name["meg2"].evaluated
        assert by_name["eta"].evaluated

    def test_vb_refusal_is_one_oracle_call_with_one_reason(self, monkeypatch):
        calls = []

        def counting(g, limit=None):
            calls.append(limit)
            return vertex_bipartiteness(g, limit=limit)

        monkeypatch.setattr(bounds, "vertex_bipartiteness", counting)
        names = ("mu1_minus_vb", "4m_over_n_minus_vb", "2lambda1_minus_vb")
        outcomes = evaluate_catalog(GraphData(generate_named("cycle", 21)), names)
        assert [o.evaluated for o in outcomes] == [False, False, False]
        reasons = {o.reason for o in outcomes}
        assert reasons == {"vertex bipartiteness: n=21 exceeds oracle limit 20"}
        assert calls == [None]

    def test_graphdata_caches_spectra(self):
        d = GraphData(generate_named("cycle", 6))
        assert d.q_extremes is d.q_extremes
        assert d.profile is d.profile


class TestL1L2Comparison:
    def test_low_degree_regular_prefers_l1(self):
        rep = compare_l1_l2(generate_named("cycle", 5))
        assert rep.regime == "regular k<=3"
        assert rep.predicted == "L1" and rep.dominant == "L1"
        assert rep.consistent

    def test_dense_regular_prefers_l2(self):
        rep = compare_l1_l2(generate_regular_circulant(10, 5))
        assert rep.regime == "regular L2-dominant"
        assert rep.predicted == "L2" and rep.dominant == "L2"
        assert rep.consistent

    def test_quartic_large_order_prefers_l1(self):
        rep = compare_l1_l2(generate_regular_circulant(10, 4))
        assert rep.regime == "regular k=4, n>=10"
        assert rep.predicted == "L1" and rep.dominant == "L1"
        assert rep.consistent

    def test_quartic_small_order_prefers_l2(self):
        rep = compare_l1_l2(generate_regular_circulant(8, 4))
        assert rep.regime == "regular L2-dominant"
        assert rep.predicted == "L2" and rep.consistent

    def test_cubic_complete_ties(self):
        rep = compare_l1_l2(generate_named("complete", 4))
        assert rep.predicted == "L1" and rep.dominant == "tie"
        assert rep.consistent

    def test_pendant_small_degree_prefers_l1(self):
        rep = compare_l1_l2(generate_named("path", 4))
        assert rep.regime == "pendant small-degree"
        assert rep.predicted == "L1" and rep.dominant == "L1"
        assert rep.consistent
        assert rep.l1 == pytest.approx(np.sqrt(11.0), abs=1e-12)
        assert rep.l2 == pytest.approx(np.sqrt(48.0) / 3.0, abs=1e-12)

    def test_large_star_unclassified(self):
        rep = compare_l1_l2(generate_named("star", 9))
        assert rep.regime == "unclassified"
        assert rep.predicted is None and rep.consistent is None
