"""Acceptance criteria, one test per criterion, each recorded for the
end-of-run PASS/FAIL summary.

Criteria 2 and 3 follow the program's documentation (the README and the
docstrings) where a printed claim differs from it, and assert the
difference as a checked fact:

* criterion 2: on K_{r,s} the third-moment bound is checked against
  (r+s)/2 + sqrt(((s-r)/2)^2 + 1), the value its documented definition
  gives.  The printed closed form (s^2+r^2+s+r)/(s+r) is asserted equal to
  it on the diagonal r = s and different from it for every r != s.
* criterion 3: the over-optimistic printed forms are excluded on exactly
  the classes the README names (meg2 and L1 on connected graphs with
  n <= 3, on graphs with an isolated vertex and on disconnected graphs;
  regular_sqrt on K_2 and K_3).  An exclusion on regular graphs only would
  miss the 8 meg2/L1 overshoots on the P_3 isomorphs and on K_2 + K_1;
  that set is asserted too.
"""

import time

import numpy as np
import pytest
from conftest import bound, record_criterion
from test_minmax import f_value_quadratic

from slq import (
    GraphData,
    compare_l1_l2,
    eigenvalues,
    f_value,
    generate_named,
    generate_random_connected,
    generate_regular_circulant,
    grad_f_squared,
    gradient_search,
    liu_23_value,
    meg2_value,
    numerical_grad_f_squared,
    signless_laplacian_matrix,
)
from slq.combinatorics import (
    edge_bipartiteness,
    independence_number,
    vertex_bipartiteness,
)
from slq.graphs import is_bipartite, is_regular
from slq.validation import (
    check_identities,
    check_sandwich,
    random_connected_bipartites,
    small_connected_sample,
    standard_corpus,
)


# the meg2/L1 overshoots on the P_3 isomorphs (sqrt(11) against s_Q = 3)
# and on K_2 + K_1 (sqrt(7) against 2): logged under the README classes,
# missed by an exclusion on regular graphs only
OVERSHOOTS_BEYOND_REGULAR = {
    (label, entry)
    for label in ("path:3", "star:2", "kbip:1,2", "kn1uk1:3")
    for entry in ("meg2", "L1")
}


def s_q_of(g) -> float:
    vals = eigenvalues(signless_laplacian_matrix(g)).values
    return float(vals[0] - vals[-1])


def test_criterion_1_degree_only_table_values():
    title = "degree-only table values match the printed rows to 0.01"
    meg2_value(2, 1)  # warm the code path before timing
    liu_23_value(4, 3, 2)
    start = time.perf_counter()
    values = (
        meg2_value(36, 27),
        meg2_value(23, 9),
        liu_23_value(40, 634, 36),
        liu_23_value(40, 322, 23),
    )
    elapsed = time.perf_counter() - start
    expected = (14.53, 16.25, 28.68, 11.06)
    bad = [
        f"got {got:.4f}, printed {want}"
        for got, want in zip(values, expected)
        if abs(got - want) > 0.01
    ]
    passed = not bad and elapsed < 1e-3
    record_criterion(
        1, title, passed, f"{len(expected)} values, {elapsed * 1e6:.0f} us"
    )
    assert passed, (bad, elapsed)


def test_criterion_2_equality_fixtures():
    title = "equality fixtures hold to 1e-6"
    tol = 1e-6
    start = time.perf_counter()
    bad = []

    def expect(label, got, want):
        if abs(got - want) > tol:
            bad.append(f"{label}: got {got:.9f}, expected {want:.9f}")

    for n in range(2, 31):
        expect(f"s_Q(path:{n})", s_q_of(generate_named("path", n)),
               2.0 + 2.0 * np.cos(np.pi / n))
    for label, g in (
        ("star:3", generate_named("star", 3)),
        ("complete:4", generate_named("complete", 4)),
        ("cycle:6", generate_named("cycle", 6)),
        ("cycle:8", generate_named("cycle", 8)),
    ):
        expect(f"s_Q({label})", s_q_of(g), 4.0)
    for n in range(5, 13):
        expect(f"s_Q(kn1uk1:{n})", s_q_of(generate_named("kn1uk1", n)), 2.0 * n - 4.0)
    for k in range(1, 9):
        g = generate_named("complete_bipartite", (k, k))
        expect(f"ub_mirsky_q(kbip:{k},{k})", bound("mirsky_q", g), 2.0 * k)
        expect(f"s_Q(kbip:{k},{k})", s_q_of(g), 2.0 * k)
    specs = [(4 + (990000 + i) % 13, 990100 + i) for i in range(20)]
    for (n, seed), g in zip(specs, random_connected_bipartites(specs)):
        expect(f"lb_mu1_minus_vb(bipartite seed={seed})", bound("mu1_minus_vb", g), s_q_of(g))
    for k in range(1, 9):
        g = generate_named("complete", k + 1)
        expect(f"lb_cubic_moment(complete:{k + 1})", bound("cubic_moment", g), k + 1.0)
        expect(f"s_Q(complete:{k + 1})", s_q_of(g), k + 1.0)
    for r in range(1, 7):
        for s in range(r, 7):
            g = generate_named("complete_bipartite", (r, s))
            got = bound("cubic_moment", g)
            # d is a Q-eigenvector for r+s, so the ratio is r+s; Y is the
            # smaller eigenvalue of [[s, 1], [1, r]]; the bound is their gap
            expect(f"lb_cubic_moment(kbip:{r},{s})", got,
                   (r + s) / 2.0 + np.sqrt(((s - r) / 2.0) ** 2 + 1.0))
            printed = (s * s + r * r + s + r) / (s + r)
            if r == s:
                expect(f"printed form (kbip:{r},{s})", got, printed)
            elif abs(got - printed) <= tol:
                bad.append(
                    f"printed form (kbip:{r},{s}): {printed:.9f} meets the "
                    f"bound {got:.9f}, expected them to differ"
                )
    elapsed = time.perf_counter() - start
    passed = not bad and elapsed < 10.0
    detail = (
        f"{len(bad)} failing fixtures, {elapsed:.2f}s; the printed"
        " K_{r,s} form (s^2+r^2+s+r)/(s+r) is checked equal to cubic_moment"
        " at r = s and different from it at r != s"
    )
    record_criterion(2, title, passed, detail)
    assert passed, bad


def test_criterion_3_sandwich_suite():
    title = "sandwich over >= 500 graphs, README-class exclusion, zero unexcluded"
    corpus = standard_corpus()

    def readme_classes(name: str, data: GraphData) -> bool:
        g = data.graph
        if name in ("meg2", "L1"):
            # an isolated vertex makes the graph disconnected
            return g.n <= 3 or not data.connected
        if name == "regular_sqrt":
            return g.n in (2, 3) and g.m == g.n * (g.n - 1) // 2
        return False

    start = time.perf_counter()
    rep = check_sandwich(corpus, exclude=readme_classes)
    elapsed = time.perf_counter() - start
    graphs = dict(corpus)
    unexcluded = sorted({(v.graph_label, v.entry) for v in rep.failures})
    above_n3 = sorted(
        {(v.graph_label, v.entry) for v in rep.logged if graphs[v.graph_label].n > 3}
    )
    beyond_regular = {
        (v.graph_label, v.entry)
        for v in rep.logged
        if not is_regular(graphs[v.graph_label])
    }
    passed = (
        len(corpus) >= 500
        and not rep.failures
        and not above_n3
        and beyond_regular == OVERSHOOTS_BEYOND_REGULAR
        and elapsed < 60.0
    )
    detail = (
        f"{len(corpus)} graphs, {rep.cells_checked} cells, "
        f"{len(rep.logged)} logged, {len(rep.failures)} unexcluded, "
        f"{elapsed:.2f}s; an exclusion on regular graphs only would leave "
        f"{len(beyond_regular)} of the logged cells unexcluded"
    )
    record_criterion(3, title, passed, detail)
    assert passed, (
        f"unexcluded violations: {unexcluded}; "
        f"logged cells on graphs with n > 3: {above_n3}; "
        f"logged cells on non-regular graphs: {sorted(beyond_regular)}, "
        f"expected {sorted(OVERSHOOTS_BEYOND_REGULAR)}"
    )


def test_criterion_4_oracle_chain():
    title = "q_n <= vb <= eb <= (n-alpha)(n-alpha-1)/2 on 200 small graphs"
    sample = small_connected_sample(count=200, seed=77001, max_n=8)
    start = time.perf_counter()
    bad = []
    for label, g in sample:
        qn = float(eigenvalues(signless_laplacian_matrix(g)).values[-1])
        vb = vertex_bipartiteness(g)
        eb = edge_bipartiteness(g)
        alpha = independence_number(g)
        k = g.n - alpha
        if qn > vb + 1e-8:
            bad.append(f"{label}: q_n {qn:.9f} > vb {vb}")
        if vb > eb:
            bad.append(f"{label}: vb {vb} > eb {eb}")
        if eb > k * (k - 1) // 2:
            bad.append(f"{label}: eb {eb} > tau(tau-1)/2 = {k * (k - 1) // 2}")
        if (vb == 0) != is_bipartite(g)[0]:
            bad.append(f"{label}: vb = {vb} vs bipartite = {is_bipartite(g)[0]}")
    elapsed = time.perf_counter() - start
    passed = len(sample) == 200 and not bad and elapsed < 30.0
    record_criterion(4, title, passed, f"{len(sample)} graphs, {elapsed:.2f}s")
    assert passed, bad


def test_criterion_5_minmax_validity():
    title = "sphere values and search traces never exceed s_Q; forms and gradients agree"
    corpus = standard_corpus()
    start = time.perf_counter()
    bad = []
    for idx, (label, g) in enumerate(corpus):
        q = signless_laplacian_matrix(g)
        vals = eigenvalues(q).values
        s_q = float(vals[0] - vals[-1])
        rng = np.random.default_rng(880000 + idx)
        xs = rng.standard_normal((g.n, 1000))
        xs /= np.linalg.norm(xs, axis=0)
        qx = q @ xs
        rayleigh = (xs * qx).sum(axis=0)
        f_all = 2.0 * np.linalg.norm(qx - rayleigh * xs, axis=0)
        worst = float(f_all.max())
        if worst > s_q + 1e-6:
            bad.append(f"{label}: vector value {worst:.9f} > s_Q {s_q:.9f}")
        for j in range(3):
            x = xs[:, j]
            if abs(f_value(q, x) - f_value_quadratic(q, x)) > 1e-10:
                bad.append(f"{label}: f forms disagree")
        trace = gradient_search(q)
        if max((trace.initial_value,) + trace.values) > s_q + 1e-6:
            bad.append(f"{label}: search trace exceeds s_Q")
    for label, g in small_connected_sample(count=50, seed=52001):
        q = signless_laplacian_matrix(g)
        rng = np.random.default_rng(hash(label) & 0xFFFFFFFF)
        x = rng.standard_normal(g.n)
        x /= np.linalg.norm(x)
        ana = grad_f_squared(q, x)
        num = numerical_grad_f_squared(q, x)
        if float(np.linalg.norm(ana - num)) / max(1.0, float(np.linalg.norm(ana))) > 1e-5:
            bad.append(f"{label}: gradient mismatch")
    elapsed = time.perf_counter() - start
    passed = not bad and elapsed < 60.0
    record_criterion(
        5, title, passed,
        f"{len(corpus)} graphs x 1000 vectors + traces, 50 gradient pairs, {elapsed:.2f}s",
    )
    assert passed, bad[:10]


def test_criterion_6_search_quality_soft():
    title = "soft: 10-iteration eta reaches >= 85% of s_Q on average (n = 40)"
    from slq.minmax import SearchConfig

    ratios = []
    ratios_decreasing = []
    for j in range(20):
        n, m = 40, 100 + 17 * j
        g = generate_random_connected(n, m, seed=600000 + j)
        q = signless_laplacian_matrix(g)
        vals = eigenvalues(q).values
        s_q = float(vals[0] - vals[-1])
        best = gradient_search(q).best_value
        ratios.append(best / s_q)
        best_dec = gradient_search(q, SearchConfig(step_mode="decreasing")).best_value
        ratios_decreasing.append(best_dec / s_q)
    mean = float(np.mean(ratios))
    mean_dec = float(np.mean(ratios_decreasing))
    measured = all(0.0 < r <= 1.0 + 1e-9 for r in ratios + ratios_decreasing)
    detail = (
        f"mean eta/s_Q = {mean:.4f} constant step, {mean_dec:.4f} decreasing step, "
        f"min {min(ratios):.4f}; soft target 0.85 "
        f"{'met' if mean >= 0.85 else 'missed'} (reported, not asserted)"
    )
    record_criterion(6, title, measured, detail)
    assert measured  # only the measurement itself is asserted


def test_criterion_7_identity_suite():
    title = "incidence factorizations exact on 100 graphs; line-graph shift on 50"
    start = time.perf_counter()
    rep = check_identities()
    elapsed = time.perf_counter() - start
    passed = not rep.identity_failures and elapsed < 30.0
    record_criterion(7, title, passed, f"{elapsed:.2f}s")
    assert passed, rep.identity_failures


def test_criterion_8_l1_l2_regimes():
    title = "L2 - L1 sign matches the regular-graph classification"
    start = time.perf_counter()
    bad = []
    pairs = 0
    for k in range(2, 9):
        for n in range(k + 1, 21):
            if (n * k) % 2 == 1:
                continue  # no k-regular graph exists on n vertices
            g = generate_regular_circulant(n, k)
            rep = compare_l1_l2(g)
            pairs += 1
            if rep.predicted is None:
                bad.append(f"n={n},k={k}: unclassified")
            elif not rep.consistent:
                bad.append(
                    f"n={n},k={k}: predicted {rep.predicted}, "
                    f"L1={rep.l1:.6f}, L2={rep.l2:.6f}"
                )
    elapsed = time.perf_counter() - start
    passed = not bad and elapsed < 5.0
    record_criterion(8, title, passed, f"{pairs} (n, k) pairs, {elapsed:.2f}s")
    assert passed, bad
