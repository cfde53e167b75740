"""The three workloads: inputs made from the benchmark seed, the program
calls of one pass, and the check each call's output must pass.

A workload's constructor is its set-up (the work ``setup_s`` times).
``ops()`` returns the calls of one pass in order, each as
``(label, is_row, call, check)``: ``call()`` runs the program and returns
its output, ``check(output)`` returns a list of problems.  Rows are the
per-graph calls whose latencies make ``row_p50_ms``.  The program is
always reached through module attributes, so a traced pass sees the
wrapped functions.
"""

from __future__ import annotations

import random

from slq import bounds, report, validation

import checks

DEFAULT_SEED = 20240817


class Validate:
    """The work of ``slq validate``: the sandwich check graph by graph over
    the corpus, then the equality fixtures, identities and gradient checks.

    Many small graphs (n <= 60): time goes to Python overhead in the
    bounds catalog and three small eigensolves per graph.  The default
    seed reproduces ``standard_corpus()``; another seed draws a random
    part of the same shape."""

    name = "validate"

    def __init__(self, seed: int):
        self.corpus = validation.named_corpus(12) + validation.random_corpus(seed=seed)
        self.catalog_size = len(bounds.CATALOG)
        self.describe = (
            f"{len(self.corpus)} graphs (named families n <= 12, random n <= 60), "
            f"{self.catalog_size} catalog entries each, then fixtures, identities, gradients"
        )

    def ops(self) -> list:
        rep = validation.ValidationReport()
        self._report = rep

        def sandwich(item):
            before = (rep.graphs_checked, rep.cells_checked + rep.inapplicable_cells,
                      len(rep.failures))
            validation.check_sandwich([item], report=rep)
            after = (rep.graphs_checked, rep.cells_checked + rep.inapplicable_cells,
                     len(rep.failures))
            return tuple(b - a for a, b in zip(before, after))

        want = (1, self.catalog_size, 0)

        def check_row(delta):
            return [] if delta == want else [f"(graphs, cells, failures) added {delta}, expected {want}"]

        ops = [
            (label, True, lambda item=(label, g): sandwich(item), check_row)
            for label, g in self.corpus
        ]
        for label, run, failures in (
            ("equality fixtures", validation.check_equality_fixtures, "fixture_failures"),
            ("identities", validation.check_identities, "identity_failures"),
            ("gradients", validation.check_gradients, "gradient_failures"),
        ):
            ops.append((
                label,
                False,
                lambda run=run, failures=failures: list(getattr(run(report=rep), failures)),
                lambda found: [str(x) for x in found],
            ))
        return ops

    def check_pass(self) -> list:
        return checks.check_validate_report(self._report, len(self.corpus), self.catalog_size)


class TableLarge:
    """One ``run_table`` per large seeded random graph, default columns.

    A few large dense eigensolves limited by BLAS: three per row, with
    their residual certificates.  The denser member shows whether a gain
    depends on sparsity."""

    name = "table_large"
    SIZES = ((500, 5000), (1000, 10000), (1500, 15000), (800, 32000))

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.specs = [
            f"rand:n={n},m={m},seed={rng.getrandbits(63)}" for n, m in self.SIZES
        ]
        self.describe = (
            "one csv table per graph, default columns; (n, m) = "
            + ", ".join(f"({n}, {m})" for n, m in self.SIZES)
        )
        self._checks = {}

    def _check_for(self, spec):
        if spec not in self._checks:
            _, g = report.parse_graph_spec(spec)
            s_q = checks.reference_spread(g.n, g.edges)
            self._checks[spec] = lambda out: checks.check_table_row(out, g.n, g.m, s_q)
        return self._checks[spec]

    def ops(self) -> list:
        return [
            (
                spec,
                True,
                lambda spec=spec: report.run_table(
                    report.RunConfig(sources=(spec,), fmt="csv")
                ),
                lambda out, spec=spec: self._check_for(spec)(out),
            )
            for spec in self.specs
        ]

    def check_pass(self) -> list:
        return []


class OracleSmall:
    """``run_invariants`` on graphs inside every oracle's limit.

    The brute-force oracles dominate.  The members are fixed: the named
    graphs have closed forms, and the seeded ``rand:`` graphs (n 16..20,
    m 2n..4n) have recorded values.  The seed only orders the calls.  An
    oracle's cost depends on the graph, down to its vertex labels: fresh
    random graphs per seed, or relabeled ones, moved the pass time or the
    median row by 17 to 40 % from seed to seed."""

    name = "oracle_small"
    NAMED = {
        "complete:16": ("complete", 16),
        "complete:17": ("complete", 17),
        "complete:18": ("complete", 18),
        "cycle:19": ("cycle", 19),
        "kbip:8,10": ("kbip", (8, 10)),
    }

    def __init__(self, seed: int):
        self.members = []  # (spec, n, edges, expected)
        for spec, (kind, params) in self.NAMED.items():
            _, g = report.parse_graph_spec(spec)
            self.members.append(
                (spec, g.n, g.edges, checks.closed_form_oracle_values(kind, params))
            )
        for spec, expected in checks.RECORDED_ORACLE_VALUES.items():
            _, g = report.parse_graph_spec(spec)
            self.members.append((spec, g.n, g.edges, expected))
        random.Random(seed).shuffle(self.members)
        self.describe = (
            f"{len(self.NAMED)} named and {len(checks.RECORDED_ORACLE_VALUES)} seeded random "
            "graphs, n 16..20, in seed order"
        )

    def ops(self) -> list:
        return [
            (
                spec,
                True,
                lambda spec=spec: report.run_invariants(
                    spec, report.RunConfig(sources=(spec,))
                ),
                lambda text, n=n, edges=edges, expected=expected: checks.check_invariants(
                    text, n, edges, expected
                ),
            )
            for spec, n, edges, expected in self.members
        ]

    def check_pass(self) -> list:
        return []


WORKLOADS = {w.name: w for w in (Validate, TableLarge, OracleSmall)}
