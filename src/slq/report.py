"""Experiment rows, graph-spec parsing, and deterministic table rendering.

A table run evaluates selected catalog bounds on each input graph next to
the exact spread, flags any bound on the wrong side of its target, and
renders either a fixed-width text table (2 decimals by default) or CSV
(10 significant digits).  Output is byte-identical for identical
configurations.
"""

from __future__ import annotations

import csv
import io
from typing import NamedTuple, Optional

from .bounds import CATALOG_BY_NAME, CatalogOptions, GraphData, evaluate_catalog
from .combinatorics import (
    OracleLimitError,
    edge_bipartiteness,
    independence_number,
    vertex_bipartiteness,
)
from .graphs import (
    Graph,
    GraphError,
    generate_named,
    generate_random_connected,
    read_edge_list,
)
from .spectra import GraphMatrix, eigenvalues
from .validation import cell_violations, printed_form_excluded

# paper-style column order; any further selected bounds follow sorted by name
PAPER_COLUMNS = ("liu_2.3", "meg1", "meg2", "Ncon", "Z1", "Z2", "eta")
DEFAULT_BOUNDS = PAPER_COLUMNS + ("liu_delta",)

CSV_FMT = "%.10g"
SPECTRUM_FMT = "%.17g"


class GraphSpecError(ValueError):
    """Unparseable graph specification string."""


def _integers(spec: str, text: str, count: int, form: str) -> list:
    """The ``count`` comma-separated integers of text, else an error naming the form."""
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        values = []
    if len(values) != count:
        raise GraphSpecError(f"bad graph spec {spec!r}: expected {form}")
    return values


def parse_graph_spec(spec: str):
    """Parse a graph source spec into (label, Graph).

    Accepted forms: "path:5", "cycle:6", "complete:4", "star:4",
    "kbip:3,3", "kn1uk1:6", "rand:n=40,m=634,seed=1", "file:PATH".
    A rand spec needs all three of n=, m= and seed=.
    """
    if ":" not in spec:
        raise GraphSpecError(f"malformed graph spec {spec!r}: expected 'kind:params'")
    kind, _, rest = spec.partition(":")
    try:
        if kind in ("path", "cycle", "complete", "star", "kn1uk1"):
            (k,) = _integers(spec, rest, 1, f"{kind}:K with an integer K")
            return spec, generate_named(kind, k)
        if kind == "kbip":
            sizes = _integers(spec, rest, 2, "kbip:P,Q with integers P and Q")
            return spec, generate_named("complete_bipartite", sizes)
        if kind == "rand":
            fields = {}
            for part in rest.split(","):
                key, _, value = part.partition("=")
                if not value:
                    raise GraphSpecError(
                        f"malformed rand spec {spec!r}: expected key=value parts"
                    )
                key = key.strip()
                if key in fields:
                    raise GraphSpecError(f"rand spec {spec!r} repeats {key}=")
                (fields[key],) = _integers(spec, value, 1, "rand:n=N,m=M,seed=S of integers")
            if set(fields) != {"n", "m", "seed"}:
                raise GraphSpecError(f"rand spec {spec!r} needs n=, m= and seed=")
            seed = fields["seed"]
            # reduced mod 2^64 it would alias an in-range seed under another label
            if not 0 <= seed < 2**64:
                raise GraphSpecError(f"rand spec {spec!r}: seed {seed} is outside [0, 2^64)")
            label = f"rand:n={fields['n']},m={fields['m']},seed={seed}"
            return label, generate_random_connected(fields["n"], fields["m"], seed)
        if kind == "file":
            with open(rest, "r", encoding="utf-8") as fh:
                return spec, read_edge_list(fh.read())
    except GraphSpecError:
        raise
    except UnicodeDecodeError as exc:
        raise GraphSpecError(
            f"bad graph spec {spec!r}: not UTF-8 text (byte offset {exc.start})"
        ) from None
    except (ValueError, GraphError) as exc:
        raise GraphSpecError(f"bad graph spec {spec!r}: {exc}") from None
    raise GraphSpecError(f"unknown graph spec kind {kind!r}")


class RunConfig(NamedTuple):
    """Everything a table run depends on; equal configs render identical bytes."""

    sources: tuple
    bounds: tuple = DEFAULT_BOUNDS
    fmt: str = "text"
    precision: int = 2
    catalog: CatalogOptions = CatalogOptions()


class ExperimentRow(NamedTuple):
    """One graph's evaluated bounds next to the exact spread."""

    label: str
    n: int
    m: int
    Delta: int
    delta: int
    seed: Optional[int]
    s_q: float
    outcomes: tuple  # CatalogOutcome per selected bound, in column order
    violations: tuple  # CellViolation per flagged column, in column order


def resolve_bounds(selection) -> tuple:
    """Expand a bounds selection ('all' or a name tuple) into column order."""
    if selection == "all":
        names = sorted(CATALOG_BY_NAME)
    else:
        names = list(selection)
        unknown = [x for x in names if x not in CATALOG_BY_NAME]
        if unknown:
            raise GraphSpecError(
                f"unknown bound names: {', '.join(sorted(unknown))}; "
                f"choose from {', '.join(sorted(CATALOG_BY_NAME))}"
            )
    head = [c for c in PAPER_COLUMNS if c in names]
    tail = sorted(set(names) - set(PAPER_COLUMNS))
    return tuple(head + tail)


def build_row(label: str, g: Graph, columns, options: CatalogOptions,
              seed: Optional[int] = None) -> ExperimentRow:
    """Evaluate the selected bounds on one graph and flag violations."""
    data = GraphData(g, options)
    by_name = {o.name: o for o in evaluate_catalog(data, columns)}
    outcomes = tuple(by_name[c] for c in columns)
    return ExperimentRow(
        label=label,
        n=g.n,
        m=g.m,
        Delta=data.profile.Delta,
        delta=data.profile.delta,
        seed=seed,
        s_q=data.s_q,
        outcomes=outcomes,
        violations=tuple(cell_violations(label, data, outcomes, printed_form_excluded)),
    )


def run_table(config: RunConfig):
    """Build all rows and render them; returns (text, exit_code).

    Exit code 1 iff some non-excluded bound landed on the wrong side of
    the exact spread.
    """
    columns = resolve_bounds(config.bounds)
    rows = []
    for spec in config.sources:
        label, g = parse_graph_spec(spec)
        seed = None
        if label.startswith("rand:"):
            seed = int(label.rsplit("seed=", 1)[1])
        rows.append(build_row(label, g, columns, config.catalog, seed=seed))
    text = render_table(rows, columns, config)
    hard = any(not v.excluded for row in rows for v in row.violations)
    return text, (1 if hard else 0)


def _csv(rows) -> str:
    """The rows as CSV text, one line per row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _violation_cell(row: ExperimentRow) -> str:
    if not row.violations:
        return "-"
    return ";".join(f"{v.entry}[logged]" if v.excluded else v.entry for v in row.violations)


def render_table(rows, columns, config: RunConfig) -> str:
    """Render rows in the fixed column order for the configured format."""
    header = (
        ["graph", "n", "m", "Delta", "delta", "liu_2.2"]
        + list(columns)
        + ["s_Q", "violations", "seed"]
    )

    def cells(row: ExperimentRow, value_fmt) -> list:
        out = [row.label, str(row.n), str(row.m), str(row.Delta), str(row.delta), "ext"]
        for outcome in row.outcomes:
            out.append(value_fmt % outcome.value if outcome.evaluated else "n/a")
        out.append(value_fmt % row.s_q)
        out.append(_violation_cell(row))
        out.append("" if row.seed is None else str(row.seed))
        return out

    if config.fmt == "csv":
        return _csv([header] + [cells(row, CSV_FMT) for row in rows])
    value_fmt = f"%.{config.precision}f"
    table = [header] + [cells(row, value_fmt) for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = []
    for r in table:
        lines.append(
            "  ".join(cell.ljust(w) if i == 0 else cell.rjust(w)
                      for i, (cell, w) in enumerate(zip(r, widths))).rstrip()
        )
    return "\n".join(lines) + "\n"


def run_trace(spec: str, config: RunConfig) -> str:
    """Gradient-search trace for one graph under config.catalog.search:
    iteration header row, value row, then footer notes (start value, best,
    perturbation, stagnation)."""
    label, g = parse_graph_spec(spec)
    if g.n < 2:
        raise GraphSpecError(f"trace needs at least 2 vertices, {label} has {g.n}")
    trace = GraphData(g, config.catalog).search
    iters = list(range(1, len(trace.values) + 1))
    notes = [
        f"graph = {label}",
        f"start f = {CSV_FMT % trace.initial_value}",
        f"eta = {CSV_FMT % trace.best_value} at iteration {trace.iteration_of_best}",
    ]
    if trace.perturbed:
        notes.append("start point perturbed: tangential gradient vanished at the all-ones vector")
    if trace.stagnated_at is not None:
        notes.append(f"stagnated at iteration {trace.stagnated_at}")
    value_fmt = CSV_FMT if config.fmt == "csv" else f"%.{config.precision}f"
    head = ["iteration"] + [str(i) for i in iters]
    vals = ["f"] + [value_fmt % v for v in trace.values]
    if config.fmt == "csv":
        return _csv([head, vals]) + "".join(f"# {note}\n" for note in notes)
    widths = [max(len(a), len(b)) for a, b in zip(head, vals)]
    lines = [
        "  ".join(c.rjust(w) for c, w in zip(head, widths)),
        "  ".join(c.rjust(w) for c, w in zip(vals, widths)),
    ]
    lines.extend(notes)
    return "\n".join(lines) + "\n"


def run_spectrum(spec: str, config: RunConfig, matrix: str = "signless") -> str:
    """Eigenvalues of the chosen graph matrix, descending, 17 significant
    digits, one per line (CSV: index,value rows)."""
    label, g = parse_graph_spec(spec)
    try:
        w = GraphMatrix(g, matrix)
    except ValueError:
        raise GraphSpecError(f"unknown matrix kind {matrix!r}") from None
    values = eigenvalues(w.dense).values
    if config.fmt == "csv":
        rows = [(str(i), SPECTRUM_FMT % v) for i, v in enumerate(values, start=1)]
        return _csv([("index", "value")] + rows)
    return "".join(SPECTRUM_FMT % v + "\n" for v in values)


def run_invariants(spec: str, config: RunConfig) -> str:
    """Degree data plus the oracle invariants; an oracle refused above its
    size limit prints n/a with the reason."""
    label, g = parse_graph_spec(spec)
    data = GraphData(g, config.catalog)
    profile = data.profile
    pairs = [
        ("graph", label),
        ("n", str(g.n)),
        ("m", str(g.m)),
        ("Delta", str(profile.Delta)),
        ("delta", str(profile.delta)),
        ("M1", str(profile.m1)),
    ]

    def oracle(fn):
        try:
            return str(fn(data.oracles, limit=config.catalog.oracle_limit))
        except OracleLimitError as exc:
            return f"n/a ({exc})"

    pairs.append(("alpha", oracle(independence_number)))
    pairs.append(("vertex_bipartiteness", oracle(vertex_bipartiteness)))
    pairs.append(("edge_bipartiteness", oracle(edge_bipartiteness)))
    if config.fmt == "csv":
        return _csv([("key", "value")] + pairs)
    return "".join(f"{key} = {value}\n" for key, value in pairs)
