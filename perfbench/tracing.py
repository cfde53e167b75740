"""In-memory spans around the public functions of each slq layer.

A traced run rebinds every wrapped function in every ``slq`` module that
holds it (``bounds.eigenvalues`` as well as ``spectra.eigenvalues``), so
calls made inside the package are recorded too, and restores the
originals afterwards.  A span records its layer, function, start, end,
parent span and the id of the graph being processed.  Self time is a
span's duration minus the part of it that its children cover; summed
over all spans of a pass it equals the summed duration of the root
spans, the benchmark's own spans around each call (layer ``bench``),
which hold the unattributed rest.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

UNATTRIBUTED = "bench"

# layer -> (module, function) pairs whose calls are spans of that layer
LAYER_FUNCTIONS = {
    "graphs.build": (
        ("slq.graphs", "build_graph"),
        ("slq.graphs", "generate_named"),
        ("slq.graphs", "generate_random_connected"),
        ("slq.graphs", "generate_regular_circulant"),
        ("slq.graphs", "read_edge_list"),
        ("slq.report", "parse_graph_spec"),
    ),
    "spectra.assemble": (
        ("slq.spectra", "adjacency_matrix"),
        ("slq.spectra", "laplacian_matrix"),
        ("slq.spectra", "signless_laplacian_matrix"),
        ("slq.spectra", "incidence_matrix"),
        ("slq.spectra", "oriented_incidence_matrix"),
    ),
    "spectra.eig": (("slq.spectra", "eigenvalues"),),
    "combinatorics.alpha": (("slq.combinatorics", "independence_number"),),
    "combinatorics.vb": (("slq.combinatorics", "vertex_bipartiteness"),),
    "combinatorics.maxcut": (("slq.combinatorics", "max_cut"),),
    "bounds.catalog": (("slq.bounds", "evaluate_catalog"),),
    "minmax.search": (("slq.minmax", "gradient_search"),),
    "validation.sandwich": (("slq.validation", "check_sandwich"),),
    "validation.checks": (
        ("slq.validation", "check_equality_fixtures"),
        ("slq.validation", "check_identities"),
        ("slq.validation", "check_gradients"),
    ),
    "report.row": (
        ("slq.report", "build_row"),
        ("slq.report", "run_table"),
        ("slq.report", "run_invariants"),
    ),
    "report.render": (("slq.report", "render_table"),),
}


class Span:
    __slots__ = ("layer", "func", "start", "end", "parent", "gid")

    def __init__(self, layer, func, start, end, parent, gid):
        self.layer = layer
        self.func = func
        self.start = start
        self.end = end
        self.parent = parent
        self.gid = gid

    def as_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": f"{self.layer}:{self.func}",
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "graph": self.gid,
        }


class Tracer:
    """Span and counter store for one traced pass at a time."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.gid = None
        self._stack = []

    def open(self, layer: str, func: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(layer, func, perf_counter(), None, parent, self.gid))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index].end = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, func: str, gid=None):
        """A benchmark-side span; its self time is unattributed."""
        self.gid = gid
        index = self.open(UNATTRIBUTED, func)
        try:
            yield
        finally:
            self.close(index)

    def take(self):
        """Hand over the recorded spans and counts and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def _count_work(tracer, layer, args, result):
    if layer == "spectra.eig":
        n = len(args[0])
        tracer.counts["spectra.eig_work_n3"] += n**3
    elif layer == "bounds.catalog":
        evaluated = sum(1 for outcome in result if outcome.evaluated)
        tracer.counts["bounds.cells_evaluated"] += evaluated
        tracer.counts["bounds.cells_inapplicable"] += len(result) - evaluated


def _wrap(tracer: Tracer, layer: str, fn, refusal):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.counts[f"{layer}:{fn.__name__}"] += 1
        index = tracer.open(layer, fn.__name__)
        try:
            result = fn(*args, **kwargs)
        except refusal:
            tracer.counts["combinatorics.refused"] += 1
            raise
        finally:
            tracer.close(index)
        _count_work(tracer, layer, args, result)
        return result

    return traced


def _slq_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "slq" or name.startswith("slq."))
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every layer function in every loaded slq module to a traced
    wrapper; the originals are restored on exit, also after an error."""
    from slq.combinatorics import OracleLimitError

    wrappers = {}
    for layer, targets in LAYER_FUNCTIONS.items():
        for module_name, attr in targets:
            fn = getattr(sys.modules[module_name], attr)
            refusal = OracleLimitError if layer.startswith("combinatorics.") else ()
            wrappers[id(fn)] = (fn, _wrap(tracer, layer, fn, refusal))
    patched = []
    try:
        for mod in _slq_modules():
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    patched.append((mod, attr, value))
        yield tracer
    finally:
        for mod, attr, value in reversed(patched):
            setattr(mod, attr, value)


def self_times(spans) -> list:
    """Per-span duration minus the union of its children's intervals,
    clipped to the span."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[index], key=lambda c: spans[c].start):
            lo = max(spans[child].start, reach)
            hi = min(spans[child].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def layer_self_times(spans) -> dict:
    """Self time summed per layer; ``bench`` is the unattributed part."""
    totals = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] += own
    return dict(totals)
