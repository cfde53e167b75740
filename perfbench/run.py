"""slq benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload validate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each

Each workload runs closed-loop, one graph at a time, against the package
under ``src/`` of the checkout this file sits in.  The run measures
set-up in fresh interpreters and peak memory in a child process that
does one pass of the program's work and nothing else, makes one untimed
warm-up pass, then repeats timed passes for ``--seconds`` (default:
``run_seconds`` in BENCHMARK.json) and checks every output.  Times are
scaled by reference work timed next to them (reference.py).  With
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics instead, in raw seconds.  The last line of stdout is
one JSON object.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads; one thread gives the steadiest figures on a
# small shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170


def import_program():
    """Import slq from this checkout's src/, and refuse any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import slq
    except ImportError as exc:
        raise SystemExit(f"error: cannot import slq from {ROOT / 'src'}: {exc}")
    if Path(slq.__file__).resolve().parent != ROOT / "src" / "slq":
        raise SystemExit(f"error: slq imported from {slq.__file__}, not from this checkout")


# ---------------------------------------------------------------------------
# passes


class Pass:
    def __init__(self):
        self.op_ms = []  # latency of every call, in pass order
        self.scaled_ms = None  # the same, scaled by the reference kernel
        self.is_row = []
        self.attempted = 0
        self.problems = []  # (label, problem)
        self.failed = 0
        self.spans = None
        self.counts = None


def run_pass(workload, reference, tracer=None) -> Pass:
    """Run every call of one pass, timing the reference kernel between
    calls, then check the outputs untimed.  Each call time is scaled by
    the two kernel runs that enclose it.  A traced pass records one root
    span per call."""
    from reference import REF_SPACING_S, scale

    result = Pass()
    ops = workload.ops()
    outputs = []
    refs = []
    ref_before = []  # per call, the index of the kernel run just before it
    no_span = contextlib.nullcontext()
    refs.append(reference.run())
    last_ref = perf_counter()
    for gid, (label, is_row, call, check) in enumerate(ops):
        if perf_counter() - last_ref >= REF_SPACING_S:
            refs.append(reference.run())
            last_ref = perf_counter()
        ref_before.append(len(refs) - 1)
        t0 = perf_counter()
        try:
            with tracer.span("row", gid) if tracer else no_span:
                out = call()
            err = None
        except Exception as exc:  # a failed call is counted, not fatal
            out, err = None, exc
        result.op_ms.append((perf_counter() - t0) * 1e3)
        result.is_row.append(is_row)
        outputs.append((label, check, out, err))
    refs.append(reference.run())
    result.scaled_ms = [scale([t], refs[k:k + 2])[0] for t, k in zip(result.op_ms, ref_before)]
    if tracer:
        result.spans, result.counts = tracer.take()
    for label, check, out, err in outputs:
        problems = [f"raised {err!r}"] if err is not None else check(out)
        result.attempted += 1
        if problems:
            result.failed += 1
            result.problems.extend((label, p) for p in problems)
    result.problems.extend(("pass", p) for p in workload.check_pass())
    return result


def probe(flag: str, args) -> list:
    """Command line of a child that runs this file in probe mode."""
    return [sys.executable, str(HERE / "run.py"), flag,
            "--workload", args.workload, "--seed", str(args.seed)]


def time_until_ready(cmd) -> float:
    """Seconds from starting cmd until it prints "ready"; waits for its end."""
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if code != 0 or line.strip() != "ready":
        raise SystemExit(f"error: {' '.join(cmd)} failed with exit code {code}")
    return elapsed


def measure_setup(args) -> tuple:
    """Seconds from starting a fresh interpreter until slq is imported and
    the workload's inputs are built, once per probe: scaled by the
    reference process timed before and after each probe, and raw."""
    from reference import PROCESS_NOMINAL_S, PROCESS_REFERENCE, scale

    reference = [sys.executable, *PROCESS_REFERENCE]
    times = []
    refs = [time_until_ready(reference)]
    for _ in range(SETUP_PROBES):
        times.append(time_until_ready(probe("--setup-probe", args)))
        refs.append(time_until_ready(reference))
    scaled = [scale([t], refs[i:i + 2], PROCESS_NOMINAL_S)[0] for i, t in enumerate(times)]
    return scaled, times


def setup_probe(args):
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)


def start_rss_probe(args):
    """A child that builds the inputs, runs one pass of program calls with
    no check and no reference kernel, and prints its peak resident MB.
    It runs during the untimed warm-up."""
    # glibc raises its mmap threshold after a large block is freed, so later
    # large arrays come from the heap and the peak depends on call order:
    # 2.4 MB on oracle_small between seeds.  A fixed threshold hands each
    # large array back when it is freed, and the peak follows live memory.
    env = {**os.environ, "MALLOC_MMAP_THRESHOLD_": str(128 * 1024)}
    return subprocess.Popen(probe("--rss-probe", args), stdout=subprocess.PIPE, text=True,
                            env=env)


def peak_rss_mb(proc) -> float:
    out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: memory probe failed with exit code {proc.returncode}")
    return float(out.split()[-1])


def run_rss_probe(args):
    from workloads import WORKLOADS

    for _, _, call, _ in WORKLOADS[args.workload](args.seed).ops():
        try:
            call()
        except Exception:  # the timed passes count and report failures
            pass
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)


# ---------------------------------------------------------------------------
# metrics


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": BLAS_THREADS,
        "cpus": os.cpu_count(),
    }


def pass_s(p: Pass, scaled_times: bool = True) -> float:
    """Time of one pass: the sum of its call times."""
    return sum(p.scaled_ms if scaled_times else p.op_ms) / 1e3


def end_to_end(setup, rss_mb, passes) -> tuple:
    """Gated metrics, times in scaled seconds (see reference.py) as medians
    over the probes, passes and graphs, plus the raw figures for reading."""
    setup_scaled, setup_raw = setup
    rows = [ms for p in passes for ms, is_row in zip(p.scaled_ms, p.is_row) if is_row]
    of_n = f"{sum(passes[0].is_row)} graphs x {len(passes)} warm passes, pooled"
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s",
                    f"median of {len(setup_scaled)} fresh interpreters; "
                    f"raw {statistics.median(setup_raw):.4f} s"),
        "wall_s": (statistics.median(pass_s(p) for p in passes), "s",
                   f"median of {len(passes)} warm passes; "
                   f"raw {statistics.median(pass_s(p, False) for p in passes):.4f} s"),
        "row_p50_ms": (statistics.median(rows), "ms", f"median of {len(rows)} latencies, {of_n}"),
        "peak_rss_mb": (rss_mb, "MB", "a child doing one pass of program calls only"),
    }
    # p95 only where at least ten samples lie beyond it; reported, not gated
    extra = {}
    if len(rows) * 0.05 >= 10:
        p95 = statistics.quantiles(rows, n=20, method="inclusive")[18]
        extra["row_p95_ms"] = (p95, "ms", f"of {len(rows)} latencies, {of_n}")
    return metrics, extra


LAYER_TIMES = {
    "graphs.build_s": "graphs.build",
    "spectra.assemble_s": "spectra.assemble",
    "spectra.eig_s": "spectra.eig",
    "combinatorics.alpha_s": "combinatorics.alpha",
    "combinatorics.vb_s": "combinatorics.vb",
    "combinatorics.maxcut_s": "combinatorics.maxcut",
    "bounds.catalog_self_s": "bounds.catalog",
    "minmax.search_s": "minmax.search",
    "validation.sandwich_self_s": "validation.sandwich",
    "validation.checks_s": "validation.checks",
    "report.row_self_s": "report.row",
    "report.render_s": "report.render",
    "trace.unattributed_s": "bench",
}

# calls are counted per "layer:function"; the rest are counters by name
LAYER_COUNTS = {
    "graphs.build_calls": "graphs.build:build_graph",
    "spectra.assemble_calls": "spectra.assemble:",
    "spectra.eig_calls": "spectra.eig:",
    "spectra.eig_work_n3": "spectra.eig_work_n3",
    "combinatorics.oracle_calls": "combinatorics.",
    "combinatorics.refused": "combinatorics.refused",
    "bounds.cells_evaluated": "bounds.cells_evaluated",
    "bounds.cells_inapplicable": "bounds.cells_inapplicable",
    "minmax.search_calls": "minmax.search:",
}


def count(counts, key: str) -> int:
    if key in counts:
        return counts[key]
    return sum(v for k, v in counts.items() if ":" in k and k.startswith(key))


def per_layer(untraced, traced) -> tuple:
    """Per-layer metrics of the traced pass with the median time.  The
    overhead is the median over the alternating (untraced, traced) pairs
    of the traced pass time minus the untraced one."""
    from tracing import layer_self_times

    chosen = sorted(traced, key=lambda p: pass_s(p, False))[(len(traced) - 1) // 2]
    self_s = layer_self_times(chosen.spans)
    metrics = {name: (self_s.get(layer, 0.0), "s") for name, layer in LAYER_TIMES.items()}
    for name, key in LAYER_COUNTS.items():
        unit = "n3_computed" if name == "spectra.eig_work_n3" else "count"
        metrics[name] = (count(chosen.counts, key), unit)
    metrics["trace.pass_s"] = (
        sum(span.end - span.start for span in chosen.spans if span.parent < 0), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(pass_s(t, False) - pass_s(u, False) for u, t in zip(untraced, traced)),
        "s",
    )
    notes = {
        "self_sum_s": sum(self_s.values()),
        "counts_repeat": all(p.counts == chosen.counts for p in traced),
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
    }
    return metrics, notes, chosen.spans


def write_spans(args, spans):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(span.as_dict(index)) + "\n" for index, span in enumerate(spans))
    return path


# ---------------------------------------------------------------------------
# driver


def run_workload(args) -> int:
    from reference import Reference
    from tracing import Tracer, installed
    from workloads import WORKLOADS

    setup = None if args.trace else measure_setup(args)
    rss_probe = None if args.trace else start_rss_probe(args)
    try:
        reference = Reference()
        workload = WORKLOADS[args.workload](args.seed)
        run_pass(workload, reference)  # warm-up: caches, lazy imports, first BLAS calls
        rss_mb = None if rss_probe is None else peak_rss_mb(rss_probe)
    finally:
        if rss_probe is not None:
            rss_probe.kill()
            rss_probe.wait()
    untraced, traced = [], []
    tracer = Tracer()
    deadline = perf_counter() + args.seconds
    while True:
        untraced.append(run_pass(workload, reference))
        if args.trace:
            with installed(tracer):
                traced.append(run_pass(workload, reference, tracer))
        if perf_counter() >= deadline:
            break
    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [x for p in passes for x in p.problems]
    correct = not problems

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"inputs: {workload.describe}")
    print("env: " + json.dumps(environment()))
    if args.trace:
        metrics, notes, spans = per_layer(untraced, traced)
        path = write_spans(args, spans)
        for name, (value, unit) in metrics.items():
            print(f"{name:28s} {value!r:>24} {unit}")
        print(f"self times + unattributed = {notes['self_sum_s']!r} s; "
            f"trace.pass_s = {metrics['trace.pass_s'][0]!r} s")
        print(f"per-layer counts repeat across traced passes: {notes['counts_repeat']}; "
            f"{notes['traced_passes']} traced, {notes['untraced_passes']} untraced passes")
        print(f"spans of that pass written to {path.relative_to(ROOT)}")
    else:
        gated, extra = end_to_end(setup, rss_mb, untraced)
        for name, (value, unit, note) in {**gated, **extra}.items():
            print(f"{name:14s} {value!r:>22} {unit:3s} ({note})")
        metrics = {name: (value, unit) for name, (value, unit, _) in gated.items()}
    print(f"fail_share     {failed / attempted!r:>22} ({failed} of {attempted} calls)")
    for label, problem in problems[:20]:
        print(f"FAIL {label}: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; prints each one's lines."""
    from workloads import WORKLOADS

    results = {}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S + 60)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = None
        code = code or proc.returncode or int(results[name] is None)
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("validate", "table_large", "oracle_small", "all"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workloads' default seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed passes run (default: run_seconds "
                        "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()
    if args.seed is None:
        from workloads import DEFAULT_SEED

        args.seed = DEFAULT_SEED
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.rss_probe:
        run_rss_probe(args)
        return 0
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
