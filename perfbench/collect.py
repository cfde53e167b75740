"""Repeat the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json

For every workload and seed it runs ``run.py`` untraced, then one traced
run per workload on the first seed.  For each end-to-end metric it
prints the median and quartiles (``statistics.quantiles(n=4)``) and the
spread (q3 - q1) / median next to the metric's bound in
BENCHMARK.json, and marks a spread of a third of the bound or more as
WIDE; with ``--out`` it also writes all of it as JSON.  It exits 1 if a
run was incorrect or a spread was wide.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """The run's JSON result and its environment line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}")
    env = next((json.loads(x[5:]) for x in lines if x.startswith("env: ")), None)
    return json.loads(lines[-1]), env


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default run_seconds from BENCHMARK.json)")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    summary = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in workloads:
        results = []
        for seed in seeds:
            result, summary["env"] = run(workload, seed, seconds, 0)
            results.append(result)
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        print(f"{workload}: {len(seeds)} seeds, correct={entry['correct']}, "
              f"failed {entry['failed']} of {entry['attempted']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            stats = summarize(values)
            stats["unit"] = results[0]["metrics"][name]["unit"]
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            steady = stats["spread"] < bound / 3
            ok = ok and entry["correct"] and steady
            print(f"  {name:12s} median {stats['median']:.6g} {stats['unit']:3s} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f} "
                  f"bound {bound} {'ok' if steady else 'WIDE'}")
        traced, _ = run(workload, seeds[0], seconds, 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        print("  per-layer (seed %d): %s" % (seeds[0], json.dumps(entry["per_layer"])))
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
