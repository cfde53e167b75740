#!/usr/bin/env python3
"""Measure gradient-search quality: eta / s_Q over seeded random graphs.

For each graph the script runs the projected gradient search at a given
iteration budget and reports the ratio of the best value found to the
exact spread, then summary statistics per step schedule.
"""

import argparse
import sys

import numpy as np

from slq import GraphData, generate_random_connected
from slq.minmax import SearchConfig, gradient_search


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=40, help="vertices per graph")
    parser.add_argument("--graphs", type=int, default=20, help="number of graphs")
    parser.add_argument("--m-start", type=int, default=100, help="edges of the first graph")
    parser.add_argument("--m-step", type=int, default=17, help="edge increment per graph")
    search = SearchConfig._field_defaults
    parser.add_argument("--iters", type=int, default=search["iterations"], help="search iterations")
    parser.add_argument("--step", type=float, default=search["step"], help="step size")
    parser.add_argument("--seed", type=int, default=600000, help="seed of the first graph")
    args = parser.parse_args()

    schedules = ("constant", "decreasing")
    ratios = {mode: [] for mode in schedules}
    print("graph        m    s_Q      " + "".join(f"eta/{m:<11}" for m in schedules))
    for j in range(args.graphs):
        m = args.m_start + args.m_step * j
        g = generate_random_connected(args.n, m, seed=args.seed + j)
        data = GraphData(g)
        s_q = data.s_q
        row = [f"n={args.n},#{j:<3}  {m:<4} {s_q:7.3f} "]
        for mode in schedules:
            cfg = SearchConfig(iterations=args.iters, step=args.step, step_mode=mode)
            ratio = gradient_search(data.q.operand, cfg).best_value / s_q
            ratios[mode].append(ratio)
            row.append(f"  {ratio:13.4f}")
        print("".join(row))
    print()
    for mode in schedules:
        arr = np.array(ratios[mode])
        print(
            f"{mode:10} step: mean {arr.mean():.4f}  min {arr.min():.4f}  "
            f"max {arr.max():.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
