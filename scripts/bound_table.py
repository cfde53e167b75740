#!/usr/bin/env python3
"""Reproduce the bound-vs-exact comparison table.

The degree-only columns depend only on (n, m, Delta, delta), so the
script first prints them for the two published parameter rows, then
builds full catalog tables for seeded random graphs with the same n and m
(the underlying graphs are unpublished, so the spectral columns are fresh
draws, reproducible through the seed).
"""

import argparse
import sys

from slq import liu_23_value, meg2_value
from slq.bounds import CatalogOptions
from slq.minmax import SearchConfig
from slq.report import RunConfig, run_table

PRINTED_ROWS = (
    # (n, m, Delta, delta)
    (40, 634, 36, 27),
    (40, 322, 23, 9),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="seed for the random rows")
    search = SearchConfig._field_defaults
    parser.add_argument("--iters", type=int, default=search["iterations"],
                        help="eta search iterations")
    parser.add_argument("--step", type=float, default=search["step"], help="eta search step size")
    parser.add_argument("--format", choices=("text", "csv"), default="text", dest="fmt")
    parser.add_argument("--extra", nargs="*", default=[], metavar="GRAPH",
                        help="additional graph specs to append to the table")
    args = parser.parse_args()

    print("degree-only columns from the printed parameters:")
    for n, m, Delta, delta in PRINTED_ROWS:
        print(
            f"  n={n} m={m} Delta={Delta} delta={delta}  "
            f"meg2={meg2_value(Delta, delta):.2f}  "
            f"liu_2.3={liu_23_value(n, m, Delta):.2f}"
        )
    print()

    sources = tuple(
        f"rand:n={n},m={m},seed={args.seed}" for n, m, _, _ in PRINTED_ROWS
    ) + tuple(args.extra)
    config = RunConfig(
        sources=sources,
        fmt=args.fmt,
        seed=args.seed,
        catalog=CatalogOptions(
            search=SearchConfig(iterations=args.iters, step=args.step)
        ),
    )
    text, code = run_table(config)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
