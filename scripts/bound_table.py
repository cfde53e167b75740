#!/usr/bin/env python3
"""Reproduce the bound-vs-exact comparison table.

The degree-only columns depend only on (n, m, Delta, delta), so the
script first prints them for the two published parameter rows, then
runs `slq table` on seeded random graphs with the same n and m (the
underlying graphs are unpublished, so the spectral columns are fresh
draws, reproducible through --seed). Every other argument, a flag or a
further graph spec, passes through to `slq table`:

    python3 scripts/bound_table.py --seed 2 --format csv path:5
"""

import argparse
import sys

from slq import liu_23_value, meg2_value
from slq.cli import main as slq

PRINTED_ROWS = (
    # (n, m, Delta, delta)
    (40, 634, 36, 27),
    (40, 322, 23, 9),
)


def main() -> int:
    # no abbreviations: "--s" is slq table's (ambiguous) prefix, not --seed
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--seed", type=int, default=1, help="seed for the random rows")
    args, rest = parser.parse_known_args()

    print("degree-only columns from the printed parameters:")
    for n, m, Delta, delta in PRINTED_ROWS:
        print(
            f"  n={n} m={m} Delta={Delta} delta={delta}  "
            f"meg2={meg2_value(Delta, delta):.2f}  "
            f"liu_2.3={liu_23_value(n, m, Delta):.2f}"
        )
    print()
    rows = [f"rand:n={n},m={m},seed={args.seed}" for n, m, _, _ in PRINTED_ROWS]
    return slq(["table", *rows, *rest])


if __name__ == "__main__":
    sys.exit(main())
