"""Command line interface.

Subcommands: `table` (bounds vs exact spread for one or more graphs),
`validate` (run the full validation suite over the built-in corpus),
`trace` (gradient-search iterations for one graph), `spectrum`
(eigenvalues of a graph matrix), `invariants` (degree and oracle
invariants).  Results go to stdout, diagnostics to stderr; exit status is
nonzero exactly when a non-excluded bound violation or an error occurred.
"""

from __future__ import annotations

import argparse
import sys

from .bounds import CatalogOptions
from .combinatorics import ALPHA_LIMIT, EB_LIMIT, VB_LIMIT
from .graphs import GraphError
from .minmax import SearchConfig
from .report import (
    DEFAULT_BOUNDS,
    GraphSpecError,
    RunConfig,
    run_invariants,
    run_spectrum,
    run_table,
    run_trace,
)
from .spectra import EigensolverError
from .validation import validate_all

MAX_PRECISION = 100  # far past the 17 significant digits of a double


def _add_flags(sub: argparse.ArgumentParser, *names: str):
    """Add the named flags; each subcommand takes only the ones it reads."""
    search, run = SearchConfig._field_defaults, RunConfig._field_defaults
    specs = {
        "--oracle-limit": dict(
            type=int, default=None, metavar="N",
            help="cap every exact oracle at N vertices "
            f"(defaults: alpha {ALPHA_LIMIT}, vertex bipartiteness {VB_LIMIT}, "
            f"edge bipartiteness {EB_LIMIT})",
        ),
        "--iters": dict(type=int, default=search["iterations"], metavar="K",
                        help="gradient-search iterations (default %(default)s)"),
        "--step": dict(type=float, default=search["step"], metavar="S",
                       help="gradient-search step size (default %(default)s)"),
        "--step-mode": dict(choices=("constant", "decreasing"), default=search["step_mode"],
                            help="step schedule: s or s/sqrt(k)"),
        "--format": dict(choices=("csv", "text"), default=run["fmt"], dest="fmt",
                         help="output format (default %(default)s)"),
        "--precision": dict(type=int, default=run["precision"], metavar="D",
                            help=f"text decimals, 0..{MAX_PRECISION} (default %(default)s)"),
    }
    for name in names:
        sub.add_argument(name, **specs[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slq",
        description="Signless Laplacian spread: exact values and bound catalogs.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    search = ("--iters", "--step", "--step-mode")

    p_table = subs.add_parser(
        "table", help="bounds vs exact spread, one row per graph"
    )
    p_table.add_argument("sources", nargs="+", metavar="GRAPH",
                         help="graph specs like path:5, rand:n=40,m=634,seed=1, file:PATH")
    p_table.add_argument(
        "--bounds",
        default=None,
        metavar="LIST",
        help="comma-separated catalog names, or 'all' "
        f"(default: {','.join(DEFAULT_BOUNDS)})",
    )
    _add_flags(p_table, "--oracle-limit", *search, "--format", "--precision")
    p_table.set_defaults(func=_cmd_table, command_parser=p_table)

    p_val = subs.add_parser(
        "validate", help="run the validation suite over the built-in corpus"
    )
    _add_flags(p_val, "--oracle-limit", *search)
    p_val.set_defaults(func=_cmd_validate, command_parser=p_val)

    p_trace = subs.add_parser("trace", help="gradient-search trace for one graph")
    p_trace.add_argument("source", metavar="GRAPH")
    _add_flags(p_trace, *search, "--format", "--precision")
    p_trace.set_defaults(func=_cmd_trace, command_parser=p_trace)

    p_spec = subs.add_parser("spectrum", help="eigenvalues of a graph matrix")
    p_spec.add_argument("source", metavar="GRAPH")
    p_spec.add_argument("--matrix", choices=("adjacency", "laplacian", "signless"),
                        default="signless", help="which matrix (default signless)")
    _add_flags(p_spec, "--format")
    p_spec.set_defaults(func=_cmd_spectrum, command_parser=p_spec)

    p_inv = subs.add_parser("invariants", help="degree and oracle invariants")
    p_inv.add_argument("source", metavar="GRAPH")
    _add_flags(p_inv, "--oracle-limit", "--format")
    p_inv.set_defaults(func=_cmd_invariants, command_parser=p_inv)

    return parser


def _run_config(args, bounds=DEFAULT_BOUNDS) -> RunConfig:
    """The run settings from the flags the subcommand accepts; the rest
    keep their defaults."""
    flags = vars(args)
    oracle_limit = flags.get("oracle_limit")
    if oracle_limit is not None and oracle_limit < 1:
        raise GraphSpecError("oracle limit must be at least 1")
    precision = flags.get("precision", RunConfig._field_defaults["precision"])
    if precision < 0:
        raise GraphSpecError("--precision must be at least 0")
    if precision > MAX_PRECISION:
        raise GraphSpecError(f"--precision must be at most {MAX_PRECISION}")
    search = SearchConfig()
    if "iters" in flags:
        try:
            search = SearchConfig(
                iterations=args.iters, step=args.step, step_mode=args.step_mode
            )
        except ValueError as exc:
            raise GraphSpecError(str(exc)) from None
    return RunConfig(
        sources=tuple(flags.get("sources", ())),
        bounds=bounds,
        fmt=flags.get("fmt", RunConfig._field_defaults["fmt"]),
        precision=precision,
        catalog=CatalogOptions(oracle_limit=oracle_limit, search=search),
    )


def _cmd_table(args) -> int:
    bounds = DEFAULT_BOUNDS
    if args.bounds is not None:
        bounds = tuple(x.strip() for x in args.bounds.split(",") if x.strip())
        if not bounds:
            raise GraphSpecError("--bounds got an empty list")
        if bounds == ("all",):
            bounds = "all"
    config = _run_config(args, bounds=bounds)
    text, code = run_table(config)
    sys.stdout.write(text)
    return code


def _cmd_validate(args) -> int:
    config = _run_config(args)
    rep = validate_all(options=config.catalog)
    w = sys.stdout.write
    w(f"graphs checked: {rep.graphs_checked}\n")
    w(f"bound cells checked: {rep.cells_checked} ({rep.inapplicable_cells} inapplicable)\n")
    w(f"unexcluded violations: {len(rep.failures)}\n")
    for v in rep.failures:
        w(f"  FAIL {v}\n")
    w(f"logged discrepancies (known unsound printed forms): {len(rep.logged)}\n")
    for v in rep.logged:
        w(f"  note {v}\n")
    for title, failures in (
        ("equality fixtures", rep.fixture_failures),
        ("matrix identities", rep.identity_failures),
        ("gradient checks", rep.gradient_failures),
    ):
        w(f"{title}: {'OK' if not failures else str(len(failures)) + ' failures'}\n")
        for s in failures:
            w(f"  FAIL {s}\n")
    w("result: PASS\n" if rep.ok else "result: FAIL\n")
    return 0 if rep.ok else 1


def _cmd_trace(args) -> int:
    config = _run_config(args)
    sys.stdout.write(run_trace(args.source, config))
    return 0


def _cmd_spectrum(args) -> int:
    config = _run_config(args)
    sys.stdout.write(run_spectrum(args.source, config, matrix=args.matrix))
    return 0


def _cmd_invariants(args) -> int:
    config = _run_config(args)
    sys.stdout.write(run_invariants(args.source, config))
    return 0


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # refused by the subcommand's own usage
        args.command_parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (GraphSpecError, GraphError, EigensolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's refused allocations subclass it
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
