"""The package's records: immutable NamedTuples and three plain classes,
none of them a dataclass, so importing slq generates only each NamedTuple's
__new__."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import slq
from slq.bounds import CATALOG, CatalogOptions, compare_l1_l2, evaluate_catalog
from slq.cli import build_parser
from slq.graphs import build_graph, degree_profile, generate_named
from slq.minmax import SearchConfig, gradient_search
from slq.report import RunConfig, build_row
from slq.spectra import (
    GraphMatrix,
    eigenvalues,
    extreme_eigenvalues,
    signless_laplacian_matrix,
    spread_report,
)
from slq.validation import CellViolation

MODULES = [
    importlib.import_module(f"slq.{info.name}") for info in pkgutil.iter_modules(slq.__path__)
]


def records():
    g = generate_named("cycle", 5)
    q = signless_laplacian_matrix(g)
    return [
        degree_profile(g),
        eigenvalues(q),
        extreme_eigenvalues(GraphMatrix(g, "signless")),
        spread_report(g),
        gradient_search(q),
        SearchConfig(),
        CatalogOptions(),
        compare_l1_l2(g),
        CATALOG[0],
        evaluate_catalog(g, ["meg2"])[0],
        CellViolation("path:3", "meg2", "lower", "s_Q", 2.2, 2.0, True),
        RunConfig(sources=("cycle:5",)),
        build_row("cycle:5", g, ("meg2",), CatalogOptions()),
    ]


def test_no_class_is_a_dataclass():
    classes = [
        (mod.__name__, name)
        for mod in MODULES
        for name, cls in vars(mod).items()
        if inspect.isclass(cls) and hasattr(cls, "__dataclass_fields__")
    ]
    assert classes == []


def test_every_record_is_covered():
    named = {
        cls.__name__
        for mod in MODULES
        for cls in vars(mod).values()
        if inspect.isclass(cls) and issubclass(cls, tuple) and hasattr(cls, "_fields")
        and not cls.__name__.startswith("_")
    }
    assert named == {type(r).__name__ for r in records()}


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_record_fields_cannot_be_assigned(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_records_holding_arrays_compare_and_hash_by_identity():
    q = signless_laplacian_matrix(generate_named("cycle", 5))
    for make in (eigenvalues, gradient_search):
        a, b = make(q), make(q)
        assert a == a and a != b and not a == b
        assert len({a, b, a}) == 2 and hash(a) != hash(b)


def test_graph_fields_cannot_be_assigned_or_deleted():
    g = build_graph(3, [(0, 1), (1, 2)])
    for name, value in (("n", 4), ("edge_array", np.zeros((0, 2))), ("degrees", np.ones(3))):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert (g.n, g.edges, g.degrees.tolist()) == (3, ((0, 1), (1, 2)), [1, 2, 1])
    assert g.components == 1 and "components" in vars(g)  # cached on the instance


def test_search_config_checks_every_way_it_is_made():
    with pytest.raises(ValueError, match="iterations"):
        SearchConfig(0)
    with pytest.raises(ValueError, match="positive"):
        SearchConfig(step=-1.0)
    with pytest.raises(ValueError, match="step_mode"):
        SearchConfig()._replace(step_mode="linear")
    assert SearchConfig()._replace(iterations=3) == SearchConfig(3, 0.1, "constant")


def test_cli_defaults_are_the_record_defaults():
    run = RunConfig._field_defaults
    for argv in (["table", "path:3"], ["trace", "path:3"]):
        args = build_parser().parse_args(argv)
        assert SearchConfig(args.iters, args.step, args.step_mode) == SearchConfig()
        assert (args.fmt, args.precision) == (run["fmt"], run["precision"])
