"""Signless Laplacian spread of simple graphs.

Exact spectra and spreads, a catalog of closed-form lower and upper
bounds, exact combinatorial oracles, a gradient-search lower bound on the
unit sphere, and deterministic comparison tables.
"""

from .bounds import (
    BoundCatalogEntry,
    BoundNotApplicable,
    CATALOG,
    CatalogOptions,
    CatalogOutcome,
    GraphData,
    barnes_hoffman_lower,
    compare_l1_l2,
    evaluate_catalog,
    jiang_zhan_lower,
    liu_23_value,
    meg2_value,
    mirsky_upper,
)
from .combinatorics import (
    OracleLimitError,
    check_density_condition,
    edge_bipartiteness,
    independence_number,
    max_cut,
    vertex_bipartiteness,
    vertex_cover_number,
)
from .graphs import (
    DegreeProfile,
    EdgeListError,
    Graph,
    GraphError,
    build_graph,
    degree_profile,
    generate_named,
    generate_random_connected,
    generate_random_connected_many,
    generate_regular_circulant,
    is_bipartite,
    is_connected,
    is_regular,
    read_edge_list,
    write_edge_list,
)
from .minmax import (
    SearchConfig,
    SearchTrace,
    bound_from_vector,
    f_value,
    f_value_quadratic,
    grad_f_squared,
    gradient_search,
    numerical_grad_f_squared,
    one_step_analytic_bound,
    unit_vector,
)
from .rng import SplitMix64
from .spectra import (
    EigensolverError,
    Extremes,
    GraphMatrix,
    Spectrum,
    SpreadReport,
    adjacency_matrix,
    eigenvalues,
    extreme_eigenvalues,
    incidence_matrix,
    laplacian_matrix,
    line_graph,
    oriented_incidence_matrix,
    signless_laplacian_matrix,
    spread_report,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
