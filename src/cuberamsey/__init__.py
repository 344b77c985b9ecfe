"""Red hypercubes inside blue-triangle-free colourings of complete graphs.

The package builds colourings whose blue graph has no triangle, splits
them into a blue-sparse part plus chains of linked red cliques, and
embeds a red n-dimensional hypercube by one of two routes: a greedy
subcube assignment in the sparse part, or a batched walk along the
clique chains.  Exhaustive oracles settle the smallest cases exactly.
"""

from .colored_graph import (
    ColouredGraph,
    Verdict,
    find_red_clique,
    is_blue_triangle_free,
    lower_bound_coloring,
    max_balanced_biclique,
    max_disjoint_red_cliques,
    random_bipartite_blue,
    random_triangle_free_greedy,
    red_components,
    verify_red_embedding,
)
from .decomposition import (
    Decomposition,
    DecompositionParams,
    decompose,
    select_gap_threshold,
    verify_decomposition,
)
from .dense_embedding import (
    Cleaned,
    Extended,
    PartialAssignment,
    ThresholdSchedule,
    check_partial_assignment,
    dense_embed,
    embed_partial_assignment,
    extend_or_clean,
)
from .errors import (
    CubeRamseyError,
    GraphParseError,
    HypothesisError,
    StageFailure,
)
from .hypercube import (
    InitialSubcube,
    bandwidth_bound,
    bandwidth_order,
    partition_complement,
    subcube_distance,
    subcube_vertices,
)
from .oracle import (
    CubeSearchResult,
    RamseyVerdict,
    canonical_triangle_free_graphs,
    contains_red_cube,
    exhaustive_ramsey,
)
from .snake_embedding import (
    LinkWitness,
    Snake,
    closed_tree_walk,
    snake_embed,
    validate_snake,
)
from .solver import SolverParams, assign_subcubes, choose_case, solve

__version__ = "0.1.0"

__all__ = [
    "ColouredGraph",
    "Verdict",
    "find_red_clique",
    "is_blue_triangle_free",
    "lower_bound_coloring",
    "max_balanced_biclique",
    "max_disjoint_red_cliques",
    "random_bipartite_blue",
    "random_triangle_free_greedy",
    "red_components",
    "verify_red_embedding",
    "Decomposition",
    "DecompositionParams",
    "decompose",
    "select_gap_threshold",
    "verify_decomposition",
    "Cleaned",
    "Extended",
    "PartialAssignment",
    "ThresholdSchedule",
    "check_partial_assignment",
    "dense_embed",
    "embed_partial_assignment",
    "extend_or_clean",
    "CubeRamseyError",
    "GraphParseError",
    "HypothesisError",
    "StageFailure",
    "InitialSubcube",
    "bandwidth_bound",
    "bandwidth_order",
    "partition_complement",
    "subcube_distance",
    "subcube_vertices",
    "CubeSearchResult",
    "RamseyVerdict",
    "canonical_triangle_free_graphs",
    "contains_red_cube",
    "exhaustive_ramsey",
    "LinkWitness",
    "Snake",
    "closed_tree_walk",
    "snake_embed",
    "validate_snake",
    "SolverParams",
    "assign_subcubes",
    "choose_case",
    "solve",
]
