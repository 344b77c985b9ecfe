"""Red hypercubes inside blue-triangle-free colourings of complete graphs.

The package builds colourings whose blue graph has no triangle, splits
them into a blue-sparse part plus chains of linked red cliques, and
embeds a red n-dimensional hypercube by one of two routes: a greedy
subcube assignment in the sparse part, or a batched walk along the
clique chains.  Exhaustive oracles settle the smallest cases exactly.

The top level exports the documented API: the entry points, their
parameter and result types, the errors and the generators.  Every other
name is imported from its module.
"""

from .colored_graph import (
    ColouredGraph,
    Verdict,
    is_blue_triangle_free,
    lower_bound_coloring,
    random_bipartite_blue,
    random_triangle_free_greedy,
    verify_red_embedding,
)
from .decomposition import (
    Decomposition,
    DecompositionParams,
    decompose,
    verify_decomposition,
)
from .dense_embedding import ThresholdSchedule, dense_embed
from .errors import (
    CubeRamseyError,
    GraphParseError,
    HypothesisError,
    StageFailure,
)
from .oracle import CubeSearchResult, RamseyVerdict, contains_red_cube, exhaustive_ramsey
from .snake_embedding import LinkWitness, Snake, snake_embed
from .solver import SolverParams, solve

__version__ = "0.1.0"

__all__ = [
    "ColouredGraph",
    "Verdict",
    "is_blue_triangle_free",
    "lower_bound_coloring",
    "random_bipartite_blue",
    "random_triangle_free_greedy",
    "verify_red_embedding",
    "Decomposition",
    "DecompositionParams",
    "decompose",
    "verify_decomposition",
    "ThresholdSchedule",
    "dense_embed",
    "CubeRamseyError",
    "GraphParseError",
    "HypothesisError",
    "StageFailure",
    "CubeSearchResult",
    "RamseyVerdict",
    "contains_red_cube",
    "exhaustive_ramsey",
    "LinkWitness",
    "Snake",
    "snake_embed",
    "SolverParams",
    "solve",
]
