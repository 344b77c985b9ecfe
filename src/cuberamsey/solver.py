"""Finding a red n-cube in a large triangle-free-blue colouring.

The graph is first decomposed into a sparse part C and snakes.  When C
holds at least half the vertices the cube is embedded densely into C
with its few high-blue-degree vertices removed; otherwise the snakes
carry most of the graph, the cube is split into initial subcubes, and
each piece is walked into a snake while dodging the blue neighbourhoods
of already-placed neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .bits import bits_list, iter_bits, mask_of
from .colored_graph import (
    ColouredGraph,
    is_blue_triangle_free,
    verify_red_embedding,
)
from .decomposition import Decomposition, DecompositionParams, decompose
from .dense_embedding import ThresholdSchedule, dense_embed
from .errors import HypothesisError, StageFailure
from .hypercube import InitialSubcube, partition_complement, subcube_vertices
from .snake_embedding import snake_embed

# the snake route cuts Q_n into its four initial subcubes of codimension 2
SPLIT_CODIM = 2


@dataclass(frozen=True)
class SolverParams:
    """Everything the end-to-end search needs besides the graph.

    ``epsilon`` sets the order requirement (1+epsilon) * 2^(n+1);
    ``gamma`` and ``schedule`` drive the dense route.
    """

    epsilon: Fraction
    gamma: Fraction
    schedule: ThresholdSchedule
    decomp: DecompositionParams

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 < self.gamma < 1:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")

    @classmethod
    def desk(cls, n: int) -> "SolverParams":
        """Constants tuned for dimensions reachable on one machine."""
        # every threshold is at least 1, so no schedule serves n = 1
        if n < 2:
            raise ValueError(f"the dense route's b_last + 1 <= n needs n >= 2, got {n}")
        if n >= 5:
            b = (2, 3, 4)
        else:
            b = {2: (1, 1, 1), 3: (1, 1, 2), 4: (1, 2, 3)}[n]
        schedule = ThresholdSchedule(b)
        return cls(
            epsilon=Fraction(1, 4),
            gamma=Fraction(1, 4),
            schedule=schedule,
            decomp=DecompositionParams.desk(n),
        )


def choose_case(dec: Decomposition) -> int:
    """1 when the sparse mask covers at least half the graph, else 2."""
    return 1 if 2 * dec.sparse_mask.bit_count() >= dec.n_vertices else 2


def assign_subcubes(n: int, snake_sizes: list[int]) -> list[list[InitialSubcube]]:
    """First-fit the four initial subcubes of codimension ``SPLIT_CODIM``
    = 2, prefixes 00, 01, 10, 11, onto the snakes.

    Snake j may take floor(|S_j| / 2^(n - 2)) - 1 pieces; each piece, in
    increasing prefix order, goes to the first snake with room.  If the
    capacities cannot cover all four pieces the split fails with the
    deficit.  An n below 2 has no such pieces and raises ValueError.
    """
    cells = partition_complement([], n, SPLIT_CODIM)
    piece = 1 << (n - SPLIT_CODIM)
    caps = [size // piece - 1 for size in snake_sizes]
    total = sum(caps)
    if total < len(cells):
        raise StageFailure(
            "subcube-assignment",
            f"snakes can host {total} of the {len(cells)} cube pieces",
            data={"capacities": caps, "pieces": len(cells),
                  "deficit": len(cells) - total},
        )
    out: list[list[InitialSubcube]] = [[] for _ in snake_sizes]
    j = 0
    for cell in cells:
        while len(out[j]) >= max(caps[j], 0):
            j += 1
        out[j].append(cell)
    return out


def _solve_dense(
    G: ColouredGraph, n: int, params: SolverParams, dec: Decomposition
) -> dict[int, int]:
    C_mask = dec.sparse_mask
    # dense_embed refuses blue degrees above 2^(n - b_0); this cut is
    # stricter and drops every vertex whose blue degree in C reaches it
    cutoff = 1 << (n - params.schedule.b[0])
    # a vertex of whole blue degree below the cutoff stays below it in C
    drop = mask_of(
        v
        for v in iter_bits(G.blue_at_least(cutoff) & C_mask)
        if (G.blue[v] & C_mask).bit_count() >= cutoff
    )
    H, order = G.induced(bits_list(C_mask & ~drop))
    try:
        phi_h = dense_embed(H, n, params.gamma, params.schedule)
    except HypothesisError as e:
        if e.hypothesis != "order":
            raise
        # G itself qualified; the sparse part left too few vertices
        raise StageFailure(
            "dense-material",
            f"the dense route ran out of vertices: {e.details}",
            data={"hypothesis": e.hypothesis, "details": e.details},
        ) from e
    return {z: order[w] for z, w in phi_h.items()}


def _solve_snakes(G: ColouredGraph, n: int, dec: Decomposition) -> dict[int, int]:
    sizes = [sn.mask.bit_count() for sn in dec.snakes]
    assignment = assign_subcubes(n, sizes)
    phi: dict[int, int] = {}
    # later snakes first, so each piece only ever dodges neighbours that
    # are already pinned down
    for j in reversed(range(dec.r)):
        if not assignment[j]:
            continue
        snake = dec.snakes[j]
        Q = [v for cell in assignment[j] for v in subcube_vertices(cell, n)]
        in_Q = bytearray(1 << n)
        for x in Q:
            in_Q[x] = 1
        # a placed image forbids its blue neighbours in the snake to each
        # of its cube neighbours in Q; images without one forbid nothing
        forb: dict[int, int] = {}
        for y, img in phi.items():
            D = G.blue[img] & snake.mask
            if D:
                for p in range(n):
                    x = y ^ (1 << p)
                    if in_Q[x]:
                        forb[x] = forb.get(x, 0) | D
        phi.update(snake_embed(G, snake, Q, n, forbidden=forb))
    return phi


def solve(G: ColouredGraph, n: int, params: SolverParams) -> dict[int, int]:
    """Embed a red copy of Q_n, or fail with a stage diagnosis.

    The graph must be blue triangle free with at least
    ceil((1 + epsilon) * 2^(n+1)) vertices.  Neither route checks its own
    output; the assembled map is verified here, once, by
    ``verify_red_embedding``: every cube vertex mapped, injective, every
    cube edge red, including the edges between pieces walked into
    different snakes.
    """
    need = ceil((1 + params.epsilon) * (1 << (n + 1)))
    if G.n_vertices < need:
        raise HypothesisError(
            "order",
            f"graph has {G.n_vertices} vertices, needs "
            f"(1 + {params.epsilon}) * 2^{n + 1} = {need}",
        )
    ok, tri = is_blue_triangle_free(G)
    if not ok:
        raise HypothesisError(
            "triangle-free", f"blue triangle {tri}", witness=tri
        )

    dec = decompose(G, params.decomp)
    if choose_case(dec) == 1:
        phi = _solve_dense(G, n, params, dec)
    else:
        phi = _solve_snakes(G, n, dec)

    verdict = verify_red_embedding(G, n, phi)
    if not verdict:
        raise StageFailure(
            "final-verification",
            "the assembled embedding failed verification: "
            + "; ".join(verdict.errors[:5]),
            data={"errors": verdict.errors},
        )
    return phi
