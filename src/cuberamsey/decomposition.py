"""Partitioning a triangle-free-blue colouring into a sparse part and snakes.

The blue graph must be triangle free.  Round by round, a family of
disjoint red m-cliques is pulled out of the active set, taken until no
blue star of m is left in what remains of it, and a threshold s is
chosen inside a gap of the pair link weights, so that every pair is
either strongly linked (weight at least s) or clearly not (weight below
s divided by lambda).  A weight is the side of a balanced red biclique
that two prefix walks find, recorded as min(w, s): a linked pair is
proved by its red K_{s,s} witness, and an unlinked weight is only a
lower bound on the largest such biclique.  The component of the first
clique becomes a snake and leaves the active set, together with the
vertices blue-attached to it.  The one consequence of the gap that later
stages read, that no attached vertex is also attached to a clique
outside the snake, is checked vertex by vertex.
What survives every round is sparse in blue, and that is the point of
the whole exercise.

The certificate stores each round and nothing else: its cliques, pair
weights, s, the witnesses of its snake's links and the vertices it
attached.  The snakes, the sparse set and the s values are read off the
rounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import ceil, comb

from .bits import bit, bits_list, iter_bits, mask_of
from .colored_graph import (
    ColouredGraph,
    Verdict,
    max_balanced_biclique,
    max_disjoint_red_cliques,
)
from .errors import StageFailure
from .rational import as_fraction
from .snake_embedding import LinkWitness, Snake, link_components
from .snake_embedding import range_errors, validate_snake


@dataclass(frozen=True)
class DecompositionParams:
    """Clique size, threshold window, and the two slack ratios.

    ``lam`` widens the gap interval below each candidate threshold and
    ``mu`` caps how blue the surviving active set may look towards a
    freshly removed snake.
    """

    m: int
    s_lo: int
    s_hi: int
    lam: Fraction
    mu: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", as_fraction(self.lam))
        object.__setattr__(self, "mu", as_fraction(self.mu))
        if self.m < 1:
            raise ValueError(f"clique size must be positive, got {self.m}")
        if not 1 <= self.s_lo <= self.s_hi:
            raise ValueError(
                f"need 1 <= s_lo <= s_hi, got {self.s_lo}, {self.s_hi}"
            )
        if self.lam <= 1:
            raise ValueError(f"lambda must exceed 1, got {self.lam}")
        if self.mu < 1:
            raise ValueError(f"mu must be at least 1, got {self.mu}")

    @classmethod
    def desk(cls, n: int) -> "DecompositionParams":
        """Hand-tuned constants that behave at small n.

        The clique size 2^(n+1) makes a graph on 2^(n+2) vertices resolve
        into at most two cliques, so a round weighs at most one clique
        pair on the instance families this package ships.  The paper's
        own choices (m = 2^(n-d) with d about log log log n, s between
        2^n / n^(1/3) and 2^n / n^(1/4)) satisfy the snake walk's
        worst-case conditions only beyond n of about 1660, so they are
        not offered.
        """
        if n < 1:
            raise ValueError("dimension must be positive")
        return cls(
            m=1 << (n + 1),
            s_lo=2 * comb(n, n // 2),
            s_hi=1 << (n + 1),
            lam=Fraction(2),
            mu=Fraction(2),
        )


def select_gap_threshold(weights, params: DecompositionParams) -> int:
    """The smallest geometric grid point whose gap interval is weight-free.

    Grid points are ceil(s_lo * lam^i) for i = 0, 1, ...; a point x
    qualifies when no weight lies in [x/lam, x).  Comparisons are exact:
    the interval test is lam*w >= x and w < x.
    """
    ws = sorted(set(int(w) for w in weights))
    lam = params.lam
    grid = []
    i = 0
    while True:
        x = ceil(params.s_lo * lam**i)
        if x > params.s_hi:
            break
        if not grid or x > grid[-1]:
            grid.append(x)
        i += 1
    for x in grid:
        if not any(w < x and lam * w >= x for w in ws):
            return x
    raise StageFailure(
        "gap-selection",
        f"every grid point in [{params.s_lo}, {params.s_hi}] has a weight "
        f"in its gap interval",
        data={"weights": ws, "grid": grid},
    )


def _snake_component(k: int, weights, s: int) -> tuple[int, ...]:
    """A round's snake among its k cliques: the link component of clique
    0, sorted, where the pairs (i, j, w) of weight w >= s are linked."""
    linked = [(i, j) for i, j, w in weights if w >= s]
    return tuple(sorted(link_components(k, linked)[0]))


@dataclass(frozen=True)
class RoundRecord:
    """One removal round: its red cliques, the weight min(w, s) of every
    clique pair, the threshold s, a red K_{s,s} witness per linked pair
    (indices into the round's snake), and the vertices attached to the
    snake."""

    cliques: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[int, int, int], ...]
    s: int
    witnesses: tuple[LinkWitness, ...]
    sparse_added: tuple[int, ...]

    @cached_property
    def snake_indices(self) -> tuple[int, ...]:
        return _snake_component(len(self.cliques), self.weights, self.s)


@dataclass(frozen=True)
class Decomposition:
    """The rounds of a partition into a sparse set C and snakes S_1..S_r.

    Only the rounds are stored.  Snake i is read off round i (its
    snake's cliques, witnesses and s), and C is every vertex in no snake.
    """

    n_vertices: int
    params: DecompositionParams
    rounds: tuple[RoundRecord, ...]

    @cached_property
    def snakes(self) -> tuple[Snake, ...]:
        return tuple(
            Snake(tuple(r.cliques[c] for c in r.snake_indices), r.witnesses, r.s)
            for r in self.rounds
        )

    @cached_property
    def s_values(self) -> tuple[int, ...]:
        return tuple(r.s for r in self.rounds)

    @property
    def r(self) -> int:
        return len(self.rounds)

    @cached_property
    def sparse_mask(self) -> int:
        covered = 0
        for sn in self.snakes:
            for c in sn.cliques:
                covered |= mask_of(c)
        return ((1 << self.n_vertices) - 1) & ~covered

    @cached_property
    def sparse(self) -> tuple[int, ...]:
        return tuple(bits_list(self.sparse_mask))

    def to_json(self) -> str:
        # json writes a tuple as an array
        p = self.params
        return json.dumps({
            "n_vertices": self.n_vertices,
            "params": {
                "m": p.m,
                "s_lo": p.s_lo,
                "s_hi": p.s_hi,
                "lam": [p.lam.numerator, p.lam.denominator],
                "mu": [p.mu.numerator, p.mu.denominator],
            },
            "rounds": [
                {
                    "cliques": r.cliques,
                    "weights": r.weights,
                    "s": r.s,
                    "witnesses": [
                        {"i": w.i, "j": w.j, "X": w.X, "Y": w.Y}
                        for w in r.witnesses
                    ],
                    "sparse_added": r.sparse_added,
                }
                for r in self.rounds
            ],
        })

    @classmethod
    def from_json(cls, text: str) -> "Decomposition":
        data = json.loads(text)
        p = data["params"]
        params = DecompositionParams(
            m=p["m"],
            s_lo=p["s_lo"],
            s_hi=p["s_hi"],
            lam=Fraction(*p["lam"]),
            mu=Fraction(*p["mu"]),
        )
        rounds = tuple(
            RoundRecord(
                cliques=tuple(tuple(c) for c in r["cliques"]),
                weights=tuple(tuple(w) for w in r["weights"]),
                s=r["s"],
                witnesses=tuple(
                    LinkWitness(w["i"], w["j"], tuple(w["X"]), tuple(w["Y"]))
                    for w in r["witnesses"]
                ),
                sparse_added=tuple(r["sparse_added"]),
            )
            for r in data["rounds"]
        )
        return cls(data["n_vertices"], params, rounds)


def _pair_weights(
    G: ColouredGraph,
    cliques: list[tuple[int, ...]],
    cap: int,
    memo: dict,
) -> dict[tuple[int, int], tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Balanced biclique weights min(w, cap), with red witnesses of that
    size, for every clique pair.  The memo keeps the cap each pair was
    walked at: a weight below it is final, since a larger cap returns the
    same one, while one at it may grow, so a larger cap walks the pair
    again.
    """
    out = {}
    for i in range(len(cliques)):
        for j in range(i + 1, len(cliques)):
            key = (cliques[i], cliques[j])
            got = memo.get(key)
            if got is None or got[1][0] == got[0] < cap:
                got = memo[key] = (cap, max_balanced_biclique(G, *key, cap))
            w, X, Y = got[1]
            out[(i, j)] = (min(w, cap), X[:cap], Y[:cap])
    return out


def decompose(G: ColouredGraph, params: DecompositionParams) -> Decomposition:
    """Strip snakes off the graph until a round finds no red m-clique.

    The blue graph must be triangle free (``solve`` checks it first):
    each round's clique family stops once no vertex has m blue neighbours
    in what it leaves, and only on such a graph does that make every blue
    degree inside the final sparse remainder fall below m.

    Each round removes the snake through the first extracted clique and
    the vertices blue-attached to any of its cliques beyond s/lambda.
    Three conditions are enforced as the rounds go: surviving active
    vertices have blue degree at most s/mu into the removed snake, each
    removed attached vertex keeps blue degree at most 2m into what
    survives, and none is attached to a clique outside the snake.
    Violations are structured failures, not silent repairs.
    The snakes are not validated here: ``snake_embed`` validates each one
    it walks and ``verify_decomposition`` re-checks the certificate.
    """
    A = G.full_mask
    rounds: list[RoundRecord] = []
    memo: dict = {}
    # lam * d >= s and mu * d > s, cross-multiplied into integers
    lam_num, lam_den = params.lam.numerator, params.lam.denominator
    mu_num, mu_den = params.mu.numerator, params.mu.denominator
    # a blue degree into a set is at most the whole blue degree, so each
    # degree test below walks only the vertices whose whole degree passes
    above_2m = G.blue_at_least(2 * params.m + 1)

    for round_index in range(1, G.n_vertices + 2):
        cliques = max_disjoint_red_cliques(G, A, params.m)
        if not cliques:
            break
        # clip weights at the grid point under test: those below it are
        # final, settle every point up to it and lie in no later gap, so
        # the selection returns the cap or the next grid point to try
        cap = params.s_lo
        while True:
            weights = _pair_weights(G, cliques, cap, memo)
            ws = [w for w, _, _ in weights.values()]
            try:
                s = select_gap_threshold([w for w in ws if w < cap], params)
            except StageFailure as e:
                e.data.update(weights=sorted(set(ws)), cap=cap)
                raise
            if s <= cap:
                break
            cap = s
        # _pair_weights yields the pairs in sorted order
        recorded = tuple((i, j, w) for (i, j), (w, _, _) in weights.items())
        comp = _snake_component(len(cliques), recorded, s)
        pos = {ci: idx for idx, ci in enumerate(comp)}
        # comp is sorted, so pos keeps the order of each linked pair
        witnesses = tuple(
            LinkWitness(pos[i], pos[j], X, Y)
            for (i, j), (w, X, Y) in weights.items()
            if w >= s and i in pos
        )

        clique_masks = [mask_of(c) for c in cliques]
        S_mask = sum(clique_masks[ci] for ci in comp)  # disjoint cliques
        # the degree masks are needed only when the snake leaves some
        # vertex active; lam * d >= s and mu * d > s hold from these degrees
        rest = A & ~S_mask
        sparse_new = lam_heavy = mu_heavy = 0
        if rest:
            lam_heavy = G.blue_at_least(-(-s * lam_den // lam_num))
            mu_heavy = G.blue_at_least(s * mu_den // mu_num + 1)
        for v in iter_bits(rest & lam_heavy):
            for ci in comp:
                d = (G.blue[v] & clique_masks[ci]).bit_count()
                if lam_num * d >= s * lam_den:
                    sparse_new |= bit(v)
                    break
        A_next = rest & ~sparse_new

        for v in iter_bits(A_next & mu_heavy):
            d = (G.blue[v] & S_mask).bit_count()
            if mu_num * d > s * mu_den:
                raise StageFailure(
                    "residual-attachment",
                    f"vertex {v} keeps blue degree {d} into the removed "
                    f"snake, above s/mu = {Fraction(s) / params.mu}",
                    data={"round": round_index, "vertex": v, "degree": d},
                )
        within = A_next | sparse_new
        for v in iter_bits(sparse_new & above_2m):
            d = (G.blue[v] & within).bit_count()
            if d > 2 * params.m:
                raise StageFailure(
                    "sparse-attachment",
                    f"attached vertex {v} keeps blue degree {d} into the "
                    f"surviving vertices, above 2m = {2 * params.m}",
                    data={"round": round_index, "vertex": v, "degree": d},
                )
        # a vertex attached to the snake and to an outside clique has blue
        # stars in both, a red biclique of side at least s/lambda between
        # the two cliques; the gap puts that pair's weight below s/lambda,
        # but a recorded weight below s is only a lower bound
        out = [ci for ci in range(len(cliques)) if ci not in pos]
        for v in iter_bits(sparse_new):
            for ci in out:
                d = (G.blue[v] & clique_masks[ci]).bit_count()
                if lam_num * d >= s * lam_den:
                    raise StageFailure(
                        "outside-attachment",
                        f"attached vertex {v} has blue degree {d} into "
                        f"clique {ci}, outside the snake, at least "
                        f"s/lambda = {Fraction(s) / params.lam}",
                        data={"round": round_index, "vertex": v,
                              "clique": ci, "degree": d},
                    )

        rounds.append(RoundRecord(
            tuple(cliques), recorded, s, witnesses, tuple(bits_list(sparse_new))
        ))
        A = A_next
    else:
        raise AssertionError("decomposition failed to terminate")

    # the last clique family came back empty, which on a triangle-free
    # graph means no blue star of m is left: blue degrees inside the
    # remainder stay below m
    for v in iter_bits(G.blue_at_least(params.m)):
        d = (G.blue[v] & A).bit_count()
        if d >= params.m:
            raise AssertionError(
                f"vertex {v} keeps {d} blue neighbours in the sparse "
                f"remainder, not below m = {params.m}"
            )
    return Decomposition(G.n_vertices, params, tuple(rounds))


def verify_decomposition(G: ColouredGraph, dec: Decomposition) -> Verdict:
    """Re-check a decomposition from scratch against its graph.

    Each round must record one weight (not re-searched) per pair of its
    cliques, none above s, with s the first grid point whose gap is
    weight-free.  Its snake, the link component of clique 0, must
    validate with the round's witnesses; snakes must be disjoint, and
    vertices of later snakes only weakly blue-attached to every earlier
    snake.  Blue inside the sparse set, the vertices in no snake, must
    stay under 2m edges per vertex on average.  A round that lacks a
    weight for some clique pair, or a snake vertex outside G, fails the
    certificate before any other test.
    """
    errors = []
    if dec.n_vertices != G.n_vertices:
        errors.append(
            f"the certificate is for {dec.n_vertices} vertices, not {G.n_vertices}"
        )
    for i, rec in enumerate(dec.rounds):
        k = len(rec.cliques)
        pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
        if k == 0 or sorted(tuple(w[:2]) for w in rec.weights) != pairs:
            errors.append(f"round {i} does not record one weight per clique pair")
    if errors:
        return Verdict.failure(*errors)
    for i, sn in enumerate(dec.snakes):
        errors += [f"snake {i} invalid: {e}" for e in range_errors(G.n_vertices, sn)]
    if errors:
        return Verdict.failure(*errors)
    masks = [mask_of(sn.vertex_set()) for sn in dec.snakes]
    total = 0
    for i, m in enumerate(masks):
        if total & m:
            errors.append(f"snake {i} overlaps earlier snakes")
        total |= m

    # C as one digit per vertex, where a vertex of blue degree 1 looks its
    # one neighbour up instead of paying an N-bit AND
    cm = dec.sparse_mask
    in_c, deg, blue = f"{cm:0{G.n_vertices}b}"[::-1], G.blue_degrees(), G.blue
    blue_inside = sum(
        in_c[blue[v].bit_length() - 1] == "1" if deg[v] == 1
        else (blue[v] & cm).bit_count()
        for v in iter_bits(cm & G.blue_at_least(1))
    ) // 2
    bound = 2 * dec.params.m * cm.bit_count()
    if blue_inside > bound:
        errors.append(f"sparse set has {blue_inside} blue edges, above 2m|C| = {bound}")

    for i, sn in enumerate(dec.snakes):
        check = validate_snake(G, sn)
        if not check:
            errors.append(f"snake {i} invalid: " + "; ".join(check.errors))

    for i, rec in enumerate(dec.rounds):
        ws = [w for _, _, w in rec.weights]
        try:
            chosen = select_gap_threshold(ws, dec.params)
        except StageFailure:
            chosen = None
        if chosen != rec.s or max(ws, default=0) > rec.s:
            errors.append(f"round {i} records s={rec.s} against its weights {ws}")

    for i, si in enumerate(dec.s_values):
        for j in range(i + 1, dec.r):
            for v in sorted(dec.snakes[j].vertex_set()):
                d = (G.blue[v] & masks[i]).bit_count()
                if dec.params.mu * d > si:
                    errors.append(
                        f"vertex {v} of snake {j} has blue degree {d} "
                        f"into snake {i}, above s_i/mu"
                    )
    return Verdict(not errors, errors)
