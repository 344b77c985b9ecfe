"""Embedding cube pieces into chains of red cliques.

An (m, s)-snake is a family of pairwise-disjoint red m-cliques whose
link graph is connected, where two cliques are linked when a red
complete bipartite K_{s,s} runs between them.  A subset of the cube is
embedded by walking a spanning tree of the link graph: crossing a link
spends a small batch of consecutive cube vertices on the two witness
sides, and the stretches in between are poured into whichever clique the
walk currently occupies.  Bandwidth ordering keeps every cube edge
within one batch length, so each edge lands inside a clique or across a
witnessed pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .bits import iter_bits, mask_of
from .colored_graph import ColouredGraph, Verdict, first_fit
from .errors import StageFailure
from .hypercube import bandwidth_bound, bandwidth_order


@dataclass(frozen=True)
class LinkWitness:
    """A red K_{s,s} between cliques i and j, with i < j.

    ``X`` lies inside clique i and ``Y`` inside clique j; every cross
    pair must be red and both sides have exactly s vertices.
    """

    i: int
    j: int
    X: tuple[int, ...]
    Y: tuple[int, ...]

    def pair(self) -> tuple[int, int]:
        return (self.i, self.j)


@dataclass(frozen=True)
class Snake:
    """Disjoint red m-cliques with witnessed links forming a connected chain."""

    cliques: tuple[tuple[int, ...], ...]
    witnesses: tuple[LinkWitness, ...]
    s: int

    def __post_init__(self):
        object.__setattr__(
            self, "cliques", tuple(tuple(c) for c in self.cliques)
        )
        object.__setattr__(self, "witnesses", tuple(self.witnesses))

    @property
    def k(self) -> int:
        return len(self.cliques)

    @cached_property
    def clique_masks(self) -> tuple[int, ...]:
        """One vertex mask per clique, built on first use; a negative
        vertex raises ValueError, so check ``range_errors`` first."""
        return tuple(mask_of(c) for c in self.cliques)

    @cached_property
    def mask(self) -> int:
        """The mask of every vertex in some clique."""
        out = 0
        for cm in self.clique_masks:
            out |= cm
        return out


def link_tree(k: int, pairs: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    """The breadth-first spanning tree of the link graph on cliques
    0..k-1, rooted at clique 0 with children in ascending order: each
    clique that clique 0 reaches, mapped to its children."""
    nbr: dict[int, set[int]] = {i: set() for i in range(k)}
    for i, j in pairs:
        nbr[i].add(j)
        nbr[j].add(i)
    children: dict[int, list[int]] = {0: []}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in sorted(nbr[v]):
                if w not in children:
                    children[w] = []
                    children[v].append(w)
                    nxt.append(w)
        frontier = nxt
    return children


def range_errors(N: int, snake: Snake) -> list[str]:
    """One error per clique or witness side naming a vertex outside 0..N-1."""
    parts = [(f"clique {i}", c) for i, c in enumerate(snake.cliques)]
    for w in snake.witnesses:
        parts += [(f"witness ({w.i}, {w.j}) X side", w.X)]
        parts += [(f"witness ({w.i}, {w.j}) Y side", w.Y)]
    return [
        f"{p} mentions out-of-range vertices"
        for p, vs in parts
        if vs and (min(vs) < 0 or max(vs) >= N)
    ]


def pair_errors(snake: Snake) -> list[str]:
    """One error per witness pair outside 0 <= i < j < k, one for a repeat."""
    errors = [
        f"witness names bad clique pair ({w.i}, {w.j})"
        for w in snake.witnesses
        if not 0 <= w.i < w.j < snake.k
    ]
    if len({w.pair() for w in snake.witnesses}) != len(snake.witnesses):
        errors.append("duplicate witness for a clique pair")
    return errors


def validate_snake(G: ColouredGraph, snake: Snake) -> Verdict:
    """Check the snake's defining properties inside G.

    Cliques must be same-sized disjoint red cliques, every witness a red
    K_{s,s} between its two cliques, and the link graph connected; a
    vertex outside G or a bad or repeated witness pair (``range_errors``,
    ``pair_errors``) fails it first.  Cost: one mask per witness side
    (the snake's clique masks are built once and kept), and
    ``has_blue_into`` of each clique and witness X side: one N-bit AND
    per blue class in it, and none for a vertex without a blue
    neighbour, so the cliques of an all-red host read no blue mask.
    """
    errors = []
    if not snake.cliques:
        return Verdict(["a snake needs at least one clique"])
    if snake.s < 1:
        errors.append(f"link strength s must be positive, got {snake.s}")
    if bad := range_errors(G.n_vertices, snake) + pair_errors(snake):
        return Verdict(errors + bad)
    m = len(snake.cliques[0])
    masks = snake.clique_masks
    for idx, c in enumerate(snake.cliques):
        if len(c) != m:
            errors.append(f"clique {idx} has {len(c)} vertices, expected {m}")
        if masks[idx].bit_count() != len(c):
            errors.append(f"clique {idx} repeats a vertex")
        if G.has_blue_into(masks[idx], masks[idx]):
            errors.append(f"clique {idx} is not a red clique")
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if masks[i] & masks[j]:
                errors.append(f"cliques {i} and {j} share vertices")
    if errors:
        return Verdict(errors)

    for w in snake.witnesses:
        if len(w.X) != snake.s or len(w.Y) != snake.s:
            errors.append(
                f"witness ({w.i}, {w.j}) has sides of size "
                f"{len(w.X)}/{len(w.Y)}, expected {snake.s}"
            )
        mx, my = mask_of(w.X), mask_of(w.Y)
        if mx & ~masks[w.i] or len(set(w.X)) != len(w.X):
            errors.append(f"witness ({w.i}, {w.j}) X side not inside clique {w.i}")
        if my & ~masks[w.j] or len(set(w.Y)) != len(w.Y):
            errors.append(f"witness ({w.i}, {w.j}) Y side not inside clique {w.j}")
        if G.has_blue_into(mx, my):
            errors.append(
                f"witness ({w.i}, {w.j}) has a blue cross pair"
            )
    pairs = [w.pair() for w in snake.witnesses]
    if unreached := snake.k - len(link_tree(snake.k, pairs)):
        errors.append(f"link graph is disconnected: clique 0 does not reach "
                      f"{unreached} of the {snake.k} cliques")
    return Verdict(errors)


def closed_tree_walk(snake: Snake) -> tuple[int, ...]:
    """Double every edge of a breadth-first spanning tree of the links.

    Returns the clique index at each position of the walk.  The tree is
    rooted at clique 0 and children are visited in ascending order, so
    the walk has 2(k-1)+1 positions, starts and ends at the root, and is
    deterministic.
    """
    children = link_tree(snake.k, [w.pair() for w in snake.witnesses])
    if len(children) != snake.k:
        raise ValueError("the link graph is disconnected")

    # an explicit stack, so a deep tree cannot exhaust Python's recursion:
    # each entry is a clique and whether its children are still to visit
    positions: list[int] = []
    stack = [(0, True)]
    while stack:
        v, descend = stack.pop()
        positions.append(v)
        if descend:
            for c in reversed(children[v]):
                stack += [(v, False), (c, True)]
    return tuple(positions)


def snake_embed(
    G: ColouredGraph,
    snake: Snake,
    cube_vertices: Iterable[int],
    n: int,
    forbidden: Optional[dict[int, int]] = None,
) -> dict[int, int]:
    """Embed the given cube vertices into the snake along a tree walk.

    ``forbidden`` maps a cube vertex to a mask of graph vertices it must
    avoid.  Only what the walk needs is checked on entry: a snake vertex
    outside G, a witness pair outside 0 <= i < j < k or named twice
    (``range_errors``, ``pair_errors``), or a disconnected link graph
    raises ``ValueError``.  The snake is not validated: ``decompose``
    builds valid ones, and ``verify_decomposition`` validates a
    certificate's.  The images are distinct snake vertices outside their
    forbidden masks; that every cube edge lands on a red pair is checked
    once, by ``verify_red_embedding`` on the whole map at the end of
    ``solve``, as direct callers should.

    The walk runs a list of steps built from ``closed_tree_walk``: a
    free stretch inside the first clique, then for each crossing a -> b a
    departure batch on the link's witness side in a, an arrival batch on
    its side in b, and a free stretch inside b that keeps clear of the
    sides there still owed batches.  Batch length t is the larger of
    s // 4k and the bandwidth bound, so that a full batch always
    separates the zones of distinct cliques.

    Cost, beyond the range check, the tree walk and sorting the queue:
    one N-bit OR per forbidden mask and a walk over their union, which
    marks the vertices ``first_fit`` may find blocked; one sort per
    witness side crossed; per step, a walk of ``first_fit`` that looks up
    a cube vertex's forbidden mask only when it meets a marked vertex (a
    walk that meets none does no N-bit mask operation), and per stretch a
    pass over the clique's vertex list and its sides still owed batches.
    """
    if bad := range_errors(G.n_vertices, snake) + pair_errors(snake):
        raise ValueError("invalid snake: " + "; ".join(bad))
    queue = bandwidth_order(cube_vertices)
    if len(set(queue)) != len(queue):
        raise ValueError("cube vertices to embed must be distinct")
    if queue and (min(queue) < 0 or max(queue) >= 1 << n):
        raise ValueError("cube vertex out of range")
    forb = forbidden or {}
    delta = max((d.bit_count() for d in forb.values()), default=0)
    # the vertices some forbidden mask holds: only these can be blocked
    union = 0
    for d in forb.values():
        union |= d
    blockable = bytearray(G.n_vertices)
    for v in iter_bits(union & G.full_mask):
        blockable[v] = 1

    k, s = snake.k, snake.s
    t = max(s // (4 * k), bandwidth_bound(n))

    clique_lists = [sorted(c) for c in snake.cliques]
    witness_of = {w.pair(): w for w in snake.witnesses}

    # the steps: a stretch names its clique, a batch its witness side
    # (i, j, c), sorted once; each crossing of a link owes one batch on
    # each of its two sides
    positions = closed_tree_walk(snake)
    steps: list[tuple[int, Optional[tuple[int, int, int]]]] = [(0, None)]
    side_list: dict[tuple[int, int, int], list[int]] = {}
    owed: dict[tuple[int, int, int], int] = {}
    sides_in: dict[int, list[tuple[int, int, int]]] = {c: [] for c in range(k)}
    for a, b in zip(positions, positions[1:]):
        i, j = min(a, b), max(a, b)
        for c in (a, b):
            key = (i, j, c)
            if key not in side_list:
                w = witness_of[i, j]
                side_list[key] = sorted(w.X if c == i else w.Y)
                sides_in[c].append(key)
            owed[key] = owed.get(key, 0) + 1
            steps.append((c, key))
        steps.append((b, None))

    phi: dict[int, int] = {}
    taken = bytearray(G.n_vertices)
    qi = 0
    for c, key in steps:
        if qi >= len(queue):
            break
        if key is not None:
            free, end = side_list[key], qi + t
            owed[key] -= 1
        else:
            # free stretch: each side still owed batches keeps its lowest
            # `keep` free vertices, (t + delta) per batch owed.  This holds
            # for the whole stretch: `owed` is fixed, and a vertex the
            # stretch takes lies outside the side or above those `keep`
            # (the side then has more free ones): either way they stay
            reserved: set[int] = set()
            for side in sides_in[c]:
                if owed[side] > 0:
                    free_side = [v for v in side_list[side] if not taken[v]]
                    keep = (t + delta) * owed[side]
                    reserved.update(free_side[:keep])
            free = [v for v in clique_lists[c] if v not in reserved]
            end = len(queue)
        qi += first_fit(free, queue[qi:end], phi, taken, forb.get, blockable)

    if qi < len(queue):
        raise StageFailure(
            "snake-walk",
            f"walk exhausted with {len(queue) - qi} cube vertices left; "
            f"next is {queue[qi]}",
            data={"remaining": len(queue) - qi, "next": queue[qi]},
        )
    return phi
