"""Exhaustive ground truth for small cases.

Nothing here scales; everything here is trusted.  A first-fit walk, then
a depth-first search, finds red cubes in arbitrary colourings, and one
sweep decides every 2-colouring of a small complete graph: it runs over
canonical triangle-free blue graphs only, one per isomorphism class, and
grows only the classes with no red Q_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import inf
from typing import Iterator, Optional, Sequence

from .bits import bit, bits_list, iter_bits
from .colored_graph import (
    ColouredGraph,
    first_fit,
    placed_blue,
    red_components,
    two_clique_coloring,
)
from .hypercube import bandwidth_order

# unlabeled triangle-free graphs on 1..9 vertices; generation is checked
# against these before its output is trusted
TRIANGLE_FREE_GRAPH_COUNTS = (1, 2, 3, 7, 14, 38, 107, 410, 1897)

# canonical triangle-free classes on 1, 2, ... vertices with no red Q_n,
# up to the first empty level; the cube-free levels are checked against
# these as they are built
CUBE_FREE_CLASS_COUNTS = {
    1: (1, 1, 0),
    2: (1, 2, 3, 4, 4, 2, 0),
    3: (1, 2, 3, 7, 14, 38, 107, 192, 277, 302, 263, 164, 56, 15, 0),
}


@dataclass(frozen=True)
class CubeSearchResult:
    """A red cube's map, or None when there is none, and the search's
    placements; ``found`` is derived from the map."""

    embedding: Optional[dict[int, int]]
    nodes: int

    @property
    def found(self) -> bool:
        return self.embedding is not None


def _red_core(G: ColouredGraph, pool: int, k: int) -> int:
    """The red k-core of the pool: what is left after repeatedly dropping
    vertices with fewer than k red neighbours in what is left."""
    while True:
        low = 0
        for v in iter_bits(pool):
            if (G.red_mask(v) & pool).bit_count() < k:
                low |= bit(v)
        if not low:
            return pool
        pool &= ~low


def _min_red_cut(G: ColouredGraph, pool: int) -> tuple[int, int]:
    """A global minimum cut of the red graph induced on the pool, by
    Stoer and Wagner (J. ACM 1997): returns the number of red edges
    across it and one side as a mask.

    Each phase adds groups of vertices in maximum-adjacency order; the
    last two are merged, and the last one's edges to everything else are
    a cut.  k vertices cost k - 1 phases of O(k^2) each.  A pool of one
    vertex has no cut; its weight is reported as infinite.
    """
    verts = bits_list(pool)
    k = len(verts)
    # edge counts between groups; group i starts as the single vertex verts[i]
    W = [[(G.red_mask(u) >> v) & 1 for v in verts] for u in verts]
    groups = [bit(v) for v in verts]
    alive = list(range(k))
    best = (inf, 0)
    while len(alive) > 1:
        w = [0] * k
        last, rest = alive[0], alive[1:]
        while rest:
            row = W[last]
            for x in rest:
                w[x] += row[x]
            prev, last = last, max(rest, key=w.__getitem__)
            rest.remove(last)
        if w[last] < best[0]:
            best = (w[last], groups[last])
        groups[prev] |= groups[last]
        row_p, row_l = W[prev], W[last]
        for x in alive:
            row_p[x] += row_l[x]
            W[x][prev] = row_p[x]
        alive.remove(last)
    return best


def _cube_pieces(G: ColouredGraph, pool: int, n: int) -> list[int]:
    """Disjoint red pieces of the pool, each holding any red Q_n that
    lies in the pool.

    Q_n has minimum degree n and is n-edge-connected.  So its image lies
    in the red n-core, inside one component of it, and on one side of
    any red cut of fewer than n edges.  Components are split at their
    minimum cut while that cut is below n; what stays is n-edge-connected.
    """
    size = 1 << n
    pieces = []
    todo = [pool]
    while todo:
        for comp in red_components(G, _red_core(G, todo.pop(), n)):
            if comp.bit_count() < size:
                continue
            cut, side = _min_red_cut(G, comp)
            if cut < n:
                todo += [side, comp & ~side]
            else:
                pieces.append(comp)
    return pieces


def contains_red_cube(G: ColouredGraph, n: int) -> CubeSearchResult:
    """Exhaustive search for a red copy of Q_n in G.

    Cube vertices are tried in bandwidth order, candidates are the
    intersection of the red masks of already-placed neighbours, lowest
    first.  That first path is walked on its own first (``first_fit``
    over all of G): if it places all 2^n cube vertices, its map is the
    answer and ``nodes`` is 2^n.  Otherwise the search runs as if no walk
    had been made, and ``nodes`` counts its placements only.  The search
    is confined to pieces that can hold a cube: each red component of at
    least 2^n vertices is peeled to its red n-core and split at red cuts
    of fewer than n edges by recursive Stoer-Wagner minimum cut (see
    ``_cube_pieces``), O(k^3) for a piece of k vertices; a bridged pair of
    red cliques splits at once, with no placement.  The first cube vertex
    still runs over the component in increasing order and the rest stay
    in its piece, so the embedding found is the unconfined search's; a
    walked cube holds vertex 0 and lies in one piece, so the walk's map
    is that too.  The cost remains exponential in 2^n; meant for graphs
    of a few dozen vertices.  A graph smaller than the cube contains none.
    """
    size, N = 1 << n, G.n_vertices
    if N < size:
        return CubeSearchResult(None, 0)
    order = _cube_order(n)[0]
    image = [-1] * size
    blocked_of = placed_blue(G, n, image)
    walked = first_fit(list(range(N)), order, image, bytearray(N), blocked_of, G.blue)
    if walked == size:
        return CubeSearchResult({z: image[z] for z in order}, size)
    nodes = 0
    for comp in red_components(G):
        if comp.bit_count() < size:
            continue
        piece_of = {v: p for p in _cube_pieces(G, comp, n) for v in iter_bits(p)}
        res = _cube_dfs(G, n, piece_of)
        nodes += res.nodes
        if res.found:
            return CubeSearchResult(res.embedding, nodes)
    return CubeSearchResult(None, nodes)


@cache
def _cube_order(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The cube vertices in bandwidth order, and for each position the
    positions of its cube neighbours placed before it; built once per n,
    and immutable, since every search shares them."""
    order = tuple(bandwidth_order(range(1 << n)))
    pos = {z: i for i, z in enumerate(order)}
    nbrs_before = tuple(
        tuple(pos[z ^ (1 << p)] for p in range(n) if pos[z ^ (1 << p)] < i)
        for i, z in enumerate(order)
    )
    return order, nbrs_before


def _cube_dfs(G: ColouredGraph, n: int, piece_of: dict[int, int]) -> CubeSearchResult:
    """Depth-first search for a red Q_n whose first cube vertex in
    bandwidth order (vertex 0) maps to a key of ``piece_of``, the keys
    tried in increasing order, and whose other vertices lie in that key's
    piece.  Candidates at each depth are the piece's unused vertices red
    to every placed cube neighbour, lowest first; ``nodes`` counts the
    placements.  A key whose search has failed lies on no red Q_n of its
    piece (Q_n is vertex transitive, and a cube lies in one piece), so it
    leaves the candidates of every later key: the embedding found is
    the same, with fewer placements."""
    size = 1 << n
    order, nbrs_before = _cube_order(n)
    assigned = [0] * size
    nodes = 0
    # depth first, one iterator per depth over the candidates not yet
    # tried; used holds the images placed at the depths below the top,
    # dead the keys whose search has failed
    stack, used, dead = [iter(sorted(piece_of))], 0, 0
    while stack:
        i = len(stack) - 1
        v = next(stack[i], None)
        if v is None:
            stack.pop()
            if i:
                used &= ~bit(assigned[i - 1])
            if i == 1:
                dead |= bit(assigned[0])
            continue
        nodes += 1
        assigned[i] = v
        if i + 1 == size:
            return CubeSearchResult({order[k]: assigned[k] for k in range(size)}, nodes)
        used |= bit(v)
        avail = piece_of[assigned[0]] & ~(used | dead)
        for j in nbrs_before[i + 1]:
            avail &= G.red_mask(assigned[j])
        stack.append(iter_bits(avail))
    return CubeSearchResult(None, nodes)


@dataclass(frozen=True)
class RamseyVerdict:
    """Outcome of an exhaustive sweep at one graph size.

    ``witness`` is a colouring of K_N with neither a blue triangle nor a
    red n-cube, or None; ``holds``, that every colouring has one or the
    other, is derived: it means there is no witness.  ``checked`` counts
    the canonical children that the sweep tested for a red Q_n on the
    levels 2^n..N, up to the first empty one (0 when N <= 2^(n+1) - 2:
    the answer is built, and nothing is tested).
    """

    n: int
    N: int
    witness: Optional[ColouredGraph]
    checked: int

    @property
    def holds(self) -> bool:
        return self.witness is None


def _independent_sets(adj) -> list[int]:
    """The blue-independent sets of the masks adj, in build order."""
    sets = [0]
    for u, a in enumerate(adj):
        sets += [S | 1 << u for S in sets if not a & S]
    return sets


def _column(row: int, t: int) -> int:
    """Vertex t's adjacency column towards smaller labels: the bits of
    its row below t, as an int with vertex 0 most significant."""
    return int(f"{row & ((1 << t) - 1):0{t}b}"[::-1], 2)


def _tied_nodes(
    adj: Sequence[int], cols: list[int], starts: list[tuple]
) -> Iterator[Optional[tuple]]:
    """Yield each node of the walk over the relabelings whose code ties
    this labeling's so far; at the first relabeling found smaller, yield
    None and stop: this labeling is not least, and ``all`` reads False.

    The code lists, vertex by vertex, each vertex's adjacency column
    towards smaller labels (``_column``); lexicographic order of codes
    is then int order column by column.  ``cols`` holds every vertex's
    column, ``starts`` the nodes to walk from, each (t, cells, free): t
    placed vertices as ordered cells, and the unused ones.  A whole walk
    starts at (a0, [(I, a0)], the rest) for every independent set I of
    a0 vertices, a0 the first vertex with a nonzero column (v if none).
    The walk goes not one order at a time but by ordered cells of the
    chosen prefix.  The invariant: the prefix orders that tie every
    column so far are exactly those that keep the cells in sequence and
    order each cell's members freely.

    The columns are zero up to a0, so the first cell is any independent
    set of a0 vertices, each met once rather than in its a0! orders.  A
    free vertex then gets its least column over all in-cell orders,
    (col << size) | (2^k - 1) per cell of which it sees k members: its
    neighbours come last in each cell.  Below the target, that in-cell
    order is a real smaller relabeling, and the walk stops.  Equal to
    the target, the orders reaching it are exactly those that put the
    vertex's non-neighbours before its neighbours in each cell; so each
    cell splits in those two (``_split``), the vertex follows as a cell
    of its own, and the invariant holds one depth on.  Every smaller
    relabeling first beats the code at some column, with all earlier
    columns tied, so it is met along its own cells: the verdict is that
    of the walk over every relabeling.
    """
    todo = list(starts)
    while todo:
        t, cells, free = node = todo.pop()
        yield node
        for x in iter_bits(free):
            row = adj[x]
            col = _least_column(row, cells)
            if col < cols[t]:
                yield None
                return
            if col == cols[t]:
                todo.append((t + 1, _split(cells, row, x), free & ~(1 << x)))


def _least_column(row: int, cells: list[tuple[int, int]]) -> int:
    """The least column of a vertex with neighbours ``row`` over every
    in-cell order of the prefix: its neighbours last in each cell."""
    col = 0
    for c, size in cells:
        col = (col << size) | ((1 << (row & c).bit_count()) - 1)
    return col


def _split(cells: list[tuple[int, int]], row: int, x: int) -> list[tuple[int, int]]:
    """The cells after placing x, whose neighbours are ``row``: each cell
    split into x's non-neighbours, then its neighbours, then x alone."""
    split = []
    for c, size in cells:
        hi = row & c
        if hi and hi != c:
            k = hi.bit_count()
            split += [(c & ~row, size - k), (hi, k)]
        else:
            split.append((c, size))
    split.append((1 << x, 1))
    return split


def _child_is_canonical(
    adj: tuple[int, ...], cols: list[int], by_size: list[list[int]], S: int
) -> Optional[tuple[int, ...]]:
    """The canonical parent ``adj`` on v - 1 vertices plus vertex v - 1
    attached to its independent set S, if that child is canonical, else
    None.  The parent hands in its columns and its independent sets by
    size, which give the child's own first cells: with a0 the child's
    first vertex with a nonzero column, its independent sets of a0
    vertices are the parent's, and v - 1 with each parent set of a0 - 1
    vertices that misses S.  The child is walked once from all of them
    (``_tied_nodes``).
    """
    v = len(adj) + 1
    new = 1 << (v - 1)
    cols = cols + [_column(S, v - 1)]
    a0 = next((t for t, c in enumerate(cols) if c), v)
    starts = [(a0, [(I, a0)], (1 << v) - 1 & ~I) for I in by_size[a0]]
    starts += [(a0, [(J | new, a0)], new - 1 & ~J) for J in by_size[a0 - 1] if not J & S]
    child = tuple(a | (S >> u & 1) << (v - 1) for u, a in enumerate(adj)) + (S,)
    return child if all(_tied_nodes(child, cols, starts)) else None


def canonical_triangle_free_graphs(N: int) -> list[list[int]]:
    """All triangle-free blue graphs on N vertices, one per isomorphism
    class, as adjacency mask lists in canonical labeling.

    Grown one vertex at a time: the new vertex is attached to an
    independent set (anything else closes a triangle) and the result is
    kept only when canonically labeled.  Dropping the last vertex of a
    canonical graph is canonical, so every class is reached exactly once.
    Each level's class count is checked against
    ``TRIANGLE_FREE_GRAPH_COUNTS`` as the level is built, and N beyond
    the table is refused.

    Each level is generated once per process and kept for its life
    (under 1 MB for all levels up to N = 9); every call returns fresh
    lists.  The first call costs 0.04-0.07 s at N = 8 and 0.20-0.37 s
    at N = 9 on 2 cores (Python 3.11, 22 fresh processes each); a later
    call at that N or below only copies.
    """
    if N < 1:
        raise ValueError("graph size must be positive")
    top = len(TRIANGLE_FREE_GRAPH_COUNTS)
    if N > top:
        raise ValueError(
            f"canonical enumeration is tabulated only to N = {top} "
            f"({TRIANGLE_FREE_GRAPH_COUNTS[-1]} classes); N = {N} would "
            f"need an unverified count"
        )
    return [list(adj) for adj in _canonical_level(N)]


@cache
def _canonical_level(v: int) -> tuple[tuple[int, ...], ...]:
    """The canonical classes on v vertices, in the order of
    ``_canonical_children``.  The class count is checked against the
    table by a raise that ``python -O`` keeps, so a level is trusted only
    once it matches.  Levels are immutable, so the cache cannot be
    changed through the lists handed out."""
    nxt = ((0,),) if v == 1 else tuple(_canonical_children(_canonical_level(v - 1), v))
    expected = TRIANGLE_FREE_GRAPH_COUNTS[v - 1]
    if len(nxt) != expected:
        raise AssertionError(
            f"generated {len(nxt)} classes at N={v}, expected {expected}"
        )
    return nxt


def _canonical_children(
    parents: Sequence[tuple[int, ...]], v: int
) -> Iterator[tuple[int, ...]]:
    """The canonical children on v vertices of the canonical ``parents``
    on v - 1: each parent plus vertex v - 1 attached to an independent
    set S of it, yielded in the order of the parents and then of S.

    A parent pays once for what its children share.  Its columns are the
    child's first v - 1 (a column reads only smaller labels), so the walk
    gets them with the child's last one added.  Its independent sets are
    the child's candidates S, and they give the child's first cells
    (``_child_is_canonical``).

    A child whose last column L = ``last[S]`` is below the parent's
    ``floor`` is rejected unwalked: moving v - 1 to place p < v - 1, and
    the vertices from p on one place up, keeps columns 0..p-1 and makes
    column p the first p bits of L, L >> (v - 1 - p).  That is below
    cols[p] exactly when L < cols[p] << (v - 1 - p); the floor is the
    largest of these.
    """
    last = [_column(S, v - 1) for S in range(1 << (v - 1))]
    for adj in parents:
        cols = [_column(a, t) for t, a in enumerate(adj)]
        sets = sorted(_independent_sets(adj))
        by_size: list[list[int]] = [[] for _ in range(v + 1)]
        for I in sets:
            by_size[I.bit_count()].append(I)
        floor = max(c << (v - 1 - p) for p, c in enumerate(cols))
        for S in sets:
            if last[S] < floor:
                continue
            child = _child_is_canonical(adj, cols, by_size, S)
            if child:
                yield child


def _has_rooted_cube(adj: tuple[int, ...], n: int) -> bool:
    """Does the colouring with blue masks ``adj`` hold a red Q_n through
    its last vertex?  Q_n is vertex transitive, so such a cube may put
    its vertex 0 there: ``contains_red_cube``'s search with its first
    cube vertex fixed at the last vertex."""
    G = ColouredGraph(len(adj), list(adj), validate=False)
    return _cube_dfs(G, n, {len(adj) - 1: G.full_mask}).found


@cache
def _cube_free_level(n: int, v: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The canonical classes on v vertices with no red Q_n, in the order
    of ``canonical_triangle_free_graphs``, and how many canonical
    children were tested for a red Q_n to find them.

    Below 2^n vertices no cube fits: the level is the canonical one, and
    nothing is tested.  From v = 2^n on it holds the canonical children
    of the level below that have no red Q_n.  No blue triangle and no red
    Q_n both pass to induced colourings, and dropping the last vertex of
    a canonical graph leaves it canonical, so every cube-free class is a
    child of a cube-free class; and the parent has no cube, so a child's
    cube uses its new vertex (``_has_rooted_cube``).  The level is the
    full canonical level with the cube holders left out, in the same
    order.  Its count is checked against ``CUBE_FREE_CLASS_COUNTS`` by a
    raise that ``python -O`` keeps; above an empty level, which ends the
    table, every level is empty.  A grown level is reached only where
    every level below is tabulated: at n >= 4, 2^n - 1 exceeds the class
    table, and ``exhaustive_ramsey`` refuses before any level is built.
    """
    if v < 1 << n:
        return tuple(map(tuple, canonical_triangle_free_graphs(v))), 0
    parents = _cube_free_level(n, v - 1)[0]
    if not parents:
        return (), 0
    level, tested = [], 0
    for child in _canonical_children(parents, v):
        tested += 1
        if not _has_rooted_cube(child, n):
            level.append(child)
    expected = CUBE_FREE_CLASS_COUNTS[n][v - 1]
    if len(level) != expected:
        raise AssertionError(
            f"generated {len(level)} classes without a red Q_{n} at N={v}, "
            f"expected {expected}"
        )
    return tuple(level), tested


def _canonical_sweep(n: int, N: int) -> RamseyVerdict:
    """The levels of ``_cube_free_level`` grown from 2^n up to N; the
    first class of level N, if any, is the witness.  An empty level ends
    the growth, since every level above it is empty too.  ``checked``
    counts the canonical children tested for a red Q_n over the levels
    grown."""
    checked = 0
    for v in range(1 << n, N + 1):
        level, tested = _cube_free_level(n, v)
        checked += tested
        if not level:
            return RamseyVerdict(n, N, None, checked)
    witness = ColouredGraph(N, list(level[0]), validate=False)
    return RamseyVerdict(n, N, witness, checked)


def exhaustive_ramsey(n: int, N: int, mode: str = "auto") -> RamseyVerdict:
    """Does every red/blue colouring of K_N contain a blue triangle or a
    red n-cube?

    Up to N = 2^(n+1) - 2 the answer is built at once, with no class list
    and ``checked`` 0, by Burr and Erdos's ``two_clique_coloring``: red
    cliques on min(N, 2^n - 1) vertices and on the rest, blue across, so
    blue is bipartite and every red component has under 2^n vertices.
    From 2^(n+1) - 1 on, the sweep grows, level by level up to N, only
    the triangle-free classes with no red Q_n (``_cube_free_level``);
    the first class of level N is the witness, and an empty level ends
    the growth, so every N above it holds at once.  At n <= 3 it answers
    every N (r(K_3, Q_3) = 15 in about 1 s on 2 cores, Python 3.11);
    at n >= 4 it would need the class list on 2^n - 1 vertices, past the
    table.  What it cannot answer is refused up front, naming why; levels
    are kept, so a later sweep at that n builds only the levels it lacks.

    ``mode`` selects nothing: "auto", "plain" and "canonical" all run
    the one sweep, and any other value is refused.  It stays only while
    the benchmark passes ``Op.mode`` (``perfbench/workloads.py``), and
    goes with it (ROADMAP items 1 and 3).
    """
    if n < 1:
        raise ValueError("cube dimension must be positive")
    if N < 1:
        raise ValueError("graph size must be positive")
    if mode not in ("auto", "plain", "canonical"):
        raise ValueError(f"unknown mode {mode!r}")
    if N <= (2 << n) - 2:
        return RamseyVerdict(n, N, two_clique_coloring(N, min(N, (1 << n) - 1)), 0)
    base, top = (1 << n) - 1, len(TRIANGLE_FREE_GRAPH_COUNTS)
    if base > top:
        raise ValueError(
            f"n = {n}, N = {N} needs the canonical classes on 2^{n} - 1 = "
            f"{base} vertices; canonical enumeration is tabulated only to "
            f"N = {top} ({TRIANGLE_FREE_GRAPH_COUNTS[-1]} classes)"
        )
    return _canonical_sweep(n, N)
