"""Two-coloured complete graphs stored as blue-adjacency bitmasks.

A colouring of K_N assigns every unordered pair either blue or red.  We
store the blue relation only; a pair of distinct vertices is red exactly
when it is not blue.  All vertex sets passed around the package are int
bitmasks, so the natural unit of work is a mask intersection rather than
an edge list.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, TextIO

from .bits import bit, bits_list, counted_bits, iter_bits, lowest_bits, mask_of
from .errors import GraphParseError


@dataclass
class Verdict:
    """Outcome of a verification pass: ``ok`` plus human-readable errors."""

    ok: bool
    errors: list[str] = field(default_factory=list)

    @classmethod
    def failure(cls, *errors: str) -> "Verdict":
        return cls(False, list(errors))

    def __bool__(self) -> bool:
        return self.ok


class ColouredGraph:
    """A complete graph on vertices 0..n_vertices-1 with blue/red edges.

    ``blue`` is a list of bitmasks, one per vertex; bit v of ``blue[u]``
    says uv is blue.  The relation must be irreflexive and symmetric.
    Construction with ``validate=False`` skips that check; it is meant for
    internal constructions that are symmetric by shape.  The masks are
    not changed after construction: ``blue_degrees`` counts them once,
    ``blue_at_least`` sorts the vertices with a blue neighbour by degree
    once, and ``blue_classes`` groups equal masks into twin classes once.
    Whichever of ``blue_degrees`` and ``blue_classes`` runs first reads
    every mask; the class index then reads only the cached degrees and
    the masks of degree 2 or more, and it caches the degrees it counts.
    """

    def __init__(self, n_vertices: int, blue: list[int], validate: bool = True):
        if n_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(blue) != n_vertices:
            raise ValueError(
                f"expected {n_vertices} adjacency masks, got {len(blue)}"
            )
        self.n_vertices = n_vertices
        self.blue = blue
        self.full_mask = (1 << n_vertices) - 1
        self._blue_degrees: Optional[list[int]] = None
        self._by_degree: Optional[array] = None
        self._blue_classes: Optional[tuple[list[int], list[int], list[int]]] = None
        if validate:
            self._validate()

    def _validate(self):
        for u, m in enumerate(self.blue):
            if m >> self.n_vertices:
                raise ValueError(f"mask of vertex {u} mentions out-of-range vertices")
            if (m >> u) & 1:
                raise ValueError(f"vertex {u} is blue-adjacent to itself")
        for u, m in enumerate(self.blue):
            for v in iter_bits(m >> (u + 1)):
                v += u + 1
                if not (self.blue[v] >> u) & 1:
                    raise ValueError(f"blue edge {u}-{v} is not symmetric")

    @classmethod
    def from_blue_edges(
        cls, n_vertices: int, edges: Iterable[tuple[int, int]]
    ) -> "ColouredGraph":
        blue = [0] * n_vertices
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"edge {u}-{v} out of range")
            blue[u] |= bit(v)
            blue[v] |= bit(u)
        return cls(n_vertices, blue, validate=False)

    # -- colour queries -------------------------------------------------

    def is_blue(self, u: int, v: int) -> bool:
        return bool((self.blue[u] >> v) & 1)

    def is_red(self, u: int, v: int) -> bool:
        return u != v and not self.is_blue(u, v)

    def red_mask(self, v: int) -> int:
        return self.full_mask & ~self.blue[v] & ~bit(v)

    def blue_degrees(self) -> list[int]:
        """The blue degree of every vertex, counted on first use: one
        popcount per N-bit mask, unless ``blue_classes`` ran first and
        counted them on its way."""
        if self._blue_degrees is None:
            self._blue_degrees = [m.bit_count() for m in self.blue]
        return self._blue_degrees

    def blue_at_least(self, t: int) -> int:
        """The mask of vertices of blue degree t or more.

        Cost: on first use a pass over the N cached degrees and a sort of
        the vertices with a blue neighbour by degree, kept as 4 bytes each;
        then a bisection and ``mask_of`` of the answer.
        """
        if t <= 0:
            return self.full_mask
        deg = self.blue_degrees()
        if self._by_degree is None:
            self._by_degree = array("i", sorted(
                (v for v, d in enumerate(deg) if d), key=deg.__getitem__, reverse=True
            ))
        order = self._by_degree
        return mask_of(order[: bisect_right(order, -t, key=lambda v: -deg[v])])

    def blue_edge_count(self) -> int:
        return sum(self.blue_degrees()) // 2

    def blue_classes(self) -> tuple[list[int], list[int], list[int]]:
        """The blue twin classes ``(class_of, reps, class_adj)``, built on
        first use.  Vertices of blue degree 2 or more share a class exactly
        when their masks are equal (twins are never blue-adjacent, so
        blow-ups of a few red cliques have a handful of classes); classes
        are numbered in order of their first vertex ``reps[c]``, and any
        other vertex has class -1.  Bit b of ``class_adj[a]`` says classes
        a and b are blue-adjacent.

        Cost: one pass over the vertices.  With the degrees cached, a
        vertex of degree below 2 is passed over unread; without them, a
        zero mask is, a one-bit mask is told by a compare at half the cost
        of a popcount, and the degrees are counted on the way and cached.
        Every other mask read gets an O(1) fingerprint, its length and its
        low and top 64 bits.  The first vertex to show a fingerprint pays
        a popcount; a later one compares its mask with that vertex's and,
        if equal, takes its class and degree, so a blow-up pays one
        compare per vertex, cut short when twins share one int object.
        Only masks that differ behind a shared fingerprint are hashed
        whole.  Then per class one N-bit AND with the mask of ``reps`` and
        a walk over what it leaves.
        """
        if self._blue_classes is None:
            blue, deg = self.blue, self._blue_degrees
            counted = deg is not None
            if not counted:
                deg = [0] * self.n_vertices
            # the first vertex of each fingerprint, and of each whole mask
            # that differs from another behind a shared fingerprint; the
            # length keeps one-bit masks apart, since CPython hashes an int
            # modulo 2**61 - 1, so 1 << k alone would hash as 1 << (k % 61)
            first: dict[tuple[int, int, int], int] = {}
            by_mask: dict[int, int] = {}
            reps, class_of = [], [-1] * self.n_vertices
            for v, m in enumerate(blue):
                if (deg[v] < 2) if counted else not m:
                    continue
                length = m.bit_length()
                top = m >> (length - 64) if length > 64 else m << (64 - length)
                if not counted and top == 1 << 63 and m == 1 << (length - 1):
                    # most masks of a sparse host are one bit, told by a
                    # compare at half the cost of a popcount; such a vertex
                    # is never classed, so its fingerprint is not kept
                    deg[v] = 1
                    continue
                u = first.setdefault((length, m & 0xFFFFFFFFFFFFFFFF, top), v)
                if u != v and m != blue[u]:
                    u = by_mask.setdefault(m, v)
                if u != v:
                    class_of[v] = class_of[u]
                    deg[v] = deg[u]
                    continue
                if not counted:
                    deg[v] = m.bit_count()
                if deg[v] >= 2:
                    class_of[v] = len(reps)
                    reps.append(v)
            self._blue_degrees = deg
            # a twin of reps[b] is blue to reps[a] exactly when reps[b] is,
            # so only the reps among a class's neighbours are walked
            rep_mask = mask_of(reps)
            class_adj = []
            for r in reps:
                a = 0
                for w in iter_bits(self.blue[r] & rep_mask):
                    a |= bit(class_of[w])
                class_adj.append(a)
            self._blue_classes = (class_of, reps, class_adj)
        return self._blue_classes

    def has_blue_into(self, vertices: Iterable[int], mask: int) -> bool:
        """Whether some given vertex (each in range) has a blue neighbour
        in the mask.  Cost: one N-bit AND per blue class among them (its
        members share one mask) and per unclassed vertex of degree 1."""
        class_of = self.blue_classes()[0]
        seen: set[int] = set()
        for v in vertices:
            c = class_of[v]
            if c < 0 or c not in seen:
                if self.blue[v] & mask:
                    return True
                seen.add(c)
        return False

    def is_red_clique(self, vertices: Iterable[int]) -> bool:
        """Whether the given vertices of G are pairwise red; costs their
        mask and ``has_blue_into``.  A vertex outside 0..N-1 is an error."""
        vs = list(vertices)
        if vs and (min(vs) < 0 or max(vs) >= self.n_vertices):
            raise ValueError(f"vertices must lie in 0..{self.n_vertices - 1}")
        return not self.has_blue_into(vs, mask_of(vs))

    # -- derived graphs -------------------------------------------------

    def induced(self, vertices: Iterable[int]) -> tuple["ColouredGraph", list[int]]:
        """Induced colouring on the given vertices.

        Returns the subgraph together with the list mapping new indices to
        old ones (new index i corresponds to old vertex ``order[i]``).  The
        subgraph's degrees are counted on the way and cached.

        Cost: a sort and a dict over the vertices, then one dict lookup
        and one shift per blue neighbour (``counted_bits`` with the cached
        degree).
        """
        order = sorted(set(vertices))
        if order and (order[0] < 0 or order[-1] >= self.n_vertices):
            raise ValueError(f"vertices must lie in 0..{self.n_vertices - 1}")
        pos = {v: i for i, v in enumerate(order)}
        deg = self.blue_degrees()
        blue, sub_deg = [], []
        for v in order:
            nm = k = 0
            for w in counted_bits(self.blue[v], deg[v]) if deg[v] else ():
                i = pos.get(w)
                if i is not None:
                    nm |= 1 << i
                    k += 1
            blue.append(nm)
            sub_deg.append(k)
        H = ColouredGraph(len(order), blue, validate=False)
        H._blue_degrees = sub_deg
        return H, order

    # -- text round trip ------------------------------------------------

    def to_text(self, stream: TextIO):
        """Write the colouring: vertex count, then blue edges u v with u < v."""
        stream.write(f"{self.n_vertices}\n")
        for u in range(self.n_vertices):
            for v in iter_bits(self.blue[u] >> (u + 1)):
                stream.write(f"{u} {v + u + 1}\n")

    @classmethod
    def from_text(cls, stream: TextIO) -> "ColouredGraph":
        n = None
        blue: list[int] = []
        for lineno, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if n is None:
                if len(parts) != 1:
                    raise GraphParseError(
                        "first line must hold the vertex count", lineno
                    )
                try:
                    n = int(parts[0])
                except ValueError:
                    raise GraphParseError(f"bad vertex count {parts[0]!r}", lineno)
                if n < 0:
                    raise GraphParseError(f"negative vertex count {n}", lineno)
                blue = [0] * n
                continue
            if len(parts) != 2:
                raise GraphParseError(f"expected 'u v', got {line!r}", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError(f"non-integer endpoint in {line!r}", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphParseError(f"edge {u} {v} out of range", lineno)
            if u >= v:
                raise GraphParseError(f"edges must satisfy u < v, got {u} {v}", lineno)
            blue[u] |= bit(v)
            blue[v] |= bit(u)
        if n is None:
            raise GraphParseError("empty graph file")
        return cls(n, blue, validate=False)


# -- triangle freeness ---------------------------------------------------


def is_blue_triangle_free(G: ColouredGraph) -> tuple[bool, Optional[tuple]]:
    """Decide whether the blue graph contains a triangle.

    Twins are never blue-adjacent, so it is enough to look for a triangle
    between the classes of ``G.blue_classes()``; a vertex of blue degree
    below 2 lies on no triangle and is left unclassed.

    Cost: the class index (built once per graph, one O(1) fingerprint
    and one compare or popcount per vertex read), then one k-bit
    intersection per blue class edge, O(E * k / 64) word operations for
    E blue edges and k classes.  A blow-up of a few red cliques has a
    handful of classes; on a twin-free host k is the number of vertices
    of degree 2 or more, and building ``class_adj`` (one step per blue
    edge between classed vertices) and this loop dominate.  Class pairs (a, b) with a < b are tried
    in order; the witness is the first pair's lowest common neighbour
    class.  Leaving out vertices of degree below 2 keeps that witness:
    one has at most one neighbour, so it is never a or b of a pair with
    a common neighbour, nor the common neighbour c of a, b.
    """
    _, reps, class_adj = G.blue_classes()
    for a, adj_a in enumerate(class_adj):
        for b in iter_bits(adj_a >> (a + 1)):
            b += a + 1
            common = adj_a & class_adj[b]
            if common:
                c = (common & -common).bit_length() - 1
                return False, (reps[a], reps[b], reps[c])
    return True, None


# -- red components ------------------------------------------------------


def red_components(G: ColouredGraph, pool: Optional[int] = None) -> list[int]:
    """Connected components of the red graph induced on the pool (all of
    G by default), as masks, by smallest member."""
    unvisited = G.full_mask if pool is None else pool
    comps = []
    while unvisited:
        start = unvisited & -unvisited
        comp = start
        frontier = start
        unvisited ^= start
        while frontier:
            grow = 0
            for v in iter_bits(frontier):
                grow |= G.red_mask(v) & unvisited
            unvisited &= ~grow
            comp |= grow
            frontier = grow
        comps.append(comp)
    return comps


# -- red cliques ---------------------------------------------------------


def find_red_clique(G: ColouredGraph, pool: int, m: int) -> Optional[tuple[int, ...]]:
    """A red m-clique within the pool mask by one greedy sweep, or None.

    The sweep takes vertices in index order, discarding the blue
    neighbourhood of each pick, and returns the first m picks as a sorted
    vertex tuple.  It is no search: None proves nothing, and a red
    m-clique may still lie in the pool.

    Cost: one walk over the pool marks the discarded vertices, at the
    cost of ``counted_bits`` per pick, O(1) at degree 1; after a pick of
    degree above N/256, clearing a candidate mask (one N-bit operation
    per pick) is the cheaper way to go on.
    """
    deg = G.blue_degrees()
    picks: list[int] = []
    marked = bytearray(G.n_vertices)
    cand = 0
    for v in iter_bits(pool):
        if marked[v]:
            continue
        picks.append(v)
        if len(picks) == m:
            break
        if deg[v] << 8 > G.n_vertices:
            cand = pool & ~((2 << v) - 1)
            for p in picks:
                cand &= ~G.blue[p]
            break
        if deg[v]:
            for w in counted_bits(G.blue[v], deg[v]):
                marked[w] = 1
    while cand and len(picks) < m:
        v = (cand & -cand).bit_length() - 1
        picks.append(v)
        cand &= ~(bit(v) | G.blue[v])
    return tuple(picks) if len(picks) == m else None


def max_disjoint_red_cliques(
    G: ColouredGraph, A: int, m: int
) -> list[tuple[int, ...]]:
    """Pairwise-disjoint red m-cliques inside mask A, by cheap passes only.

    The family is not maximal: the leftover may still hold a red
    m-clique.  What it promises, when the blue graph is triangle free, is
    that no vertex of G has m blue neighbours in the leftover, since in
    such a graph every blue neighbourhood is a red clique; that is all
    ``decompose`` reads.  The passes, per clique: if the residual is all
    red, cliques are cut off its low end; if it is not and holds exactly
    m vertices, it is no vertex's blue star, and the family ends; a blue
    star of m or more vertices in the residual is harvested, and once
    there is none the promise holds; then a greedy sweep
    (``find_red_clique``) picks up a clique that sparse blue noise leaves
    lying around, and the family ends when it finds none.

    Cost per clique, in N-bit ANDs once per blue class and per unclassed
    vertex of degree 1: the all-red check, over the residual vertices
    with a blue neighbour (none on an all-red host); the star harvest,
    over those of degree m or more, and the red test of the harvested
    star; then the sweep, a walk over the residual.  The dense route's
    sparse hosts end on a residual of exactly m, settled by the check.
    """
    if m <= 0:
        raise ValueError("clique size must be positive")
    cliques: list[tuple[int, ...]] = []
    residual = A
    # only a vertex of whole blue degree m or more can have a star of m;
    # a class shares one star, so its first vertex (reps are in vertex
    # order) stands for it, and from m = 2 on every such vertex is classed
    deg = G.blue_degrees()
    heavy = G.blue_classes()[1] if m >= 2 else range(G.n_vertices)
    heavy = [v for v in heavy if deg[v] >= m]
    support = G.blue_at_least(1)
    while (size := residual.bit_count()) >= m:
        # all-red fast path: a vertex without a blue neighbour is red to all
        if not G.has_blue_into(iter_bits(residual & support), residual):
            while residual.bit_count() >= m:
                take = lowest_bits(residual, m)
                cliques.append(tuple(bits_list(take)))
                residual &= ~take
            break
        if size == m:
            # the only m-set is the residual itself, and it is not red
            break
        # blue-star harvest: the blue neighbourhood of any vertex is red
        best_v, best_d = -1, m - 1
        for v in heavy:
            d = (G.blue[v] & residual).bit_count()
            if d > best_d:
                best_v, best_d = v, d
        if best_v >= 0:
            take = lowest_bits(G.blue[best_v] & residual, m)
            took = bits_list(take)
            if G.is_red_clique(took):
                cliques.append(tuple(took))
                residual &= ~take
                continue
            # the star was not red after all: the blue graph has a triangle
            # through best_v, and the promise is void; sweep all the same
        got = find_red_clique(G, residual, m)
        if got is None:
            break
        cliques.append(got)
        residual &= ~mask_of(got)
    return cliques


def max_balanced_biclique(
    G: ColouredGraph, M1: Iterable[int], M2: Iterable[int], cap: Optional[int] = None
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """A red complete bipartite K_{w,w} between M1 and M2, found by two
    prefix walks: a lower bound on the largest such w, not a search.

    Returns (min(w, cap), X, Y) with X from M1 and Y from M2, sorted
    tuples of that size, every cross pair red; ``cap=None`` is no cap.
    Each walk runs through one side in increasing blue-cross order and
    keeps the other side red to the whole prefix; the second walk runs
    only while the first stays below the cap, so a result below the cap
    is final: a larger cap returns the same one.  The largest balanced
    biclique is NP-hard, and no caller needs it.  The name is kept
    because the benchmark's tracer wraps the function by name.

    Cost: per side, one N-bit row per vertex, or, if G has fewer blue
    classes than the side has vertices, one row and popcount per class
    and per vertex of degree below 2; then the walks' sorts, by
    popcount, and prefix walks.
    """
    side1 = sorted(set(M1))
    side2 = sorted(set(M2))
    m1, m2 = mask_of(side1), mask_of(side2)
    if m1 & m2:
        raise ValueError("the two sides must be disjoint")
    # the smaller side walks first
    swapped = len(side1) > len(side2)
    if swapped:
        side1, side2 = side2, side1
        m1, m2 = m2, m1
    limit = min(len(side1), len(side2))
    if cap is not None:
        limit = min(limit, cap)

    class_of, reps, _ = G.blue_classes()

    def prefix_walk(rows, col_mask):
        # walk rows in increasing blue-cross order, keeping col_mask red to
        # the whole prefix (a planted block floats to the front); each
        # prefix is a biclique.  Rows of the red view (disjoint, so no
        # vertex meets itself) and their popcounts are shared by each blue
        # class when G has fewer classes than rows
        shared = len(reps) < len(rows)
        rows_c = [col_mask & ~G.blue[r] for r in reps] if shared else []
        sizes_c = [-row.bit_count() for row in rows_c]
        adj = {
            u: rows_c[c] if shared and (c := class_of[u]) >= 0 else col_mask & ~G.blue[u]
            for u in rows
        }
        order = sorted(rows, key=lambda u: (
            sizes_c[c] if shared and (c := class_of[u]) >= 0 else -adj[u].bit_count()
        ))
        common = col_mask
        best_w, best_rows, best_common = 0, [], 0
        for idx, u in enumerate(order):
            common &= adj[u]
            if not common:
                break
            w = min(idx + 1, common.bit_count())
            if w > best_w:
                best_w = w
                best_rows = order[: idx + 1]
                best_common = common
        return best_w, best_rows, best_common

    # the other side walks only while the first walk falls short of the
    # limit, and replaces it only when it does better
    w, rows, common = prefix_walk(side1, m2)
    flip = swapped
    if w < limit:
        w2, rows2, common2 = prefix_walk(side2, m1)
        if w2 > w:
            w, rows, common, flip = w2, rows2, common2, not swapped
    w = min(w, limit)
    X, Y = tuple(sorted(rows)[:w]), tuple(bits_list(lowest_bits(common, w)))
    return (w, Y, X) if flip else (w, X, Y)


# -- constructions -------------------------------------------------------


def lower_bound_coloring(n: int) -> ColouredGraph:
    """Two red cliques of size 2**n - 1 with all cross pairs blue.

    The blue graph is complete bipartite, hence triangle free, and every
    red component has fewer than 2**n vertices, so no red n-cube fits.
    The two adjacency masks are shared across their cliques.
    """
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    half = (1 << n) - 1
    total = 2 * half
    mask1 = (1 << half) - 1
    mask2 = ((1 << total) - 1) ^ mask1
    blue = [mask2] * half + [mask1] * half
    return ColouredGraph(total, blue, validate=False)


def random_bipartite_blue(
    n_vertices: int, p: float, rng: random.Random
) -> ColouredGraph:
    """Blue edges only between the low and high half, each with probability p.

    Blue stays triangle free for any p because one side of a triangle
    would have to run inside a part.
    """
    if not 0 <= p <= 1:
        raise ValueError("probability out of range")
    half = n_vertices // 2
    part2 = range(half, n_vertices)
    blue = [0] * n_vertices
    if p == 1.0:
        m2 = ((1 << n_vertices) - 1) ^ ((1 << half) - 1)
        m1 = (1 << half) - 1
        for u in range(half):
            blue[u] = m2
        for v in part2:
            blue[v] = m1
        return ColouredGraph(n_vertices, blue, validate=False)
    for u in range(half):
        for v in part2:
            if rng.random() < p:
                blue[u] |= bit(v)
                blue[v] |= bit(u)
    return ColouredGraph(n_vertices, blue, validate=False)


def random_triangle_free_greedy(
    n_vertices: int,
    target_blue_edges: int,
    rng: random.Random,
) -> ColouredGraph:
    """Insert random blue edges, skipping any that would close a triangle.

    Stops after reaching the target count or after 60 attempts per
    target edge, whichever comes first.
    """
    blue = [0] * n_vertices
    added = 0
    for _ in range(60 * max(target_blue_edges, 1)):
        if added >= target_blue_edges:
            break
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        if u == v or (blue[u] >> v) & 1:
            continue
        if blue[u] & blue[v]:
            continue
        blue[u] |= bit(v)
        blue[v] |= bit(u)
        added += 1
    return ColouredGraph(n_vertices, blue, validate=False)


# -- embedding: first-fit placement and verification ----------------------


def first_fit(
    G: ColouredGraph,
    free: list[int],
    order: Iterable[int],
    image,
    taken: bytearray,
    blocked_of: Callable[[int], Optional[int]],
) -> int:
    """Place the cube vertices of ``order`` in turn, first fit.

    Each cube vertex z takes the first vertex of the sorted list ``free``
    that is neither set in ``taken`` nor in the mask ``blocked_of(z)``
    (None or 0 blocks nothing); ``image[z]`` and ``taken`` are updated in
    place.  Returns how many cube vertices were placed: the walk stops at
    the first one that finds no vertex.  ``G`` is the host whose vertices
    ``free``, ``taken`` and the masks name.

    Cost: a cursor walks ``free`` past the taken vertices and never moves
    back, so it only ever passes vertices no later cube vertex can take.
    A cube vertex with no mask takes the vertex at the cursor; one with a
    mask walks on from there past the taken and blocked vertices, one
    N-bit bit test per vertex it meets.  A walk without masks does no
    N-bit mask operation, and in all it costs O(len(order) + len(free))
    plus those bit tests.
    """
    cursor, end = 0, len(free)
    placed = 0
    for z in order:
        while cursor < end and taken[free[cursor]]:
            cursor += 1
        i = cursor
        blocked = blocked_of(z)
        if blocked:
            while i < end and (taken[free[i]] or (blocked >> free[i]) & 1):
                i += 1
        if i == end:
            break
        v = free[i]
        image[z] = v
        taken[v] = 1
        placed += 1
    return placed


def verify_red_embedding(
    G: ColouredGraph,
    n: int,
    phi: dict[int, int],
    domain: Optional[Iterable[int]] = None,
) -> Verdict:
    """Check that phi maps cube vertices injectively onto red edges.

    ``domain`` restricts which cube vertices must be present; by default
    the whole cube is required.  Cube edges with both ends in the domain
    must land on red pairs of G.  A phi that misses part of the domain is
    a malformed input, not a failed verification, and raises ValueError.

    Cost: O(2^n) dict and set work over the map, and the class index of
    ``G.blue_classes()`` (built once per graph); then n edge tests only
    at a cube vertex whose image has a blue neighbour or is shared with
    another cube vertex.  Any other image is red to every other vertex,
    so its edges are passed over.  An edge between two classed images is
    one bit of a k-bit class mask for k blue classes, since twins share
    their neighbours; any other edge costs one bit shift of an N-bit mask.
    """
    if domain is None:
        dom = list(range(1 << n))
    else:
        dom = sorted(set(domain))
    missing = [z for z in dom if z not in phi]
    if missing:
        raise ValueError(
            f"phi is only partially defined: {len(missing)} domain vertices "
            f"missing, first {missing[0]}"
        )
    errors = []
    seen: dict[int, int] = {}
    shared: set[int] = set()
    # an edge at an out-of-range image is reported with that image alone
    checkable: set[int] = set()
    for z in dom:
        v = phi[z]
        if not (0 <= v < G.n_vertices):
            errors.append(f"cube vertex {z} maps to out-of-range vertex {v}")
            continue
        checkable.add(z)
        if v in seen:
            errors.append(f"cube vertices {seen[v]} and {z} both map to {v}")
            shared.add(v)
        seen[v] = z
    blue = G.blue
    class_of, _, class_adj = G.blue_classes()
    for z in dom:
        if z not in checkable:
            continue
        a = phi[z]
        mask_a = blue[a]
        if not mask_a and a not in shared:
            continue
        ca = class_of[a]
        adj_a = class_adj[ca] if ca >= 0 else 0
        for i in range(n):
            w = z ^ (1 << i)
            if w < z or w not in checkable:
                continue
            b = phi[w]
            if a != b:
                # twins share their neighbours, so two classed images are
                # blue exactly when their classes are; a vertex with a zero
                # mask is red to every other: no shift
                cb = class_of[b]
                if ca >= 0 and cb >= 0:
                    blue_ab = (adj_a >> cb) & 1
                else:
                    blue_ab = mask_a and (mask_a >> b) & 1
                if not blue_ab:
                    continue
            errors.append(f"cube edge {z}-{w} lands on non-red pair {a}-{b}")
            if len(errors) >= 20:
                return Verdict.failure(*errors)
    return Verdict(not errors, errors)
