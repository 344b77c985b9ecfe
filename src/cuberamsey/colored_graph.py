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
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterable, Optional, Sequence, TextIO

from .bits import bit, bits_list, counted_bits, iter_bits, lowest_bits, mask_of
from .errors import GraphParseError, HypothesisError


@dataclass
class Verdict:
    """Outcome of a verification pass: its errors; ``ok`` means there are none."""

    errors: list[str]

    @property
    def ok(self) -> bool:
        return not self.errors

    def __bool__(self) -> bool:
        return self.ok


class ColouredGraph:
    """A complete graph on vertices 0..n_vertices-1 with blue/red edges.

    ``blue`` is a list of bitmasks, one per vertex; bit v of ``blue[u]``
    says uv is blue.  The relation must be irreflexive and symmetric.
    Construction with ``validate=False`` skips that check; it is meant for
    internal constructions that are symmetric by shape.  The masks are
    not changed after construction, so one pass over them, on first use,
    builds the index that ``blue_degrees``, ``blue_classes``,
    ``blue_at_least`` and ``has_blue_into`` read: every degree, the twin
    classes, the mask of the members of each class of two or more, and
    the vertices with a blue neighbour in order of falling degree and as
    a mask, the support.  So a blow-up of a few red cliques pays its
    N-bit work once per class, not once per vertex, wherever a vertex
    mask is tested.  For the same reason ``is_blue_triangle_free``
    keeps its verdict on the graph, and ``induced`` hands the subgraph
    the degrees it counts and, from a graph known to be triangle free,
    that verdict.
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
        self._index: Optional[tuple] = None
        # the blue degrees, when ``induced`` counted them, and the verdict
        # of ``is_blue_triangle_free``, once known
        self._degrees: Optional[list[int]] = None
        self._triangle: Optional[tuple[bool, Optional[tuple]]] = None
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

    def red_mask(self, v: int) -> int:
        return self.full_mask & ~self.blue[v] & ~bit(v)

    def _blue_index(
        self,
    ) -> tuple[list[int], tuple[list[int], list[int]], array, int, tuple[list, int]]:
        """The degrees, the twin classes ``(class_of, reps)``, the degree
        order, the support mask and ``(groups, grouped)``: a pair
        ``(reps[c], members of c)`` for each class c of two or more
        vertices, and the mask of all their members.  Built together on
        first use.

        Cost: one pass over the vertices.  A zero mask is passed over.
        Degrees that ``induced`` counted are read; otherwise a one-bit
        mask is told by a compare at half the cost of a popcount.  Every
        other mask gets an O(1) fingerprint, its length and its low and
        top 64 bits.  The first vertex to show a fingerprint pays a
        popcount unless its degree was counted; a later one compares its
        mask with that vertex's and, if equal, takes its class and
        degree, so a blow-up pays one compare per vertex, cut short when
        twins share one int object, and lists itself among its class's
        members, so a twin-free host lists nobody.  Only masks that
        differ behind a shared fingerprint are hashed whole.  Then a sort
        of the vertices with a blue neighbour by degree, kept as 4 bytes
        each, their mask, and ``mask_of`` of each member list: O(N)
        bytes per class of two or more.
        """
        if self._index is None:
            blue = self.blue
            deg = self._degrees
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
            # the members of each class that a second vertex joins
            twins: dict[int, list[int]] = {}
            for v, m in enumerate(blue):
                if counted:
                    if deg[v] < 2:
                        continue
                elif not m:
                    continue
                length = m.bit_length()
                top = m >> (length - 64) if length > 64 else m << (64 - length)
                if not counted and top == 1 << 63 and m == 1 << (length - 1):
                    # most masks of a sparse host are one bit; such a
                    # vertex is never classed, so its fingerprint is not kept
                    deg[v] = 1
                    continue
                u = first.setdefault((length, m & 0xFFFFFFFFFFFFFFFF, top), v)
                if u != v and m != blue[u]:
                    u = by_mask.setdefault(m, v)
                if u != v:
                    c = class_of[v] = class_of[u]
                    deg[v] = deg[u]
                    if c in twins:
                        twins[c].append(v)
                    else:
                        twins[c] = [u, v]
                    continue
                if not counted:
                    deg[v] = m.bit_count()  # two or more
                class_of[v] = len(reps)
                reps.append(v)
            touched = [v for v, d in enumerate(deg) if d]
            by_degree = array("i", sorted(touched, key=deg.__getitem__, reverse=True))
            groups = [(vs[0], mask_of(vs)) for vs in twins.values()]
            grouped = 0
            for _, members in groups:
                grouped |= members
            self._index = (
                deg, (class_of, reps), by_degree, mask_of(touched), (groups, grouped)
            )
        return self._index

    def blue_degrees(self) -> list[int]:
        """The blue degree of every vertex, from the index."""
        return self._blue_index()[0]

    def blue_at_least(self, t: int) -> int:
        """The mask of vertices of blue degree t or more.  The index keeps
        the support, the vertices with a blue neighbour, as a mask, and
        answers with it whenever t keeps all of them; any other t costs a
        bisection of the index's degree order and ``mask_of`` of the
        answer."""
        if t <= 0:
            return self.full_mask
        deg, _, order, support, _ = self._blue_index()
        if not order or deg[order[-1]] >= t:
            return support
        return mask_of(order[: bisect_right(order, -t, key=lambda v: -deg[v])])

    def blue_edge_count(self) -> int:
        return sum(self.blue_degrees()) // 2

    def blue_classes(self) -> tuple[list[int], list[int]]:
        """The blue twin classes ``(class_of, reps)``, from the index.
        Vertices of blue degree 2 or more share a class exactly when their
        masks are equal (twins are never blue-adjacent, so blow-ups of a
        few red cliques have a handful of classes); classes are numbered
        in order of their first vertex ``reps[c]``, and any other vertex
        has class -1.  Classes a and b are blue-adjacent exactly when
        ``reps[a]`` and ``reps[b]`` are.
        """
        return self._blue_index()[1]

    def has_blue_into(self, vertices: int, mask: int) -> bool:
        """Whether some vertex of the mask ``vertices`` has a blue
        neighbour in ``mask``.  Only its vertices with a blue neighbour
        are read (``vertices`` AND the support), so a mask of an
        all-red host reads no blue mask.  Cost: the members of a class of
        two or more vertices share one mask, so each such class costs one
        AND of its member mask and, if it meets them, one of its blue
        mask; then ``iter_bits`` of the rest, one AND per vertex."""
        _, _, _, support, (groups, grouped) = self._blue_index()
        rest = vertices & support
        if not rest:
            return False
        blue = self.blue
        for rep, members in groups:
            if rest & members and blue[rep] & mask:
                return True
        for v in iter_bits(rest & ~grouped):
            if blue[v] & mask:
                return True
        return False

    # -- derived graphs -------------------------------------------------

    def induced(self, vertices: Iterable[int]) -> tuple["ColouredGraph", list[int]]:
        """Induced colouring on the given vertices.

        Returns the subgraph together with the list mapping new indices to
        old ones (new index i corresponds to old vertex ``order[i]``).

        The copy reads every kept vertex's blue neighbours, so it counts
        the subgraph's blue degrees as it goes, and the subgraph's index
        reads them instead of telling one-bit masks apart and
        popcounting.  A blue triangle of the subgraph is one of this
        graph, so if this graph is known to be blue triangle free
        (``is_blue_triangle_free`` has said so), the subgraph is too and
        inherits that verdict; any other subgraph is checked on its own
        when asked.

        Cost: a sort and a dict over the vertices, and a walk of them
        that lists their runs of consecutive vertices until there are as
        many runs as the largest blue degree.  The relabelling is
        monotone, so a run keeps its bit pattern, shifted down by the
        vertices left out below it.  A kept vertex of blue degree d with
        fewer runs than d is copied by one shift, AND and shift per run,
        and its degree is a popcount.  Any other kept vertex with a blue
        neighbour costs one dict lookup and one shift per blue neighbour:
        read by ``bit_length`` at degree 1 and by ``counted_bits`` above.
        A kept vertex without one costs a list read and keeps the zero
        mask.
        """
        order = sorted(set(vertices))
        if order and (order[0] < 0 or order[-1] >= self.n_vertices):
            raise ValueError(f"vertices must lie in 0..{self.n_vertices - 1}")
        pos = {v: i for i, v in enumerate(order)}
        deg, _, by_degree, _, _ = self._blue_index()
        blue = self.blue
        # (old start, width mask, new start) of each run; a vertex is
        # copied run by run only if it has more blue neighbours than
        # there are runs, so the list stops at the largest degree
        most = deg[by_degree[0]] if by_degree else 0
        runs: list[tuple[int, int, int]] = []
        start = 0
        for i in range(1, len(order) + 1):
            if i < len(order) and order[i] == order[i - 1] + 1:
                continue
            runs.append((order[start], (1 << (i - start)) - 1, start))
            if len(runs) >= most:
                break
            start = i
        n_runs = len(runs)
        out = [0] * len(order)
        out_deg = [0] * len(order)
        for i, v in enumerate(order):
            d = deg[v]
            if d == 1:
                j = pos.get(blue[v].bit_length() - 1)
                if j is not None:
                    out[i] = 1 << j
                    out_deg[i] = 1
            elif d > n_runs:
                m = blue[v]
                nm = 0
                for lo, width, new_lo in runs:
                    nm |= ((m >> lo) & width) << new_lo
                out[i] = nm
                out_deg[i] = nm.bit_count()
            elif d:
                nm = k = 0
                for w in counted_bits(blue[v], d):
                    j = pos.get(w)
                    if j is not None:
                        nm |= 1 << j
                        k += 1
                out[i] = nm
                out_deg[i] = k
        H = ColouredGraph(len(order), out, validate=False)
        H._degrees = out_deg
        if self._triangle and self._triangle[0]:
            H._triangle = self._triangle
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

    Twins are never blue-adjacent and share their neighbours, so it is
    enough to look for a triangle between the representatives of
    ``G.blue_classes()``; a vertex of blue degree below 2 lies on no
    triangle and is left unclassed.  Leaving it out keeps the witness: it
    has at most one neighbour, so it is never a or b of an edge with a
    common neighbour, nor the common neighbour c of a, b.

    The verdict is kept on G, whose masks never change, so a second call
    reads it.  A subgraph that ``G.induced`` copies out of a G found
    triangle free starts with the verdict ``(True, None)``: the property
    is hereditary, since a triangle of the subgraph is one of G.

    Cost of a first call: the class index (built once per graph, one
    O(1) fingerprint and one compare or popcount per vertex read), then
    one N-bit AND per representative and one per blue edge between
    representatives, O(E * N / 64) word operations for E such edges.  A
    blow-up of a few red cliques has a handful of representatives; on a
    twin-free host every vertex of degree 2 or more is one.  The
    representatives a are tried in order, then their neighbours b > a
    among them in order; the witness is the first such edge's lowest
    common representative.  Classes are numbered by their first vertex,
    so this is the first triangle of the class graph in class order.
    """
    if G._triangle is None:
        G._triangle = _first_blue_triangle(G)
    return G._triangle


def _first_blue_triangle(G: ColouredGraph) -> tuple[bool, Optional[tuple]]:
    """``is_blue_triangle_free``'s walk over the class representatives."""
    reps = G.blue_classes()[1]
    blue, rep_mask = G.blue, mask_of(reps)
    for a in reps:
        adj_a = blue[a] & rep_mask
        for b in iter_bits(adj_a >> (a + 1)):
            b += a + 1
            common = adj_a & blue[b]
            if common:
                return False, (a, b, (common & -common).bit_length() - 1)
    return True, None


def require_blue_triangle_free(G: ColouredGraph) -> None:
    """The triangle-free hypothesis: a ``HypothesisError("triangle-free")``
    whose witness is ``is_blue_triangle_free``'s triangle, if G has one."""
    ok, tri = is_blue_triangle_free(G)
    if not ok:
        raise HypothesisError("triangle-free", f"blue triangle {tri}", witness=tri)


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
    m-clique may still lie in the pool.  A pool with a bit outside
    0..N-1, or m below 1, raises ValueError.

    Cost: a vertex with no blue neighbour is never discarded and
    discards nothing, so each one in the pool is a pick, listed at once.
    Only the pool's other vertices below the m-th such pick are walked.
    A pick marks its discarded neighbour by ``bit_length`` at degree 1,
    and its neighbours by ``counted_bits`` above; after a pick of degree
    above N/256, clearing a candidate mask (one N-bit operation per
    pick) is the cheaper way to go on.  The first m picks are a sort of
    the two sorted lists.
    """
    N = G.n_vertices
    if pool >> N:
        raise ValueError(f"the pool must lie in 0..{N - 1}")
    if m <= 0:
        raise ValueError("clique size must be positive")
    deg, blue = G.blue_degrees(), G.blue
    support = G.blue_at_least(1)
    free = bits_list(pool & ~support)  # red to every vertex
    # no pick above the m-th free one can be among the first m picks
    walk = pool & support
    if len(free) >= m:
        walk &= (1 << free[m - 1]) - 1
    picks: list[int] = []
    marked = bytearray(N)
    cand = 0
    for v in iter_bits(walk):
        if marked[v]:
            continue
        picks.append(v)
        if len(picks) == m:
            break
        d = deg[v]
        if d << 8 > N:
            # the free vertices below v are picks; those above it are
            # left in the candidate mask
            below = bisect_right(free, v)
            if below + len(picks) >= m:
                break
            del free[below:]
            cand = pool & ~((2 << v) - 1)
            for p in picks:
                cand &= ~blue[p]
            break
        if d == 1:
            marked[blue[v].bit_length() - 1] = 1
        else:
            for w in counted_bits(blue[v], d):
                marked[w] = 1
    while cand and len(free) + len(picks) < m:
        v = (cand & -cand).bit_length() - 1
        picks.append(v)
        cand &= ~(bit(v) | blue[v])
    if len(free) + len(picks) < m:
        return None
    return tuple(sorted(free + picks)[:m])


def heaviest_blue_star(G: ColouredGraph, pool: int, t: int) -> Optional[tuple[int, int]]:
    """The first vertex of G with the most blue neighbours in the pool,
    and that count, if it is t or more; else None.  From t = 2 on only
    class representatives are read: a class shares one mask, and every
    vertex of degree 2 or more is classed.  Cost: one N-bit AND per read
    vertex whose whole blue degree beats the best count so far.
    """
    deg = G.blue_degrees()
    best_v, best_d = -1, t - 1
    for v in G.blue_classes()[1] if t >= 2 else range(G.n_vertices):
        if deg[v] > best_d:
            d = (G.blue[v] & pool).bit_count()
            if d > best_d:
                best_v, best_d = v, d
    return (best_v, best_d) if best_v >= 0 else None


def max_disjoint_red_cliques(
    G: ColouredGraph, A: int, m: int
) -> list[tuple[int, ...]]:
    """Pairwise-disjoint red m-cliques inside mask A, by cheap passes only.

    The family is not maximal: the leftover may still hold a red
    m-clique.  What it promises, when the blue graph is triangle free, is
    that no vertex of G has m blue neighbours in the leftover, since in
    such a graph every blue neighbourhood is a red clique;
    ``verify_decomposition`` checks it on the final remainder.  The
    passes, per clique: if the residual is all red, cliques are cut off
    its low end; if it is not and holds exactly m vertices, it is no
    vertex's blue star, and the family ends; the heaviest blue star of m
    or more vertices in the residual is harvested, and once there is
    none the promise holds; then a greedy sweep (``find_red_clique``)
    picks up a clique that sparse blue noise leaves lying around, and
    the family ends when it finds none.

    Cost per clique, in N-bit ANDs once per blue class and per unclassed
    vertex of degree 1: the all-red check, over the residual vertices
    with a blue neighbour (none on an all-red host); the star harvest
    (``heaviest_blue_star``) and the red test of the harvested star;
    then the sweep, a walk over the residual's vertices with a blue
    neighbour (``find_red_clique``).  The dense route's sparse
    hosts end on a residual of exactly m, settled by the check.
    """
    if m <= 0:
        raise ValueError("clique size must be positive")
    cliques: list[tuple[int, ...]] = []
    residual = A
    while (size := residual.bit_count()) >= m:
        # all-red fast path
        if not G.has_blue_into(residual, residual):
            while residual.bit_count() >= m:
                take = lowest_bits(residual, m)
                cliques.append(tuple(bits_list(take)))
                residual &= ~take
            break
        if size == m:
            # the only m-set is the residual itself, and it is not red
            break
        # blue-star harvest: the blue neighbourhood of any vertex is red
        if star := heaviest_blue_star(G, residual, m):
            take = lowest_bits(G.blue[star[0]] & residual, m)
            if not G.has_blue_into(take, take):
                cliques.append(tuple(bits_list(take)))
                residual &= ~take
                continue
            # the star was not red after all: the blue graph has a triangle
            # through its centre, and the promise is void; sweep all the same
        got = find_red_clique(G, residual, m)
        if got is None:
            break
        cliques.append(got)
        residual &= ~mask_of(got)
    return cliques


def max_balanced_biclique(
    G: ColouredGraph, M1: Iterable[int], M2: Iterable[int], cap: int
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """A red complete bipartite K_{w,w} between M1 and M2, found by two
    prefix walks: a lower bound on the largest such w, not a search.

    Returns (min(w, cap), X, Y) with X from M1 and Y from M2, sorted
    tuples of that size, every cross pair red; a cap of
    min(len(M1), len(M2)) is no cap.
    Each walk runs through one side in increasing blue-cross order and
    keeps the other side red to the whole prefix; the second walk runs
    only while the first stays below the cap, so a result below the cap
    is final: a larger cap returns the same one.  The largest balanced
    biclique is NP-hard, and no caller needs it.  The name is kept
    because the benchmark's tracer wraps the function by name.

    Cost: per side, one N-bit red row and popcount per blue class the
    side meets and per vertex outside the classes, and a list read per
    vertex; then the walks' sorts, by popcount, in C.  A class's rows are
    one object, so the sorted order holds them in runs, and a prefix walk
    pays one N-bit AND and popcount per run, grouped in C; on a blow-up
    it costs a few masks.
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
    limit = min(len(side1), len(side2), cap)

    class_of, reps = G.blue_classes()

    def prefix_walk(rows, col_mask):
        # walk rows in increasing blue-cross order, keeping col_mask red to
        # the whole prefix (a planted block floats to the front); each
        # prefix is a biclique.  Rows are of the red view (the sides are
        # disjoint, so no vertex meets itself); a class's rows share one
        # row object and one popcount
        blue = G.blue
        cls = list(map(class_of.__getitem__, rows))
        row_of = {c: col_mask & ~blue[reps[c]] for c in set(cls) - {-1}}
        size_of = {c: -row.bit_count() for c, row in row_of.items()}
        adj = [row_of[c] if c >= 0 else col_mask & ~blue[u] for u, c in zip(rows, cls)]
        keys = [size_of[c] if c >= 0 else -row.bit_count() for row, c in zip(adj, cls)]
        # a stable sort of positions in the sorted side: ties keep vertex order
        order = sorted(range(len(rows)), key=keys.__getitem__)
        # common only shrinks, so every improvement is a whole prefix:
        # w = idx + 1, and the best rows are sliced once at the end.  Over
        # a run of one row object common stays put, so w = min(idx + 1,
        # size) is largest at the run's end: one step per run.  The run's
        # first row is ANDed before the rest is counted, so the run that
        # empties common is not read through
        common, end = col_mask, 0
        best_w, best_common = 0, 0
        for _, run in groupby(map(adj.__getitem__, order), key=id):
            common &= next(run)
            if not common:
                break
            end += 1 + len(list(run))
            w = min(end, common.bit_count())
            if w > best_w:
                best_w, best_common = w, common
        return best_w, [rows[k] for k in order[:best_w]], best_common

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
    target edge, whichever comes first.  Fewer than 2 vertices hold no
    pair, so the graph comes back edgeless at once.
    """
    blue = [0] * n_vertices
    if n_vertices < 2:
        return ColouredGraph(n_vertices, blue, validate=False)
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
    free: list[int],
    order: Iterable[int],
    image,
    taken: bytearray,
    blocked_of: Callable[[int], Optional[int]],
    blockable: Sequence[int],
) -> int:
    """Place the cube vertices of ``order`` in turn, first fit.

    Each cube vertex z takes the first vertex of the sorted list ``free``
    that is neither set in ``taken`` nor in the mask ``blocked_of(z)``
    (None or 0 blocks nothing); ``image[z]`` and ``taken`` are updated in
    place.  Returns how many cube vertices were placed: the walk stops at
    the first one that finds no vertex.  ``blockable[v]`` is falsy
    wherever no mask ``blocked_of`` gives can hold v.  ``blocked_of``
    must be pure: it is asked at most once per cube vertex z, before z is
    placed, and only when z's walk meets an untaken vertex v with
    ``blockable[v]`` truthy; a cube vertex whose first untaken vertex
    cannot be blocked takes it unasked.

    Cost: a cursor walks ``free`` past the taken vertices and never moves
    back, so it only ever passes vertices no later cube vertex can take.
    A cube vertex takes the vertex at the cursor after one ``blockable``
    read, unless that vertex is blockable and in its mask; then it walks
    on past the taken and blocked vertices, one N-bit bit test per
    blockable vertex it meets.  In all the walk costs O(len(order) +
    len(free)) plus one ``blocked_of`` call per cube vertex that meets a
    blockable vertex and those bit tests.
    """
    cursor, end = 0, len(free)
    placed = 0
    for z in order:
        while cursor < end and taken[free[cursor]]:
            cursor += 1
        i = cursor
        if i < end and blockable[free[i]]:
            blocked = blocked_of(z)
            if blocked:
                while i < end and (
                    taken[v := free[i]] or (blockable[v] and (blocked >> v) & 1)
                ):
                    i += 1
        if i == end:
            break
        v = free[i]
        image[z] = v
        taken[v] = 1
        placed += 1
    return placed


def placed_blue(G: ColouredGraph, n: int, image: list[int]):
    """``first_fit``'s ``blocked_of`` for a red cube: the OR of the blue
    masks of z's cube neighbours placed so far in ``image`` (-1 where
    unplaced).  Its masks hold only vertices with a blue neighbour, so
    ``G.blue`` is their ``blockable``.  Cost per call: n list reads and
    one N-bit OR per placed neighbour with a blue neighbour."""
    blue = G.blue

    def blocked_of(z: int) -> int:
        blocked = 0
        for p in range(n):
            img = image[z ^ (1 << p)]
            if img >= 0 and blue[img]:
                blocked |= blue[img]
        return blocked

    return blocked_of


def verify_red_embedding(G: ColouredGraph, n: int, phi: dict[int, int]) -> Verdict:
    """Check that phi maps the cube vertices injectively onto red edges.

    Every cube vertex must be in phi, and every cube edge must land on a
    red pair of G.  A phi that misses a cube vertex is a malformed input,
    not a failed verification, and raises ValueError.

    Cost: the images are read in cube order by one C-level pass, which
    stops at a missing cube vertex; such a map is refused after one pass
    over its keys.  Their range and injectivity cost ``min``, ``max`` and
    a set; only a map that fails them is walked in cube order, listing
    its out-of-range and repeated images.  Then ``mask_of`` of the
    in-range images and, if none is shared, ``has_blue_into`` of that
    mask with itself: if no image is blue to another, no edge is tested.
    Otherwise, per cube vertex, one AND of its image's blue mask with the
    image mask (N bits); the n edge tests at that image follow only
    where the AND is nonzero or the image is shared.  An edge test is one
    bit of the AND, an N-bit shift.
    """
    size, N = 1 << n, G.n_vertices
    try:
        images: list = list(map(phi.__getitem__, range(size)))
    except KeyError:
        # k in-range keys leave 2^n - k cube vertices out, the first
        # among 0..k, so a short map costs O(len(phi)) at any n
        defined = sum(1 for z in phi if 0 <= z < size)
        first = next(z for z in range(defined + 1) if z not in phi)
        raise ValueError(
            f"phi is only partially defined: {size - defined} cube "
            f"vertices missing, first {first}"
        ) from None
    errors: list[str] = []
    shared: set[int] = set()
    if min(images) >= 0 and max(images) < N and len(set(images)) == size:
        image_mask = mask_of(images)
        if not G.has_blue_into(image_mask, image_mask):
            return Verdict(errors)
    else:
        seen: dict[int, int] = {}
        for z, v in enumerate(images):
            if not 0 <= v < N:
                errors.append(f"cube vertex {z} maps to out-of-range vertex {v}")
                # an edge at an out-of-range image is reported with that
                # image alone
                images[z] = None
                continue
            if v in seen:
                errors.append(f"cube vertices {seen[v]} and {z} both map to {v}")
                shared.add(v)
            seen[v] = z
        image_mask = mask_of(seen)
    blue = G.blue
    for z, a in enumerate(images):
        if a is None:
            continue
        # an image red to every other image is red to those of z's
        # neighbours: no edge test
        hits = blue[a] & image_mask
        if not hits and a not in shared:
            continue
        for i in range(n):
            w = z ^ (1 << i)
            if w < z or (b := images[w]) is None:
                continue
            if a != b and not (hits >> b) & 1:
                continue
            errors.append(f"cube edge {z}-{w} lands on non-red pair {a}-{b}")
            if len(errors) >= 20:
                return Verdict(errors)
    return Verdict(errors)
