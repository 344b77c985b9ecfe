"""Embedding the cube into a dense part of a triangle-free blue colouring.

The plan assigns disjoint initial subcubes to large red cliques (a
*partial assignment*), growing the assignment through alternating
extension and cleaning passes, and finally embeds subcube by subcube.
Because each candidate set is a red clique, the only constraints felt
during the per-subcube greedy embedding come from cube edges that cross
between subcubes, and the cleaning passes cap exactly those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import ceil
from typing import Union

from .bits import bit, bits_list, iter_bits, lowest_bits, mask_of
from .colored_graph import (
    ColouredGraph,
    first_fit,
    placed_blue,
    require_blue_triangle_free,
)
from .errors import HypothesisError, StageFailure
from .hypercube import (
    InitialSubcube,
    bandwidth_order,
    complement_cells,
    subcube_distance,
    subcube_vertices,
)


def candidate_set_size(gamma: Fraction, n: int, d: int) -> int:
    """ceil((1+gamma) * 2^(n-d)): the exact required candidate-set size,
    in integers: a ceiling division by gamma's denominator."""
    num, den = gamma.numerator, gamma.denominator
    return -(-((den + num) << (n - d)) // den)


@dataclass(frozen=True)
class AssignmentEntry:
    """One assigned subcube with its candidate red clique.

    ``reach`` is the OR of the members' blue masks in the host: every
    vertex with a blue neighbour in the clique.  The host never changes,
    so ``on`` builds it once, when the entry is made.
    """

    subcube: InitialSubcube
    members: tuple[int, ...]
    reach: int = field(repr=False)

    @classmethod
    def on(
        cls, H: ColouredGraph, subcube: InitialSubcube, members
    ) -> "AssignmentEntry":
        """The entry of ``members`` for ``subcube``, with its reach in H."""
        reach = 0
        for u in members:
            reach |= H.blue[u]
        return cls(subcube, tuple(members), reach)

    @property
    def codim(self) -> int:
        return self.subcube.codim

    @cached_property
    def mask(self) -> int:
        return mask_of(self.members)


def embed_partial_assignment(
    H: ColouredGraph, entries: list[AssignmentEntry], n: int
) -> dict[int, int]:
    """Embed every assigned subcube into its candidate set.

    Subcubes are processed from last entry to first, vertices of each in
    increasing word order, and each cube vertex takes the lowest-index
    unused candidate that is red towards all already-embedded cube
    neighbours (``first_fit``).  On a valid assignment a candidate always
    exists: blue blocking is at most gamma * 2^(n-d) and within-set
    blocking at most 2^(n-d) - 1, together below the candidate-set size.
    """
    phi: dict[int, int] = {}
    image = [-1] * (1 << n)
    taken = bytearray(H.n_vertices)
    blocked_of = placed_blue(H, n, image)
    for e in reversed(entries):
        zs = subcube_vertices(e.subcube, n)
        free = bits_list(e.mask)
        placed = first_fit(free, zs, image, taken, blocked_of, H.blue)
        if placed < len(zs):
            raise StageFailure(
                "partial-embedding",
                f"no candidate left for cube vertex {zs[placed]} in subcube "
                f"{e.subcube.prefix}",
                data={"cube_vertex": zs[placed], "entry": e},
            )
        phi.update((z, image[z]) for z in zs)
    return phi


@dataclass(frozen=True)
class Extended:
    """Extension outcome: the new entry, to be appended last."""

    entry: AssignmentEntry


@dataclass(frozen=True)
class Cleaned:
    """Cleaning outcome: the active set shrank to the mask C."""

    mask: int


def extend_or_clean(
    H: ColouredGraph,
    entries: list[AssignmentEntry],
    A: int,
    a: int,
    y: InitialSubcube,
    n: int,
    gamma: Fraction,
    centres: int,
) -> Union[Extended, Cleaned]:
    """One step of the assignment loop at the free cell y, of codimension b.

    Requires every assigned vertex to have blue degree at most 2^(n-a)
    into the active mask A.  Removes from A every vertex too blue
    towards a candidate set whose subcube touches y, and then either
    returns a new entry for y, a blue neighbourhood inside the remainder
    (a red clique, since blue is triangle free), or the cleaned set.

    The step checks none of its hypotheses: ``dense_embed``, its one
    caller, checks them once on its pool and the schedule, and its loop
    keeps them.  The schedule gives 1 <= a and b <= n with every entry's
    codimension at most b; y is the first cell of codimension b outside
    every entry's subcube; ``centres`` is the pool's part of
    ``H.blue_at_least(2^(n-b+1))``, a superset of the vertices whose blue
    neighbourhood in A can hold a candidate set; A lies in the pool,
    loses each new entry's members and cleaning only shrinks it, so A
    misses every candidate set; the max-degree check, and after it each
    cleaned set, caps every pool vertex's blue degree into A at 2^(n-a);
    and the loop stops once the cube is covered.

    Cost: y and ``centres`` depend only on the pass, and an entry's
    reach only on the entry, so the loop derives each once.  Only
    vertices of A in the reach of a touching candidate set get a degree
    test, so a host of small degrees pays per touching set, not per
    vertex of A.  The degree thresholds and the cleaning allowance are
    compared in integers, cross-multiplied by gamma's numerator and
    denominator.
    """
    b = y.codim
    g_num, g_den = gamma.numerator, gamma.denominator
    # a vertex blue to a candidate set lies in its reach, so each degree
    # test below walks only that, not all of A
    removed = 0
    for e in entries:
        if subcube_distance(e.subcube, y) != 1:
            continue
        # removed at gamma * 2^(n-d) / d blue neighbours in the set or more
        d = e.codim
        thr_num, thr_den = g_num << (n - d), d * g_den
        mi = e.mask
        for v in iter_bits(A & e.reach):
            if (H.blue[v] & mi).bit_count() * thr_den >= thr_num:
                removed |= bit(v)
    C = A & ~removed

    # the cleaning can only discard so much: each touching candidate set
    # receives at most |S_i| * 2^(n-a) blue edges from A, and membership
    # in the removed set costs (gamma/d_i) * 2^(n-d_i) of them; so at most
    # (b^2 / gamma) * 2^(n-a+1) vertices go
    if removed.bit_count() * g_num > (b * b * g_den) << (n - a + 1):
        raise AssertionError(
            "cleaning removed more than the degree hypothesis permits"
        )

    need = 1 << (n - b + 1)
    for u in iter_bits(centres):
        nb = H.blue[u] & C
        if nb.bit_count() >= need:
            members = bits_list(lowest_bits(nb, candidate_set_size(gamma, n, b)))
            return Extended(AssignmentEntry.on(H, y, members))
    return Cleaned(C)


@dataclass(frozen=True)
class ThresholdSchedule:
    """Codimension thresholds b_0 <= b_1 <= ... <= b_{k+1}.

    Pass j of the assignment loop runs at codimension b_j + 1 assuming
    active degrees at most 2^(n - b_{j-1}); a cleaned pass delivers the
    next hypothesis for free.
    """

    b: tuple[int, ...]

    def __post_init__(self):
        if len(self.b) < 2:
            raise ValueError("a schedule needs at least two thresholds")
        if any(self.b[i] > self.b[i + 1] for i in range(len(self.b) - 1)):
            raise ValueError(f"thresholds must be nondecreasing: {self.b}")
        if self.b[0] < 1:
            raise ValueError("the first threshold must be at least 1")


def dense_embed(
    G: ColouredGraph,
    pool: int,
    n: int,
    gamma,
    schedule: ThresholdSchedule,
) -> dict[int, int]:
    """Embed all of Q_n into the vertex mask ``pool`` of G along a grown
    list of assignment entries.

    G must be blue triangle free, the pool must hold at least
    ceil((1+3*gamma)*2^n) vertices, each with at most 2^(n - b_0) blue
    neighbours in the pool, and the last threshold must satisfy
    b_{k+1} + 1 <= n.  Cube vertices left outside the assigned subcubes
    are embedded greedily, in bandwidth order, into the final cleaned
    set (``complete_greedily``).  The map's images are vertices of G in
    the pool.

    This is the dense route's one checkpoint: gamma must lie in (0, 1)
    and the pool in 0..N-1 (ValueErrors, raised first), and each
    hypothesis above is checked here, once, as a ``HypothesisError``;
    the witness of the degree cap is the pool's first vertex over it.
    The steps it calls, ``extend_or_clean`` and
    ``embed_partial_assignment``, check none.

    Cost, beyond the hypothesis checks (``blue_into``: one N-bit AND per
    pool vertex whose whole blue degree exceeds the cap, and
    ``is_blue_triangle_free``, which reads the verdict kept on G) and
    one ``extend_or_clean`` per extension or cleaning, whose N-bit work
    is per touching candidate set, not per entry.  Each pass derives its
    facts once: one ``complement_cells`` walk yields the free cells in
    turn, and one ``blue_at_least`` gives the vertices that can centre a
    candidate set; each entry's reach is built when it is made.  The
    leftover cube vertices are one ``bits_list`` of the uncovered mask,
    and the placements (``first_fit`` walks) do N-bit work only for a
    cube vertex whose walk meets a vertex with a blue neighbour.  On a
    sparse host they are O(2^n + N) plus, for each such cube vertex, n
    list reads, one N-bit OR per placed neighbour with a blue neighbour
    and one N-bit bit test per blockable vertex the walk meets.
    """
    gamma = Fraction(gamma)
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if pool >> G.n_vertices:
        raise ValueError(f"the pool must lie in 0..{G.n_vertices - 1}")
    if schedule.b[-1] + 1 > n:
        raise HypothesisError(
            "schedule-depth",
            f"b_k+1 + 1 = {schedule.b[-1] + 1} exceeds the dimension {n}",
        )
    need = ceil((1 + 3 * gamma) * (1 << n))
    if (size := pool.bit_count()) < need:
        raise HypothesisError(
            "order",
            f"host has {size} vertices, needs {need}",
        )
    cap = 1 << (n - schedule.b[0])
    for v, d in G.blue_into(pool, pool, cap + 1):
        raise HypothesisError(
            "max-degree",
            f"vertex {v} has blue degree {d}, above 2^(n - b_0) = {cap}",
            witness=v,
        )
    require_blue_triangle_free(G)

    # the partial assignment; order matters, since the cross-degree
    # condition bounds each later candidate set's blue degree into every
    # earlier, cube-adjacent one
    entries: list[AssignmentEntry] = []
    A = pool
    # bit z of ``covered`` marks cube vertex z as inside an assigned subcube
    covered = 0
    full_cube = (1 << (1 << n)) - 1
    passes_run = 0
    for j in range(1, len(schedule.b)):
        if covered == full_cube:
            break
        passes_run = j
        a = schedule.b[j - 1]
        bb = schedule.b[j] + 1
        # one walk of the free cells per pass: the entries' subcubes are
        # disjoint, an extension takes the walk's cell, and a cleaning
        # ends the pass, so the next free cell is always the walk's next
        # one; the loop runs only while a cube vertex is uncovered, so
        # there is one
        cells = complement_cells([e.subcube for e in entries], n, bb)
        # a vertex with fewer blue neighbours in G than that has fewer in A
        centres = G.blue_at_least(1 << (n - bb + 1)) & pool
        while covered != full_cube:
            step = extend_or_clean(G, entries, A, a, next(cells), n, gamma, centres)
            if isinstance(step, Extended):
                entries.append(step.entry)
                A &= ~step.entry.mask
                covered |= mask_of(subcube_vertices(step.entry.subcube, n))
            else:
                A = step.mask
                break

    phi = embed_partial_assignment(G, entries, n)
    residual = bits_list(full_cube & ~covered)
    try:
        return complete_greedily(G, n, phi, A, bandwidth_order(residual))
    except StageFailure as e:
        e.data.update(passes=passes_run, extensions=len(entries))
        raise


def complete_greedily(
    H: ColouredGraph, n: int, phi: dict[int, int], A: int, order: list[int]
) -> dict[int, int]:
    """Place the cube vertices of ``order``, in that order, into A.

    A, the final cleaned set, must miss every image of ``phi``.  Each
    cube vertex takes the lowest free vertex of A outside the blue masks
    of its placed neighbours' images; ``phi`` is extended in place and
    returned.  A cube vertex that finds no vertex is a
    ``StageFailure("greedy-completion")`` whose data carries it and the
    counting slack over A.

    Cost: the walk of ``first_fit`` over the list of A, with ``H.blue``
    as ``blockable``.  A cube vertex whose first free vertex of A has no
    blue neighbour takes it at once; any other pays ``placed_blue``, n
    list reads and one N-bit OR per placed neighbour with a blue
    neighbour, then one N-bit bit test per blockable vertex it meets.
    """
    image = [-1] * (1 << n)
    for z, v in phi.items():
        image[z] = v
    placed = first_fit(
        bits_list(A), order, image, bytearray(H.n_vertices),
        placed_blue(H, n, image), H.blue,
    )
    for z in order[:placed]:
        phi[z] = image[z]
    if placed < len(order):
        z = order[placed]
        neigh = [phi[z ^ (1 << p)] for p in range(n) if z ^ (1 << p) in phi]
        slack = (
            A.bit_count()
            - sum(1 for w in phi.values() if (A >> w) & 1)
            - sum((H.blue[w] & A).bit_count() for w in neigh)
        )
        # exhaustion means the blocked sets cover what is left of A, so
        # the count can never come out positive
        if slack > 0:
            raise AssertionError(
                "greedy exhaustion with positive counting slack"
            )
        raise StageFailure(
            "greedy-completion",
            f"no red-compatible vertex left for cube vertex {z}",
            data={"cube_vertex": z, "slack": slack},
        )
    return phi
