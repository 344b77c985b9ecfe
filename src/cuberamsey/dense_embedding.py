"""Embedding the cube into a dense part of a triangle-free blue colouring.

The plan assigns disjoint initial subcubes to large red cliques (a
*partial assignment*), growing the assignment through alternating
extension and cleaning passes, and finally embeds subcube by subcube.
Because each candidate set is a red clique, the only constraints felt
during the per-subcube greedy embedding come from cube edges that cross
between subcubes, and the cleaning passes cap exactly those.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil
from typing import Optional, Union

from .bits import bit, bits_list, iter_bits, lowest_bits, mask_of
from .colored_graph import (
    ColouredGraph,
    first_fit,
    is_blue_triangle_free,
    placed_blue,
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
    """ceil((1+gamma) * 2^(n-d)): the exact required candidate-set size."""
    return ceil((1 + gamma) * (1 << (n - d)))


@dataclass(frozen=True)
class AssignmentEntry:
    """One assigned subcube with its candidate red clique."""

    subcube: InitialSubcube
    members: tuple[int, ...]

    @property
    def codim(self) -> int:
        return self.subcube.codim

    @cached_property
    def mask(self) -> int:
        return mask_of(self.members)


@dataclass(frozen=True)
class PartialAssignment:
    """A sequence of assigned subcubes with nondecreasing codimension.

    Entry order matters: the cross-degree condition is one-sided, each
    later candidate set having small blue degree into every earlier,
    cube-adjacent one.
    """

    entries: tuple[AssignmentEntry, ...]
    gamma: Fraction

    def __post_init__(self):
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if not 0 < self.gamma < 1:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        object.__setattr__(self, "entries", tuple(self.entries))

    @classmethod
    def empty(cls, gamma) -> "PartialAssignment":
        return cls((), gamma)

    @cached_property
    def used(self) -> int:
        m = 0
        for e in self.entries:
            m |= e.mask
        return m


def check_partial_assignment(
    H: ColouredGraph, pa: PartialAssignment, n: int
) -> tuple[bool, Optional[str], Optional[str]]:
    """Validate a partial assignment against its defining clauses.

    Returns (True, None, None) or (False, clause, detail) where clause is
    one of "a" (ordering and exact sizes), "b" (disjoint red cliques),
    "c" (disjoint subcubes), "2.1" (cross-degree condition).
    """
    g = pa.gamma
    prev_d = 0
    for i, e in enumerate(pa.entries):
        d = e.codim
        if d < prev_d:
            return False, "a", f"entry {i} has codimension {d} after {prev_d}"
        if d > n:
            return False, "a", f"entry {i} has codimension {d} beyond n={n}"
        prev_d = d
        want = candidate_set_size(g, n, d)
        if len(e.members) != want:
            return False, "a", (
                f"entry {i} has {len(e.members)} members, needs exactly {want}"
            )
        if len(set(e.members)) != len(e.members):
            return False, "b", f"entry {i} repeats a member"
        if not all(0 <= v < H.n_vertices for v in e.members):
            return False, "b", f"entry {i} mentions out-of-range vertices"
        if not H.is_red_clique(e.members):
            return False, "b", f"members of entry {i} are not a red clique"
    for i in range(len(pa.entries)):
        for j in range(i + 1, len(pa.entries)):
            if pa.entries[i].mask & pa.entries[j].mask:
                return False, "b", f"entries {i} and {j} share vertices"
            if subcube_distance(pa.entries[i].subcube, pa.entries[j].subcube) == 0:
                return False, "c", f"subcubes of entries {i} and {j} overlap"
    for i in range(len(pa.entries)):
        ei = pa.entries[i]
        thr = g * (1 << (n - ei.codim)) / ei.codim if ei.codim else None
        mi = ei.mask
        for j in range(i + 1, len(pa.entries)):
            ej = pa.entries[j]
            if subcube_distance(ei.subcube, ej.subcube) != 1:
                continue
            for v in ej.members:
                if thr is None or Fraction((H.blue[v] & mi).bit_count()) > thr:
                    return False, "2.1", (
                        f"vertex {v} of entry {j} has blue degree "
                        f"{(H.blue[v] & mi).bit_count()} into entry {i}, "
                        f"threshold {thr}"
                    )
    return True, None, None


def embed_partial_assignment(
    H: ColouredGraph, pa: PartialAssignment, n: int
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
    for e in reversed(pa.entries):
        zs = subcube_vertices(e.subcube, n)
        # read from the mask, so a negative member raises ValueError
        free = bits_list(e.mask)
        if free and free[-1] >= H.n_vertices:
            raise ValueError(f"vertices must lie in 0..{H.n_vertices - 1}")
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
    """Extension outcome: the assignment with its new entry last."""

    assignment: PartialAssignment


@dataclass(frozen=True)
class Cleaned:
    """Cleaning outcome: the active set shrank to the mask C."""

    mask: int


def extend_or_clean(
    H: ColouredGraph,
    pa: PartialAssignment,
    A: int,
    a: int,
    b: int,
    n: int,
) -> Union[Extended, Cleaned]:
    """One step of the assignment loop at codimension b.

    Requires every assigned vertex to have blue degree at most 2^(n-a)
    into the active mask A.  Picks the first unassigned subcube y of
    codimension b, removes from A every vertex too blue towards a
    candidate set whose subcube touches y, and then either extends the
    assignment with a blue neighbourhood inside the remainder (a red
    clique, since blue is triangle free) or returns the cleaned set.
    Violated hypotheses surface as structured errors naming the broken
    condition.

    Cost: y is the first cell of ``complement_cells``.  Only assigned
    vertices of whole blue degree above 2^(n-a), and vertices of A in the
    blue masks of a touching candidate set, get a degree test, so a host
    of small degrees pays per touching set, not per vertex of A.
    """
    if a < 1:
        raise HypothesisError("threshold-range", f"need a >= 1, got a={a}")
    if not 1 <= b <= n:
        raise HypothesisError(
            "threshold-range", f"need 1 <= b <= n, got b={b} n={n}"
        )
    if pa.entries and pa.entries[-1].codim > b:
        raise HypothesisError(
            "codimension-order",
            f"assigned codimension {pa.entries[-1].codim} exceeds b={b}",
        )
    used = pa.used
    if A & used:
        raise HypothesisError(
            "active-overlap",
            "the active set meets an assigned candidate set",
            witness=(A & used & -(A & used)).bit_length() - 1,
        )
    g = pa.gamma
    cap = 1 << (n - a)
    # a blue degree into A is at most the whole blue degree, so only the
    # assigned vertices whose whole degree is above the cap are tested
    for v in iter_bits(used & H.blue_at_least(cap + 1)):
        d = (H.blue[v] & A).bit_count()
        if d > cap:
            raise HypothesisError(
                "active-degree",
                f"assigned vertex {v} has blue degree {d} into the "
                f"active set, above 2^(n-a) = {cap}",
                witness=v,
            )

    # the entries' subcubes are disjoint by construction
    y = next(complement_cells([e.subcube for e in pa.entries], n, b), None)
    if y is None:
        raise HypothesisError(
            "cube-covered", "the assigned subcubes already cover the cube"
        )

    # a vertex blue to a candidate set lies in its members' blue masks, so
    # each degree test below walks only those, not all of A
    removed = 0
    for e in pa.entries:
        if subcube_distance(e.subcube, y) != 1:
            continue
        # d >= thr as d * thr.denominator >= thr.numerator, exactly
        thr = g * (1 << (n - e.codim)) / e.codim
        thr_num, thr_den = thr.numerator, thr.denominator
        mi = e.mask
        reach = 0
        for u in e.members:
            reach |= H.blue[u]
        for v in iter_bits(A & reach):
            if (H.blue[v] & mi).bit_count() * thr_den >= thr_num:
                removed |= bit(v)
    C = A & ~removed

    # the cleaning can only discard so much: each touching candidate set
    # receives at most |S_i| * 2^(n-a) blue edges from A, and membership
    # in the removed set costs (g/d_i) * 2^(n-d_i) of them
    allowance = (b * b / g) * (1 << (n - a + 1))
    if removed.bit_count() > allowance:
        raise AssertionError(
            "cleaning removed more than the degree hypothesis permits"
        )

    need = 1 << (n - b + 1)
    size = candidate_set_size(g, n, b)
    for u in iter_bits(H.blue_at_least(need)):
        nb = H.blue[u] & C
        if nb.bit_count() >= need:
            members = tuple(bits_list(lowest_bits(nb, size)))
            entry = AssignmentEntry(y, members)
            return Extended(PartialAssignment(pa.entries + (entry,), g))
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
    H: ColouredGraph,
    n: int,
    gamma,
    schedule: ThresholdSchedule,
) -> dict[int, int]:
    """Embed all of Q_n into H along a grown partial assignment.

    H must be blue triangle free with every blue degree at most
    2^(n - b_0) and at least ceil((1+3*gamma)*2^n) vertices, and the last
    threshold must satisfy b_{k+1} + 1 <= n.  Cube vertices left outside
    the assigned subcubes are embedded greedily, in bandwidth order, into
    the final cleaned set (``complete_greedily``).

    Cost, beyond the hypothesis checks (``is_blue_triangle_free``, the
    degree index) and one ``extend_or_clean`` per extension or cleaning,
    whose N-bit work is per touching candidate set, not per entry: the
    leftover cube vertices are one ``bits_list`` of the uncovered mask,
    and the placements (``first_fit`` walks) do N-bit work only for a
    cube vertex whose walk meets a vertex with a blue neighbour.  On a
    sparse host they are O(2^n + N) plus, for each such cube vertex, n
    list reads, one N-bit OR per placed neighbour with a blue neighbour
    and one N-bit bit test per blockable vertex the walk meets.
    """
    pa = PartialAssignment.empty(gamma)
    if schedule.b[-1] + 1 > n:
        raise HypothesisError(
            "schedule-depth",
            f"b_k+1 + 1 = {schedule.b[-1] + 1} exceeds the dimension {n}",
        )
    need = ceil((1 + 3 * pa.gamma) * (1 << n))
    if H.n_vertices < need:
        raise HypothesisError(
            "order",
            f"host has {H.n_vertices} vertices, needs {need}",
        )
    cap = 1 << (n - schedule.b[0])
    if over := H.blue_at_least(cap + 1):
        v = (over & -over).bit_length() - 1
        raise HypothesisError(
            "max-degree",
            f"vertex {v} has blue degree {H.blue_degrees()[v]}, "
            f"above 2^(n - b_0) = {cap}",
            witness=v,
        )
    ok, tri = is_blue_triangle_free(H)
    if not ok:
        raise HypothesisError(
            "triangle-free", f"blue triangle {tri}", witness=tri
        )

    A = H.full_mask
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
        while covered != full_cube:
            step = extend_or_clean(H, pa, A, a, bb, n)
            if isinstance(step, Extended):
                pa = step.assignment
                A &= ~pa.entries[-1].mask
                covered |= mask_of(subcube_vertices(pa.entries[-1].subcube, n))
            else:
                A = step.mask
                break

    phi = embed_partial_assignment(H, pa, n)
    residual = bits_list(full_cube & ~covered)
    try:
        return complete_greedily(
            H, n, phi, A, A & ~pa.used, bandwidth_order(residual)
        )
    except StageFailure as e:
        e.data.update(passes=passes_run, extensions=len(pa.entries))
        raise


def complete_greedily(
    H: ColouredGraph, n: int, phi: dict[int, int], A: int, pool: int, order: list[int]
) -> dict[int, int]:
    """Place the cube vertices of ``order``, in that order, into the pool.

    Each takes the lowest pool vertex outside the blue masks of its
    placed neighbours' images; ``phi`` is extended in place and returned.
    ``A`` is the cleaned set the pool was cut from; a cube vertex that
    finds no vertex is a ``StageFailure("greedy-completion")`` whose data
    carries it and the counting slack over A.

    Cost: the walk of ``first_fit`` over the pool list, with ``H.blue``
    as ``blockable``.  A cube vertex whose first free pool vertex has no
    blue neighbour takes it at once; any other pays ``placed_blue``, n
    list reads and one N-bit OR per placed neighbour with a blue
    neighbour, then one N-bit bit test per blockable vertex it meets.
    """
    image = [-1] * (1 << n)
    for z, v in phi.items():
        image[z] = v
    placed = first_fit(
        bits_list(pool), order, image, bytearray(H.n_vertices),
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
        # exhaustion means the blocked sets cover the whole remaining
        # pool, so the count can never come out positive
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
