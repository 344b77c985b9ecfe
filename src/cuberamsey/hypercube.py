"""The hypercube, its initial subcubes, and a bandwidth-friendly vertex order.

A vertex of the n-dimensional cube is an integer v with 0 <= v < 2**n;
coordinate i (1-based) of the word is bit i-1 of v.  Two vertices are
adjacent when they differ in exactly one bit.

An *initial subcube* fixes a prefix of coordinates: the subcube with
prefix (x_1, ..., x_d) consists of every vertex whose coordinates
1..d equal the prefix.  Prefixes are ordered lexicographically with
x_1 most significant, so the subcube of prefix (0, 1) precedes the
subcube of prefix (1, 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import ne
from typing import Iterable, Iterator


@dataclass(frozen=True)
class InitialSubcube:
    """A subcube of Q_n obtained by fixing the first ``codim`` coordinates.

    ``prefix`` is the tuple (x_1, ..., x_d) of fixed coordinate values,
    each 0 or 1.  The empty prefix is the whole cube.
    """

    prefix: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.prefix):
            raise ValueError(f"prefix must be 0/1 valued, got {self.prefix}")

    @property
    def codim(self) -> int:
        return len(self.prefix)


def subcube_distance(x: InitialSubcube, z: InitialSubcube) -> int:
    """Number of positions where the two prefixes disagree, up to the
    shorter length.

    Distance 0 means one subcube contains the other; distance 1 means they
    are disjoint but joined by cube edges; distance >= 2 means no edge of
    the cube runs between them.  ``map`` stops at the shorter prefix.
    """
    return sum(map(ne, x.prefix, z.prefix))


def subcube_vertices(x: InitialSubcube, n: int) -> list[int]:
    """All vertices of Q_n lying in the subcube, in increasing word order."""
    codim = x.codim
    if codim > n:
        raise ValueError(f"codimension {codim} exceeds dimension {n}")
    # bit i-1 of the base holds x_i
    base = sum(b << i for i, b in enumerate(x.prefix))
    return [base | (t << codim) for t in range(1 << (n - codim))]


def complement_cells(
    members: Iterable[InitialSubcube], n: int, b: int
) -> Iterator[InitialSubcube]:
    """Partition the complement of the members into subcubes of
    codimension exactly b, generated lazily in increasing prefix order.

    A prefix disjoint from every member is refined down to codimension b
    and yielded; a prefix inside any member is dropped, so members may
    overlap; any other prefix splits on its next coordinate, 0-branch
    first.  A bad b or a member of codimension above b raises ValueError
    at the call.

    Cost: each prefix keeps only the members that agree with it, so a
    member costs a few tests per level down its own path, and the first
    cell comes after O(b * len(members)) of them.
    """
    if not 0 <= b <= n:
        raise ValueError(f"target codimension {b} out of range for n={n}")
    prefixes = [x.prefix for x in members]
    if deep := [p for p in prefixes if len(p) > b]:
        raise ValueError(f"member of codimension {len(deep[0])} exceeds {b}")

    def cells() -> Iterator[InitialSubcube]:
        stack = [((), prefixes)]
        while stack:
            prefix, live = stack.pop()
            d = len(prefix)
            if not live and d == b:
                yield InitialSubcube(prefix)
            # a live member of codimension <= d contains the prefix
            elif all(len(p) > d for p in live):
                # the 0-branch goes on top, so it is walked first
                stack.append((prefix + (1,), [p for p in live if p[d]]))
                stack.append((prefix + (0,), [p for p in live if not p[d]]))

    return cells()


def partition_complement(
    members: Iterable[InitialSubcube], n: int, b: int
) -> list[InitialSubcube]:
    """``complement_cells`` read in full: the complement of the members
    as subcubes of codimension exactly b, in increasing prefix order."""
    return list(complement_cells(members, n, b))


def bandwidth_order(vertices: Iterable[int]) -> list[int]:
    """Order cube vertices by (number of set bits, word value), by two C sorts.

    Along this order every cube edge joins consecutive weight levels, so the
    index gap across an edge is at most the size of two adjacent levels.
    """
    return sorted(sorted(vertices), key=int.bit_count)


def bandwidth_bound(n: int) -> int:
    """2 * C(n, floor(n/2)): an upper bound for the index gap across any
    edge of Q_n under ``bandwidth_order``."""
    return 2 * comb(n, n // 2)
