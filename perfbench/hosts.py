"""Seeded host colourings and the benchmark's own output checks.

A host is a list of blue adjacency masks over N vertices; every pair not
blue is red.  The generators here are the benchmark's own, so a change
to the package's generators never changes what the benchmark measures,
and the checks here share no code with the package, so a change to the
package's verifiers cannot make a wrong answer pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import ceil, comb


@dataclass(frozen=True, eq=False)
class Host:
    """A generated colouring: ``label`` names its family and size.

    Hosts compare and hash by identity: hashing the masks of a large
    host would cost as much as reading it.
    """

    label: str
    blue: tuple[int, ...]

    @property
    def N(self) -> int:
        return len(self.blue)


def _from_edges(N: int, edges) -> list[int]:
    blue = [0] * N
    for u, v in edges:
        blue[u] |= 1 << v
        blue[v] |= 1 << u
    return blue


def two_clique_shuffled(n: int, rng: random.Random) -> Host:
    """Two red 2^(n+1)-cliques, blue across except a planted red biclique
    of side 2*C(n, n//2), under a random vertex labelling."""
    m = 1 << (n + 1)
    b = 2 * comb(n, n // 2)
    labels = [0] * b + [1] * (m - b) + [2] * b + [3] * (m - b)
    rng.shuffle(labels)
    group = [0] * 4
    for v, g in enumerate(labels):
        group[g] |= 1 << v
    # groups 0 and 2 are the planted sides: red to each other
    blue_of = (group[3], group[2] | group[3], group[1], group[0] | group[1])
    return Host(f"two-clique n={n}", tuple(blue_of[g] for g in labels))


def all_red(n: int) -> Host:
    """No blue edge at all, on ceil(1.25 * 2^(n+1)) vertices."""
    return Host(f"all-red n={n}", (0,) * ceil(1.25 * (1 << (n + 1))))


def triangle_free_greedy(
    n: int, N: int, target_edges: int, rng: random.Random
) -> Host:
    """Random blue edges, skipping any that would close a blue triangle,
    until ``target_edges`` are in or 60 * target_edges draws are spent."""
    blue = [0] * N
    added = 0
    for _ in range(60 * max(target_edges, 1)):
        if added >= target_edges:
            break
        u = rng.randrange(N)
        v = rng.randrange(N)
        if u == v or (blue[u] >> v) & 1 or blue[u] & blue[v]:
            continue
        blue[u] |= 1 << v
        blue[v] |= 1 << u
        added += 1
    return Host(f"greedy n={n} N={N} e={target_edges}", tuple(blue))


def bipartite_blue(
    n: int, N: int, p: float, rng: random.Random, index: int | None = None
) -> Host:
    """Blue edges only between the two halves, each with probability p;
    ``index`` tells apart hosts of one size in a label."""
    half = N // 2
    edges = [
        (u, v) for u in range(half) for v in range(half, N) if rng.random() < p
    ]
    label = f"bipartite n={n} N={N} p={p}" + (f" #{index}" if index is not None else "")
    return Host(label, tuple(_from_edges(N, edges)))


def bridged_lower_bound(n: int, rng: random.Random) -> Host:
    """Two red (2^n - 1)-cliques, blue across except one red bridge pair,
    under a random vertex labelling.

    Blue stays complete bipartite minus an edge, so triangle free.  The
    red graph is two cliques joined by a bridge, and Q_n has no bridge,
    so it holds no red Q_n.
    """
    half = (1 << n) - 1
    N = 2 * half
    u, v = rng.randrange(half), half + rng.randrange(half)
    edges = [
        (a, b)
        for a in range(half)
        for b in range(half, N)
        if (a, b) != (u, v)
    ]
    perm = list(range(N))
    rng.shuffle(perm)
    return Host(
        f"bridged-lower-bound n={n}",
        tuple(_from_edges(N, [(perm[a], perm[b]) for a, b in edges])),
    )


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def blue_triangle(blue) -> str | None:
    """None when the blue graph is a simple graph without triangles,
    else a description of the defect.

    Vertices with equal masks are never adjacent, and two mask classes
    are either fully blue to each other or not at all, so a triangle
    exists exactly when two adjacent classes share a blue neighbour.
    """
    N = len(blue)
    rep: dict[int, int] = {}
    for v, m in enumerate(blue):
        if m >> N:
            return f"vertex {v} has a neighbour out of range"
        rep.setdefault(m, v)
    for m, r in rep.items():
        if (m >> r) & 1:
            return f"vertex {r} is blue to itself"
        seen: set[int] = set()
        for w in _bits(m):
            q = rep[blue[w]]
            if q in seen:
                continue
            seen.add(q)
            if not (blue[q] >> r) & 1:
                return f"blue edge {r}-{w} is not symmetric"
            common = m & blue[q]
            if common:
                c = (common & -common).bit_length() - 1
                return f"blue triangle {r} {w} {c}"
    return None


def embedding_error(blue, n: int, phi) -> str | None:
    """None when phi maps Q_n injectively onto red pairs of the host."""
    size = 1 << n
    if not isinstance(phi, dict) or sorted(phi) != list(range(size)):
        return "the map does not cover exactly the cube vertices"
    images = list(phi.values())
    if any(not (isinstance(v, int) and 0 <= v < len(blue)) for v in images):
        return "an image is not a host vertex"
    if len(set(images)) != size:
        return "two cube vertices share an image"
    for z in range(size):
        for i in range(n):
            w = z ^ (1 << i)
            if w > z and (blue[phi[z]] >> phi[w]) & 1:
                return f"cube edge {z}-{w} lands on a blue pair"
    return None


def has_red_cube(blue, n: int) -> bool:
    """Depth-first search over injective maps; for witnesses of a few
    vertices only."""
    N, size = len(blue), 1 << n
    image: list[int] = []

    def extend(z: int) -> bool:
        if z == size:
            return True
        for v in range(N):
            if v in image:
                continue
            if any(
                (blue[image[z ^ (1 << i)]] >> v) & 1
                for i in range(n)
                if z ^ (1 << i) < z
            ):
                continue
            image.append(v)
            if extend(z + 1):
                return True
            image.pop()
        return False

    return extend(0)
