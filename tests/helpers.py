"""Shared instance builders for the test suite."""

import json
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import ceil, comb

from cuberamsey.bits import bit, bits_list, iter_bits, lowest_bits, mask_of
from cuberamsey.colored_graph import ColouredGraph, Verdict, red_components
from cuberamsey.decomposition import Decomposition, RoundRecord
from cuberamsey.dense_embedding import AssignmentEntry, candidate_set_size
from cuberamsey.errors import HypothesisError, StageFailure
from cuberamsey.hypercube import (
    InitialSubcube,
    bandwidth_bound,
    bandwidth_order,
    complement_cells,
    subcube_distance,
    subcube_vertices,
)
from cuberamsey.oracle import CubeSearchResult
from cuberamsey.snake_embedding import closed_tree_walk, snake_embed
from cuberamsey.solver import assign_subcubes


def all_red_graph(n_vertices: int) -> ColouredGraph:
    return ColouredGraph(n_vertices, [0] * n_vertices, validate=False)


def is_red(G: ColouredGraph, u: int, v: int) -> bool:
    return u != v and not G.is_blue(u, v)


def random_colouring(n: int, p: float, rng: random.Random) -> ColouredGraph:
    """Arbitrary symmetric blue relation, not necessarily triangle free."""
    blue = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                blue[u] |= 1 << v
                blue[v] |= 1 << u
    return ColouredGraph(n, blue)


def two_clique_linked_graph(n: int, extra: int = 0, m: int = None) -> ColouredGraph:
    """Two red cliques of size m (default 2^(n+1)), complete blue across
    except for a planted red biclique of side 2*C(n, n//2) on the lowest
    indices."""
    if m is None:
        m = 1 << (n + 1)
    N = 2 * m + extra
    b = 2 * comb(n, n // 2)
    low_pl = (1 << b) - 1
    high_pl = low_pl << m
    cross_hi = ((1 << m) - 1) << m
    cross_lo = (1 << m) - 1
    blue = []
    for v in range(m):
        mask = cross_hi
        if v < b:
            mask &= ~high_pl
        blue.append(mask)
    for v in range(m, 2 * m):
        mask = cross_lo
        if v - m < b:
            mask &= ~low_pl
        blue.append(mask)
    for _ in range(extra):
        blue.append(0)
    return ColouredGraph(N, blue, validate=False)


def random_subcube_antichain(n: int, rng: random.Random, max_codim=None):
    """Disjoint initial subcubes, sorted by codimension."""
    if max_codim is None:
        max_codim = min(n - 1, 3)
    leaves = []

    def split(prefix):
        if len(prefix) < max_codim and (not prefix or rng.random() < 0.45):
            split(prefix + (0,))
            split(prefix + (1,))
        else:
            leaves.append(prefix)

    split(())
    kept = [p for p in leaves if rng.random() < 0.75]
    if not kept:
        kept = [leaves[0]]
    kept.sort(key=lambda p: (len(p), p))
    return [InitialSubcube(p) for p in kept]


def random_valid_partial_assignment(n: int, gamma, rng: random.Random):
    """A host graph plus a list of assignment entries that passes every
    defining clause at ``gamma``.

    Candidate sets are disjoint red cliques of exactly the right size;
    blue noise runs only between candidate sets, and for cube-adjacent
    pairs each later vertex stays at or below the cross-degree threshold
    towards the earlier set.
    """
    subcubes = random_subcube_antichain(n, rng)
    sizes = [candidate_set_size(gamma, n, x.codim) for x in subcubes]
    starts = []
    at = 0
    for sz in sizes:
        starts.append(at)
        at += sz
    total = at
    members = [
        tuple(range(st, st + sz)) for st, sz in zip(starts, sizes)
    ]
    blue = [0] * total
    for i in range(len(subcubes)):
        for j in range(i + 1, len(subcubes)):
            dist = subcube_distance(subcubes[i], subcubes[j])
            if dist == 1:
                d_i = subcubes[i].codim
                thr = gamma * (1 << (n - d_i)) / d_i
                cap = int(thr)
                for v in members[j]:
                    for u in rng.sample(members[i], min(rng.randint(0, cap), sizes[i])):
                        blue[u] |= 1 << v
                        blue[v] |= 1 << u
            else:
                # unconstrained direction: sprinkle a few edges anyway
                for _ in range(rng.randrange(0, 3)):
                    u = rng.choice(members[i])
                    v = rng.choice(members[j])
                    blue[u] |= 1 << v
                    blue[v] |= 1 << u
    G = ColouredGraph(total, blue)
    return G, [AssignmentEntry.on(G, x, mem) for x, mem in zip(subcubes, members)]


def check_partial_assignment(H: ColouredGraph, entries, gamma, n: int):
    """Validate a list of assignment entries at ``gamma`` against the
    defining clauses of a partial assignment, the definition that
    ``dense_embedding.extend_or_clean`` builds to.

    Returns (True, None, None) or (False, clause, detail) where clause is
    one of "a" (ordering and exact sizes), "b" (disjoint red cliques),
    "c" (disjoint subcubes), "2.1" (cross-degree condition).
    """
    prev_d = 0
    for i, e in enumerate(entries):
        d = e.codim
        if d < prev_d:
            return False, "a", f"entry {i} has codimension {d} after {prev_d}"
        if d > n:
            return False, "a", f"entry {i} has codimension {d} beyond n={n}"
        prev_d = d
        want = candidate_set_size(gamma, n, d)
        if len(e.members) != want:
            return False, "a", (
                f"entry {i} has {len(e.members)} members, needs exactly {want}"
            )
        if len(set(e.members)) != len(e.members):
            return False, "b", f"entry {i} repeats a member"
        if not all(0 <= v < H.n_vertices for v in e.members):
            return False, "b", f"entry {i} mentions out-of-range vertices"
        if not reference_is_red_clique(H, e.members):
            return False, "b", f"members of entry {i} are not a red clique"
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            if entries[i].mask & entries[j].mask:
                return False, "b", f"entries {i} and {j} share vertices"
            if subcube_distance(entries[i].subcube, entries[j].subcube) == 0:
                return False, "c", f"subcubes of entries {i} and {j} overlap"
    for i, ei in enumerate(entries):
        thr = gamma * (1 << (n - ei.codim)) / ei.codim if ei.codim else None
        mi = ei.mask
        for j in range(i + 1, len(entries)):
            ej = entries[j]
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


def gap_consequence_holds(G: ColouredGraph, dec) -> bool:
    """Audit every round: sparse vertices stay below s/lambda into the
    cliques that were extracted but left out of that round's snake."""
    lam = dec.params.lam
    for rec in dec.rounds:
        outside = [
            c for i, c in enumerate(rec.cliques) if i not in rec.snake_indices
        ]
        for v in rec.sparse_added:
            for c in outside:
                deg = sum(1 for u in c if G.is_blue(v, u))
                if lam * deg >= rec.s:
                    return False
    return True


def decomposition_of(n_vertices: int, params, *snakes) -> Decomposition:
    """A certificate with one round per snake: the snake's cliques, weight
    s on each witnessed pair and 0 on every other, and no attached
    vertex; every vertex in no snake is sparse."""
    rounds = []
    for sn in snakes:
        linked = {w.pair() for w in sn.witnesses}
        weights = tuple(
            (i, j, sn.s if (i, j) in linked else 0)
            for i in range(sn.k) for j in range(i + 1, sn.k)
        )
        rounds.append(RoundRecord(sn.cliques, weights, sn.s, sn.witnesses, ()))
    return Decomposition(n_vertices, params, tuple(rounds))


def legacy_certificate_json(dec: Decomposition) -> str:
    """The certificate in the layout that also stored the sparse set, the
    snakes, the s values and, per round, its index, snake indices and
    active counts before and after, rebuilt from the round records."""
    p = dec.params
    rounds, active = [], dec.n_vertices
    for i, (r, sn) in enumerate(zip(dec.rounds, dec.snakes)):
        after = active - sn.mask.bit_count() - len(r.sparse_added)
        rounds.append({
            "index": i + 1,
            "active_before": active,
            "cliques": [list(c) for c in r.cliques],
            "weights": [list(w) for w in r.weights],
            "s": r.s,
            "snake_indices": list(r.snake_indices),
            "sparse_added": list(r.sparse_added),
            "active_after": after,
        })
        active = after
    return json.dumps({
        "n_vertices": dec.n_vertices,
        "params": {
            "m": p.m,
            "s_lo": p.s_lo,
            "s_hi": p.s_hi,
            "lam": [p.lam.numerator, p.lam.denominator],
            "mu": [p.mu.numerator, p.mu.denominator],
        },
        "sparse": bits_list(dec.sparse_mask),
        "snakes": [
            {
                "s": sn.s,
                "cliques": [list(c) for c in sn.cliques],
                "witnesses": [
                    {"i": w.i, "j": w.j, "X": list(w.X), "Y": list(w.Y)}
                    for w in sn.witnesses
                ],
            }
            for sn in dec.snakes
        ],
        "s_values": list(dec.s_values),
        "rounds": rounds,
    })


def two_clique_linked_shuffled(n: int, rng: random.Random, extra: int = 0):
    """Same structure as ``two_clique_linked_graph`` with vertex labels
    drawn at random; built directly from group masks so large instances
    stay cheap."""
    m = 1 << (n + 1)
    b = 2 * comb(n, n // 2)
    N = 2 * m + extra
    labels = (
        [0] * b + [1] * (m - b) + [2] * b + [3] * (m - b) + [4] * extra
    )
    rng.shuffle(labels)
    gm = [0] * 5
    for v, g in enumerate(labels):
        gm[g] |= 1 << v
    blue_of = {
        0: gm[3],
        1: gm[2] | gm[3],
        2: gm[1],
        3: gm[0] | gm[1],
        4: 0,
    }
    blue = [blue_of[g] for g in labels]
    return ColouredGraph(N, blue, validate=False)


def reference_lowest_bits(mask: int, k: int) -> int:
    """``bits.lowest_bits`` as a loop that clears one bit per pass."""
    out = 0
    while mask and k > 0:
        low = mask & -mask
        out |= low
        mask ^= low
        k -= 1
    return out


def reference_snake_embed(snake, cube_vertices, n, forb, stats):
    """``snake_embed`` with the reservation of the free stretch rebuilt
    before every placed cube vertex, for a valid snake and input.

    Fills ``stats``: ``"binding"`` counts the free-stretch placements at
    which the reservation turned away the vertex that would have been
    taken without it; ``"partial"`` counts those that took a vertex of a
    side still owed batches, above the side's reserved vertices.
    """
    queue = bandwidth_order(cube_vertices)
    delta = max((d.bit_count() for d in forb.values()), default=0)
    stats["binding"] = stats["partial"] = 0

    k, s = snake.k, snake.s
    t = max(s // (4 * k), bandwidth_bound(n))
    positions = closed_tree_walk(snake)
    clique_masks = [mask_of(c) for c in snake.cliques]
    tree_pairs = {(min(a, b), max(a, b)) for a, b in zip(positions, positions[1:])}
    side_mask, owed = {}, {}
    sides_in = {c: [] for c in range(k)}
    for w in snake.witnesses:
        if w.pair() not in tree_pairs:
            continue
        for c, side in ((w.i, w.X), (w.j, w.Y)):
            key = (w.i, w.j, c)
            side_mask[key] = mask_of(side)
            owed[key] = 2
            sides_in[c].append(key)

    used = 0
    phi = {}
    qi = 0

    def place(z, pool):
        nonlocal used, qi
        avail = pool & ~used & ~forb.get(z, 0)
        if not avail:
            return False
        v = (avail & -avail).bit_length() - 1
        phi[z] = v
        used |= 1 << v
        qi += 1
        return True

    def run_batch(key):
        placed = 0
        while qi < len(queue) and placed < t:
            if not place(queue[qi], side_mask[key]):
                break
            placed += 1
        owed[key] -= 1

    for p, c in enumerate(positions):
        if qi >= len(queue):
            break
        if p > 0:
            prev = positions[p - 1]
            run_batch((min(prev, c), max(prev, c), c))
        while qi < len(queue):
            reserved = 0
            for key in sides_in[c]:
                if owed[key] > 0:
                    free_side = side_mask[key] & ~used
                    keep = min((t + delta) * owed[key], free_side.bit_count())
                    reserved |= reference_lowest_bits(free_side, keep)
            unreserved = clique_masks[c] & ~used & ~forb.get(queue[qi], 0)
            if unreserved & -unreserved & reserved:
                stats["binding"] += 1
            if not place(queue[qi], clique_masks[c] & ~reserved):
                break
            v = phi[queue[qi - 1]]
            if any(owed[key] > 0 and side_mask[key] >> v & 1 for key in sides_in[c]):
                stats["partial"] += 1
        if qi >= len(queue):
            break
        if p + 1 < len(positions):
            nxt = positions[p + 1]
            run_batch((min(c, nxt), max(c, nxt), c))

    if qi < len(queue):
        raise StageFailure(
            "snake-walk",
            f"walk exhausted with {len(queue) - qi} cube vertices left; "
            f"next is {queue[qi]}",
            data={"remaining": len(queue) - qi, "next": queue[qi]},
        )
    return phi


def reference_solve_snakes(G: ColouredGraph, n: int, dec, stats):
    """``solver._solve_snakes`` with each piece's forbidden masks built
    per cube vertex of the piece, by a ``dict.get`` per cube neighbour.

    Sets ``stats["forbidden"]`` to the number of cube vertices that were
    given a non-empty forbidden mask.
    """
    sizes = [sn.mask.bit_count() for sn in dec.snakes]
    assignment = assign_subcubes(n, sizes)
    snake_masks = [sn.mask for sn in dec.snakes]
    phi = {}
    stats["forbidden"] = 0
    for j in reversed(range(dec.r)):
        if not assignment[j]:
            continue
        Q = [v for cell in assignment[j] for v in subcube_vertices(cell, n)]
        forb = {}
        for x in Q:
            D = 0
            for p in range(n):
                img = phi.get(x ^ (1 << p))
                if img is not None:
                    D |= G.blue[img] & snake_masks[j]
            if D:
                forb[x] = D
        stats["forbidden"] += len(forb)
        phi.update(snake_embed(G, dec.snakes[j], Q, n, forbidden=forb))
    return phi


def reference_is_blue_triangle_free(G: ColouredGraph):
    """``is_blue_triangle_free`` with the class-pair loop that shifts each
    class mask right one bit per pass."""
    class_index, reps = {}, []
    vertex_class = [0] * G.n_vertices
    for v in range(G.n_vertices):
        i = class_index.setdefault(G.blue[v], len(reps))
        if i == len(reps):
            reps.append(v)
        vertex_class[v] = i
    k = len(reps)
    class_adj = [mask_of(vertex_class[w] for w in iter_bits(G.blue[r])) for r in reps]
    for a in range(k):
        rest = class_adj[a] >> (a + 1)
        b = a + 1
        while rest:
            if rest & 1:
                common = class_adj[a] & class_adj[b]
                if common:
                    c = (common & -common).bit_length() - 1
                    return False, (reps[a], reps[b], reps[c])
            rest >>= 1
            b += 1
    return True, None


def reference_blue_classes(G: ColouredGraph):
    """``ColouredGraph.blue_classes`` by a plain dict keyed by the whole
    mask, with every mask popcounted."""
    index, reps, class_of = {}, [], []
    for v, m in enumerate(G.blue):
        if m.bit_count() < 2:
            class_of.append(-1)
            continue
        c = index.setdefault(m, len(reps))
        if c == len(reps):
            reps.append(v)
        class_of.append(c)
    return class_of, reps


def reference_validation_error(n_vertices: int, blue: list[int]):
    """The message ``ColouredGraph(n_vertices, blue)`` raises, or None, by
    the validation loop that shifts each mask right one bit per pass."""
    for u, m in enumerate(blue):
        if m >> n_vertices:
            return f"mask of vertex {u} mentions out-of-range vertices"
        if (m >> u) & 1:
            return f"vertex {u} is blue-adjacent to itself"
    for u, m in enumerate(blue):
        rest = m >> (u + 1)
        v = u + 1
        while rest:
            if rest & 1 and not (blue[v] >> u) & 1:
                return f"blue edge {u}-{v} is not symmetric"
            rest >>= 1
            v += 1
    return None


def reference_iter_bits(mask: int):
    """``bits.iter_bits`` as a loop that peels the lowest bit per pass."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_mask_of(vertices) -> int:
    """``bits.mask_of`` as one shift per vertex."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def reference_max_disjoint_red_cliques(G: ColouredGraph, A: int, m: int):
    """``colored_graph.max_disjoint_red_cliques`` with the star harvest
    scanning every vertex and the greedy sweep clearing each pick and its
    blue neighbourhood from a candidate mask."""
    cliques = []
    residual = A
    while residual.bit_count() >= m:
        if all(G.blue[v] & residual == 0 for v in reference_iter_bits(residual)):
            while residual.bit_count() >= m:
                take = reference_lowest_bits(residual, m)
                cliques.append(tuple(reference_iter_bits(take)))
                residual &= ~take
            break
        best_v, best_d = -1, m - 1
        for v in range(G.n_vertices):
            d = (G.blue[v] & residual).bit_count()
            if d > best_d:
                best_v, best_d = v, d
        if best_v >= 0:
            take = reference_lowest_bits(G.blue[best_v] & residual, m)
            took = list(reference_iter_bits(take))
            if all(G.blue[v] & take == 0 for v in took):
                cliques.append(tuple(took))
                residual &= ~take
                continue
        cand, chosen, size = residual, 0, 0
        while cand and size < m:
            v = (cand & -cand).bit_length() - 1
            chosen |= 1 << v
            size += 1
            cand &= ~((1 << v) | G.blue[v])
        if size < m:
            break
        cliques.append(tuple(reference_iter_bits(chosen)))
        residual &= ~chosen
    return cliques


def reference_contains_red_cube(G: ColouredGraph, n: int) -> CubeSearchResult:
    """``oracle.contains_red_cube`` searching every red component of at
    least 2^n vertices whole, with no core peeling or cut split."""
    size = 1 << n
    if G.n_vertices < size:
        return CubeSearchResult(None, 0)
    order = bandwidth_order(range(size))
    pos = {z: i for i, z in enumerate(order)}
    nbrs_before = [
        [pos[order[i] ^ (1 << p)] for p in range(n) if pos[order[i] ^ (1 << p)] < i]
        for i in range(size)
    ]
    assigned = [0] * size
    used = 0
    nodes = 0

    def dfs(i: int, pool: int) -> bool:
        nonlocal used, nodes
        if i == size:
            return True
        avail = pool & ~used
        for j in nbrs_before[i]:
            avail &= G.red_mask(assigned[j])
        for v in iter_bits(avail):
            nodes += 1
            assigned[i] = v
            used |= bit(v)
            if dfs(i + 1, pool):
                return True
            used &= ~bit(v)
        return False

    for comp in red_components(G):
        if comp.bit_count() < size:
            continue
        if dfs(0, comp):
            return CubeSearchResult(
                {order[i]: assigned[i] for i in range(size)}, nodes
            )
    return CubeSearchResult(None, nodes)


def reference_plain_sweep(n: int, N: int) -> bool:
    """``oracle.exhaustive_ramsey``'s verdict by walking every labelled
    colouring of K_N: does each hold a blue triangle or a red Q_n?  Pair
    (i, j), i < j, is bit j(j-1)/2 + i of a colouring's code; a cube is
    looked for directly as a red edge (n = 1) or a red 4-cycle (n = 2),
    and Q_n for n >= 3 has more vertices than K_N for N <= 7."""
    assert N <= 7
    P = N * (N - 1) // 2
    pairs = [(i, j) for j in range(N) for i in range(j)]

    def blue(c, i, j):
        if i > j:
            i, j = j, i
        return c >> (j * (j - 1) // 2 + i) & 1

    def has_cube(c):
        if n == 1:
            return any(not blue(c, i, j) for i, j in pairs)
        if n == 2:
            return any(
                not (blue(c, a, b) or blue(c, b, x) or blue(c, x, d) or blue(c, d, a))
                for a, b, x, d in permutations(range(N), 4)
            )
        return False

    for c in range(1 << P):
        triangle = any(
            blue(c, a, b) and blue(c, a, x) and blue(c, b, x)
            for a, b, x in combinations(range(N), 3)
        )
        if not triangle and not has_cube(c):
            return False
    return True


def reference_is_canonical(adj: list[int], v: int) -> bool:
    """The canonicity verdict of ``oracle._tied_nodes``, comparing tuple
    columns and walking every tied relabeling one order at a time."""
    cols = [tuple((adj[t] >> s) & 1 for s in range(t)) for t in range(v)]
    chosen: list[int] = []
    in_use = [False] * v

    def dfs(t: int) -> bool:
        if t == v:
            return True
        target = cols[t]
        for u in range(v):
            if in_use[u]:
                continue
            col = tuple((adj[u] >> w) & 1 for w in chosen)
            if col < target:
                return False
            if col == target:
                chosen.append(u)
                in_use[u] = True
                ok = dfs(t + 1)
                chosen.pop()
                in_use[u] = False
                if not ok:
                    return False
        return True

    return dfs(0)


def reference_canonical_triangle_free_graphs(N: int) -> list[list[int]]:
    """``oracle.canonical_triangle_free_graphs`` on top of
    ``reference_is_canonical``."""
    level: list[list[int]] = [[0]]
    for v in range(2, N + 1):
        nxt: list[list[int]] = []
        for adj in level:
            for S in range(1 << (v - 1)):
                if any(adj[u] & S for u in iter_bits(S)):
                    continue
                cand = [adj[u] | (((S >> u) & 1) << (v - 1)) for u in range(v - 1)]
                cand.append(S)
                if reference_is_canonical(cand, v):
                    nxt.append(cand)
        level = nxt
    return level


def reference_embed_partial_assignment(H: ColouredGraph, entries, n: int) -> dict[int, int]:
    """``dense_embedding.embed_partial_assignment`` as it was before the
    cube placements shared one first-fit walk: a ``dict.get`` per cube
    neighbour, and the entry's member mask cleared of each vertex taken."""
    phi: dict[int, int] = {}
    for e in reversed(entries):
        pool = e.mask
        for z in subcube_vertices(e.subcube, n):
            blocked = 0
            for p in range(n):
                img = phi.get(z ^ (1 << p))
                if img is not None:
                    blocked |= H.blue[img]
            avail = pool & ~blocked
            if not avail:
                raise StageFailure(
                    "partial-embedding",
                    f"no candidate left for cube vertex {z} in subcube "
                    f"{e.subcube.prefix}",
                    data={"cube_vertex": z, "entry": e},
                )
            v = (avail & -avail).bit_length() - 1
            phi[z] = v
            pool &= ~bit(v)
    return phi


def reference_dense_embed(H: ColouredGraph, n: int, gamma, schedule) -> dict[int, int]:
    """``dense_embedding.dense_embed`` with the assignment loop as it was
    before each pass derived its facts once: every step restarts the
    cell walk, rebuilds each touching entry's reach from its members,
    bisects the degree index for the centres, and compares through
    ``Fraction`` thresholds.  The triangle check walks H afresh, and the
    placements are the mask-clearing reference loops."""
    gamma = Fraction(gamma)
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if schedule.b[-1] + 1 > n:
        raise HypothesisError(
            "schedule-depth",
            f"b_k+1 + 1 = {schedule.b[-1] + 1} exceeds the dimension {n}",
        )
    need = ceil((1 + 3 * gamma) * (1 << n))
    if H.n_vertices < need:
        raise HypothesisError(
            "order", f"host has {H.n_vertices} vertices, needs {need}"
        )
    cap = 1 << (n - schedule.b[0])
    over = [v for v, m in enumerate(H.blue) if m.bit_count() > cap]
    if over:
        v = over[0]
        raise HypothesisError(
            "max-degree",
            f"vertex {v} has blue degree {H.blue[v].bit_count()}, "
            f"above 2^(n - b_0) = {cap}",
            witness=v,
        )
    ok, tri = reference_is_blue_triangle_free(H)
    if not ok:
        raise HypothesisError("triangle-free", f"blue triangle {tri}", witness=tri)

    def step(entries, A, a, b):
        y = next(complement_cells([e.subcube for e in entries], n, b))
        removed = 0
        for e in entries:
            if subcube_distance(e.subcube, y) != 1:
                continue
            thr = gamma * (1 << (n - e.codim)) / e.codim
            reach = 0
            for u in e.members:
                reach |= H.blue[u]
            for v in iter_bits(A & reach):
                if Fraction((H.blue[v] & e.mask).bit_count()) >= thr:
                    removed |= bit(v)
        C = A & ~removed
        if removed.bit_count() > (b * b / gamma) * (1 << (n - a + 1)):
            raise AssertionError(
                "cleaning removed more than the degree hypothesis permits"
            )
        need = 1 << (n - b + 1)
        size = ceil((1 + gamma) * (1 << (n - b)))
        for u in iter_bits(H.blue_at_least(need)):
            nb = H.blue[u] & C
            if nb.bit_count() >= need:
                return AssignmentEntry.on(H, y, bits_list(lowest_bits(nb, size))), C
        return None, C

    entries, A, covered = [], H.full_mask, 0
    full_cube = (1 << (1 << n)) - 1
    passes_run = 0
    for j in range(1, len(schedule.b)):
        if covered == full_cube:
            break
        passes_run = j
        a, bb = schedule.b[j - 1], schedule.b[j] + 1
        while covered != full_cube:
            entry, C = step(entries, A, a, bb)
            if entry is None:
                A = C
                break
            entries.append(entry)
            A &= ~entry.mask
            covered |= mask_of(subcube_vertices(entry.subcube, n))

    phi = reference_embed_partial_assignment(H, entries, n)
    residual = bits_list(full_cube & ~covered)
    try:
        return reference_complete_greedily(H, n, phi, A, bandwidth_order(residual))
    except StageFailure as e:
        e.data.update(passes=passes_run, extensions=len(entries))
        raise


def reference_first_fit(free, order, image, taken, blocked_of) -> int:
    """``colored_graph.first_fit`` as a scan of the whole list per cube
    vertex, testing every vertex against ``taken`` and the mask."""
    placed = 0
    for z in order:
        blocked = blocked_of(z) or 0
        fits = [v for v in free if not taken[v] and not (blocked >> v) & 1]
        if not fits:
            break
        image[z] = fits[0]
        taken[fits[0]] = 1
        placed += 1
    return placed


def reference_complete_greedily(H: ColouredGraph, n: int, phi, A: int, order):
    """``dense_embedding.complete_greedily`` as the completion loop of
    ``dense_embed`` was: a ``dict.get`` per cube neighbour, every mask
    ORed in, and a copy of A cleared of each vertex as it is taken."""
    pool = A
    for z in order:
        blocked = 0
        for p in range(n):
            img = phi.get(z ^ (1 << p))
            if img is not None:
                blocked |= H.blue[img]
        avail = pool & ~blocked
        if not avail:
            neigh = [phi[z ^ (1 << p)] for p in range(n) if z ^ (1 << p) in phi]
            slack = (
                A.bit_count()
                - sum(1 for w in phi.values() if (A >> w) & 1)
                - sum((H.blue[w] & A).bit_count() for w in neigh)
            )
            if slack > 0:
                raise AssertionError("greedy exhaustion with positive counting slack")
            raise StageFailure(
                "greedy-completion",
                f"no red-compatible vertex left for cube vertex {z}",
                data={"cube_vertex": z, "slack": slack},
            )
        v = (avail & -avail).bit_length() - 1
        phi[z] = v
        pool &= ~bit(v)
    return phi


def reference_verify_errors(G: ColouredGraph, n: int, phi, domain=None) -> list[str]:
    """The errors of ``verify_red_embedding`` as its per-edge loop found
    them, testing each cube edge with ``is_red``."""
    dom = list(range(1 << n)) if domain is None else sorted(set(domain))
    errors, seen, checkable = [], {}, set()
    for z in dom:
        v = phi[z]
        if not (0 <= v < G.n_vertices):
            errors.append(f"cube vertex {z} maps to out-of-range vertex {v}")
            continue
        checkable.add(z)
        if v in seen:
            errors.append(f"cube vertices {seen[v]} and {z} both map to {v}")
        seen[v] = z
    for z in dom:
        if z not in checkable:
            continue
        for i in range(n):
            w = z ^ (1 << i)
            if w < z or w not in checkable:
                continue
            if not is_red(G, phi[z], phi[w]):
                errors.append(f"cube edge {z}-{w} lands on non-red pair {phi[z]}-{phi[w]}")
                if len(errors) >= 20:
                    return errors
    return errors


def reference_is_red_clique(G: ColouredGraph, vertices) -> bool:
    """Whether the vertices are pairwise red, by one N-bit AND per vertex
    that has a blue neighbour."""
    vs = list(vertices)
    m = mask_of(vs)
    deg = G.blue_degrees()
    return all(G.blue[v] & m == 0 for v in vs if deg[v])


def reference_max_balanced_biclique(G: ColouredGraph, M1, M2, cap):
    """``colored_graph.max_balanced_biclique`` with one N-bit row per
    vertex and one popcount per vertex in the walks' sort key."""
    side1 = sorted(set(M1))
    side2 = sorted(set(M2))
    m1, m2 = mask_of(side1), mask_of(side2)
    if m1 & m2:
        raise ValueError("the two sides must be disjoint")
    swapped = len(side1) > len(side2)
    if swapped:
        side1, side2 = side2, side1
        m1, m2 = m2, m1
    limit = min(len(side1), len(side2), cap)

    def prefix_walk(rows, col_mask):
        row_adj = {u: col_mask & ~G.blue[u] for u in rows}
        order = sorted(rows, key=lambda u: -row_adj[u].bit_count())
        common = col_mask
        best_w, best_rows, best_common = 0, [], 0
        for idx, u in enumerate(order):
            common &= row_adj[u]
            if not common:
                break
            w = min(idx + 1, common.bit_count())
            if w > best_w:
                best_w, best_rows, best_common = w, order[: idx + 1], common
        return best_w, best_rows, best_common

    w, rows, common = prefix_walk(side1, m2)
    flip = swapped
    if w < limit:
        w2, rows2, common2 = prefix_walk(side2, m1)
        if w2 > w:
            w, rows, common, flip = w2, rows2, common2, not swapped
    w = min(w, limit)
    X, Y = tuple(sorted(rows)[:w]), tuple(bits_list(lowest_bits(common, w)))
    return (w, Y, X) if flip else (w, X, Y)


def reference_validate_snake(G: ColouredGraph, snake) -> Verdict:
    """``snake_embedding.validate_snake`` with one N-bit AND per vertex in
    the red tests of cliques and witness sides; a vertex outside G may
    raise instead of failing the snake."""
    errors = []
    if not snake.cliques:
        return Verdict(["a snake needs at least one clique"])
    if snake.s < 1:
        errors.append(f"link strength s must be positive, got {snake.s}")
    bad = [
        f"witness names bad clique pair ({w.i}, {w.j})"
        for w in snake.witnesses
        if not 0 <= w.i < w.j < snake.k
    ]
    if len({w.pair() for w in snake.witnesses}) != len(snake.witnesses):
        bad.append("duplicate witness for a clique pair")
    if bad:
        return Verdict(errors + bad)
    m = len(snake.cliques[0])
    masks = []
    for idx, c in enumerate(snake.cliques):
        if len(c) != m:
            errors.append(f"clique {idx} has {len(c)} vertices, expected {m}")
        if len(set(c)) != len(c):
            errors.append(f"clique {idx} repeats a vertex")
        if not all(0 <= v < G.n_vertices for v in c):
            errors.append(f"clique {idx} mentions out-of-range vertices")
        elif not reference_is_red_clique(G, c):
            errors.append(f"clique {idx} is not a red clique")
        masks.append(mask_of(c))
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
        if any(G.blue[x] & my for x in w.X):
            errors.append(f"witness ({w.i}, {w.j}) has a blue cross pair")
    # the cliques clique 0 reaches, grown until a pass adds none
    reached, grew = {0}, True
    while grew:
        grew = False
        for w in snake.witnesses:
            if (w.i in reached) != (w.j in reached):
                reached |= {w.i, w.j}
                grew = True
    if len(reached) != snake.k:
        errors.append(f"link graph is disconnected: clique 0 does not reach "
                      f"{snake.k - len(reached)} of the {snake.k} cliques")
    return Verdict(errors)


def reference_find_red_clique(G: ColouredGraph, pool: int, m: int):
    """``colored_graph.find_red_clique`` marking each pick's blue
    neighbours by peeling the lowest bit of its mask."""
    deg = G.blue_degrees()
    picks = []
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
            for w in iter_bits(G.blue[v]):
                marked[w] = 1
    while cand and len(picks) < m:
        v = (cand & -cand).bit_length() - 1
        picks.append(v)
        cand &= ~(bit(v) | G.blue[v])
    return tuple(picks) if len(picks) == m else None


def reference_induced(G: ColouredGraph, vertices):
    """``ColouredGraph.induced`` with one N-bit AND per vertex that has a
    blue neighbour, returning the masks and the vertex order."""
    order = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(order)}
    chosen = mask_of(order)
    blue = []
    for v in order:
        m = G.blue[v]
        nm = 0
        if m:
            for w in iter_bits(m & chosen):
                nm |= bit(pos[w])
        blue.append(nm)
    return blue, order


def reference_partition_complement(members, b: int) -> list:
    """``hypercube.partition_complement`` as a recursive walk that tests
    every cell against every member."""
    out = []

    def walk(prefix):
        cell = InitialSubcube(prefix)
        containing = [x for x in members if subcube_distance(cell, x) == 0]
        if any(x.codim <= len(prefix) for x in containing):
            return
        if not containing and len(prefix) == b:
            out.append(cell)
            return
        walk(prefix + (0,))
        walk(prefix + (1,))

    walk(())
    return out
