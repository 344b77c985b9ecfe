"""The bit-scanning loops of ``colored_graph`` against the loops they
replaced, which shift a mask right one bit per pass, the red-clique
extraction against the one that cleared a candidate mask per vertex, the
embedding verifier against its per-edge red test, the blue twin
classes against the masks, the passes that do their N-bit work once per
class against their per-vertex loops, and the walks that read a blue
neighbourhood from the top of its mask, or a degree threshold from the
sorted degrees, against the N-bit passes they replaced, the red tests,
greedy sweep and induced copy that pass over vertices without a blue
neighbour against their per-vertex loops, and the first-fit walk against
a scan of its whole list per cube vertex, and the blue degrees into a
mask that pass a threshold against a popcount per vertex."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import cuberamsey.colored_graph as colored_graph
from helpers import (
    reference_blue_classes,
    reference_find_red_clique,
    reference_first_fit,
    reference_induced,
    reference_is_blue_triangle_free,
    reference_is_red_clique,
    reference_max_balanced_biclique,
    reference_mask_of,
    reference_max_disjoint_red_cliques,
    reference_validate_snake,
    reference_validation_error,
    reference_verify_errors,
    two_clique_linked_shuffled,
)
from cuberamsey.bits import mask_of
from cuberamsey.colored_graph import (
    ColouredGraph,
    find_red_clique,
    first_fit,
    is_blue_triangle_free,
    max_balanced_biclique,
    max_disjoint_red_cliques,
    random_bipartite_blue,
    random_triangle_free_greedy,
    verify_red_embedding,
)
from cuberamsey.decomposition import DecompositionParams, decompose
from cuberamsey.snake_embedding import LinkWitness, Snake, validate_snake


def _add_edge(blue, u, v):
    blue[u] |= 1 << v
    blue[v] |= 1 << u


@st.composite
def hosts(draw):
    """A host of up to 200 vertices and whether it is known to be
    triangle free (True), known to hold a triangle (False), or neither
    (None).

    ``sparse`` and ``greedy`` hosts have many mask classes; ``blow-up``
    hosts replace each vertex of a small base graph by a red clique, so
    they have a few large classes (two parts give the two-clique and
    bipartite shapes).  A blow-up's part holds its mask either as one
    int object that its vertices share (``shared``, as two-clique hosts
    and ``lower_bound_coloring`` do) or as one equal int per vertex.
    Any host may get a planted triangle.
    """
    kind = draw(st.sampled_from(["sparse", "greedy", "blow-up"]))
    N = draw(st.integers(3, 200))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "sparse":
        blue = [0] * N
        for _ in range(draw(st.integers(0, 2 * N))):
            u, v = rng.sample(range(N), 2)
            _add_edge(blue, u, v)
        known = None
    elif kind == "greedy":
        blue = random_triangle_free_greedy(N, draw(st.integers(0, 3 * N)), rng).blue
        known = True
    else:
        parts = draw(st.integers(2, min(8, N)))
        p = draw(st.sampled_from([0.3, 0.7, 1.0]))
        base = [0] * parts
        for a in range(parts):
            for b in range(a + 1, parts):
                if rng.random() < p:
                    _add_edge(base, a, b)
        shared = draw(st.booleans())
        part_of = [v % parts for v in range(N)]
        rng.shuffle(part_of)
        members = [0] * parts
        for v, a in enumerate(part_of):
            members[a] |= 1 << v
        blue, of_part = [], {}
        for a in part_of:
            if shared and a in of_part:
                blue.append(of_part[a])
                continue
            m = 0
            for b in range(parts):
                if base[a] >> b & 1:
                    m |= members[b]
            if shared:
                of_part[a] = m
            blue.append(m)
        # Two vertices of a part hold one object exactly when shared
        # (CPython caches the ints up to 256, so those are one object
        # either way).
        for a in range(parts):
            vs = [v for v in range(N) if part_of[v] == a]
            one = shared or blue[vs[0]] <= 256
            assert len({id(blue[v]) for v in vs}) == (1 if one else len(vs))
        known = True if parts == 2 else None
    if draw(st.booleans()):
        u, v, w = rng.sample(range(N), 3)
        _add_edge(blue, u, v)
        _add_edge(blue, u, w)
        _add_edge(blue, v, w)
        known = False
    return ColouredGraph(N, blue), known


@given(hosts())
def test_triangle_check_matches_per_bit_loop(host):
    G, known = host
    ok, witness = is_blue_triangle_free(G)
    assert (ok, witness) == reference_is_blue_triangle_free(G)
    if known is not None:
        assert ok is known
    if not ok:
        a, b, c = witness
        assert G.is_blue(a, b) and G.is_blue(a, c) and G.is_blue(b, c)


@st.composite
def wide_sparse_hosts(draw):
    """A host of 4096 to 8192 vertices with at most N/4 random blue
    edges, so most vertices have blue degree 0 or 1 and most masks are a
    single bit (CPython hashes 1 << k by k mod 61), and up to three
    triangles planted on vertices of degree 0, which then have degree 2.
    Returns the host and the number of planted triangles."""
    N = draw(st.integers(4096, 8192))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    blue = [0] * N
    for _ in range(draw(st.integers(0, N // 4))):
        u, v = rng.sample(range(N), 2)
        _add_edge(blue, u, v)
    planted = draw(st.integers(0, 3))
    lonely = rng.sample([v for v in range(N) if not blue[v]], 3 * planted)
    for i in range(0, len(lonely), 3):
        u, v, w = lonely[i : i + 3]
        _add_edge(blue, u, v)
        _add_edge(blue, u, w)
        _add_edge(blue, v, w)
    return ColouredGraph(N, blue), planted


@settings(max_examples=40, deadline=None)
@given(wide_sparse_hosts())
def test_triangle_check_on_wide_sparse_hosts(host):
    # classing only the vertices of degree 2 or more finds the witness
    # that classing every vertex finds
    G, planted = host
    ok, witness = is_blue_triangle_free(G)
    assert (ok, witness) == reference_is_blue_triangle_free(G)
    if planted:
        assert not ok
    if not ok:
        a, b, c = witness
        assert G.is_blue(a, b) and G.is_blue(a, c) and G.is_blue(b, c)


@st.composite
def asymmetric_masks(draw):
    """A symmetric relation on up to 200 vertices with a few bits flipped
    on one side only, and at times a self-loop or an out-of-range bit."""
    N = draw(st.integers(1, 200))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    blue = [0] * N
    if N > 1:
        for _ in range(draw(st.integers(0, 3 * N))):
            u, v = rng.sample(range(N), 2)
            _add_edge(blue, u, v)
        for _ in range(draw(st.integers(0, 4))):
            u, v = rng.sample(range(N), 2)
            blue[u] ^= 1 << v
    if draw(st.integers(0, 9)) == 0:
        blue[rng.randrange(N)] |= 1 << rng.randrange(N)
    if draw(st.integers(0, 9)) == 0:
        blue[rng.randrange(N)] |= 1 << (N + rng.randrange(3))
    return N, blue


@given(asymmetric_masks())
def test_validation_reports_first_error_of_per_bit_loop(case):
    N, blue = case
    expected = reference_validation_error(N, blue)
    if expected is None:
        ColouredGraph(N, list(blue))
    else:
        with pytest.raises(ValueError) as e:
            ColouredGraph(N, list(blue))
        assert str(e.value) == expected


def _clique_host(kind: str, seed: int):
    """A seeded triangle-free host, a vertex mask and a clique size.

    Hosts of a few hundred vertices and more keep low-degree picks of the
    greedy sweep on its marking walk; on the smaller ones any pick with a
    blue neighbour moves the sweep onto its candidate mask.
    """
    rng = random.Random(f"{kind}/{seed}")
    if kind == "greedy":
        N = rng.randrange(16, 200)
        G = random_triangle_free_greedy(N, rng.randrange(N // 2, 3 * N), rng)
    elif kind == "sparse-greedy":
        N = rng.randrange(600, 2500)
        G = random_triangle_free_greedy(N, rng.randrange(N // 16, N), rng)
    elif kind == "bipartite":
        N = rng.randrange(16, 200)
        G = random_bipartite_blue(N, rng.choice([0.05, 0.2, 0.5]), rng)
    else:
        G = two_clique_linked_shuffled(rng.randrange(2, 5), rng, extra=rng.randrange(10))
        N = G.n_vertices
    # large hosts take small cliques, so each family holds dozens
    m = rng.randrange(2, 64 if N > 500 else max(3, N // 3))
    A = G.full_mask if rng.random() < 0.5 else rng.getrandbits(N)
    return G, A, m


KINDS = ["greedy", "sparse-greedy", "bipartite", "two-clique"]


@pytest.mark.parametrize("kind", KINDS)
def test_max_disjoint_red_cliques_matches_mask_clearing_sweep(kind, monkeypatch):
    sweeps = []
    sweep = colored_graph.find_red_clique

    def counted(G, pool, m):
        got = sweep(G, pool, m)
        sweeps.append(got is not None)
        return got

    monkeypatch.setattr(colored_graph, "find_red_clique", counted)
    for seed in range(40):
        G, A, m = _clique_host(kind, seed)
        assert max_disjoint_red_cliques(G, A, m) == reference_max_disjoint_red_cliques(G, A, m)
    if kind != "sparse-greedy":
        # the sweep took a clique on some residuals and fell short on
        # others; on large sparse hosts it never falls short
        assert True in sweeps and False in sweeps


def test_exactly_m_residual_is_settled_without_a_search(monkeypatch):
    # A holds (j + 1) * m vertices and one blue edge, among its top m, so
    # every residual above m vertices yields a clique, and the last one,
    # when it holds the blue edge, is refuted by the all-red check alone,
    # with no sweep that comes back empty
    sweep = colored_graph.find_red_clique

    def never_short(G, pool, m):
        got = sweep(G, pool, m)
        assert got is not None, "a sweep fell short"
        return got

    monkeypatch.setattr(colored_graph, "find_red_clique", never_short)
    settled = 0
    for seed in range(40):
        rng = random.Random(f"exactly-m/{seed}")
        N = rng.randrange(40, 400)
        blue = random_triangle_free_greedy(N, rng.randrange(N), rng).blue
        m = rng.randrange(2, 12)
        members = sorted(rng.sample(range(N), (rng.randrange(4) + 1) * m))
        A = sum(1 << v for v in members)
        for v in members:
            blue[v] &= ~A
        u, w = rng.sample(members[-m:], 2)
        _add_edge(blue, u, w)
        G = ColouredGraph(N, blue)
        got = max_disjoint_red_cliques(G, A, m)
        assert got == reference_max_disjoint_red_cliques(G, A, m)
        left = A & ~sum(1 << v for c in got for v in c)
        if left.bit_count() == m and (left >> u) & (left >> w) & 1:
            settled += 1
    # a vertex outside A with m blue neighbours in the residual may
    # harvest u or w first, so a host need not end on the blue edge
    assert settled >= 30


@st.composite
def embedding_maps(draw):
    """A host, a dimension n <= 5, and a map of Q_n (or of a drawn part
    of it) whose images mix vertices with zero masks, vertices of blue
    degree 1, blue-adjacent vertices, repeats and out-of-range values.
    The host is sparse greedy on up to 64 vertices, or twin rich, so that
    most images are classed: a shuffled two-clique host or a complete
    bipartite blow-up, with up to four pendant vertices blue to one
    vertex each."""
    shape = draw(st.sampled_from(["greedy", "two-clique", "bipartite"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if shape == "greedy":
        N = draw(st.integers(2, 64))
        blue = random_triangle_free_greedy(N, draw(st.integers(0, 2 * N)), rng).blue
    else:
        if shape == "two-clique":
            extra = draw(st.integers(0, 3))
            base = two_clique_linked_shuffled(draw(st.integers(1, 3)), rng, extra)
        else:
            base = random_bipartite_blue(draw(st.integers(2, 48)), 1.0, rng)
        blue = list(base.blue)
        for _ in range(draw(st.integers(0, 4))):
            u = rng.randrange(len(blue))
            blue[u] |= 1 << len(blue)
            blue.append(1 << u)
        N = len(blue)
    G = ColouredGraph(N, blue)
    n = draw(st.integers(1, 5))
    zero = [v for v in range(N) if not G.blue[v]] or [0]
    one = [v for v in range(N) if G.blue[v].bit_count() == 1] or zero
    phi = {}
    for z in range(1 << n):
        kind = draw(st.sampled_from(["zero", "one", "any", "repeat", "out"]))
        if kind == "zero":
            phi[z] = rng.choice(zero)
        elif kind == "one":
            phi[z] = rng.choice(one)
        elif kind == "repeat" and phi:
            phi[z] = phi[rng.choice(list(phi))]
        elif kind == "out":
            phi[z] = rng.choice([-1 - rng.randrange(3), N + rng.randrange(3)])
        else:
            phi[z] = rng.randrange(N)
    return G, n, phi


@given(embedding_maps())
def test_verify_red_embedding_matches_per_edge_loop(case):
    G, n, phi = case
    verdict = verify_red_embedding(G, n, phi)
    expected = reference_verify_errors(G, n, phi)
    assert verdict.errors == expected
    assert verdict.ok is (not expected)


@st.composite
def maps_on_hosts(draw):
    """A host from ``hosts()``, sparse or a blow-up with shared or
    distinct twin masks, a dimension n <= 5 and a map of Q_n into it,
    drawn in one of three shapes.  ``injective`` maps distinct vertices,
    so the map passes the C-level checks and only blue cube edges can
    fail.  ``parity`` maps cube vertices of even weight into the red
    neighbourhood of a vertex x and those of odd weight into its blue
    one, so on a blow-up most cube edges are blue and the error list
    often reaches its cap; images repeat once a side runs out.
    ``mixed`` draws each image as a random vertex, a repeat of an
    earlier image or a value out of range."""
    G, _ = draw(hosts())
    N = G.n_vertices
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["injective", "parity", "mixed"]))
    n = draw(st.integers(1, 5))
    size = 1 << n
    if shape == "injective":
        n = min(n, N.bit_length() - 1)
        size = 1 << n
        images = rng.sample(range(N), size)
    elif shape == "parity":
        x = rng.randrange(N)
        sides = [[v for v in range(N) if (G.blue[x] >> v) & 1 == bit] for bit in (0, 1)]
        for side in sides:
            rng.shuffle(side)
        if not sides[1]:
            sides[1] = sides[0]
        images = []
        for z in range(size):
            side = sides[z.bit_count() & 1]
            images.append(side.pop() if len(side) > 1 else side[0])
        if draw(st.booleans()):
            images[rng.randrange(size)] = N + rng.randrange(3)
    else:
        images = []
        for z in range(size):
            kind = draw(st.sampled_from(["any", "repeat", "out"]))
            if kind == "repeat" and images:
                images.append(rng.choice(images))
            elif kind == "out":
                images.append(rng.choice([-1 - rng.randrange(3), N + rng.randrange(3)]))
            else:
                images.append(rng.randrange(N))
    return G, n, dict(enumerate(images))


@settings(max_examples=150, deadline=None)
@given(maps_on_hosts())
def test_verify_red_embedding_matches_per_edge_loop_on_hosts(case):
    G, n, phi = case
    verdict = verify_red_embedding(G, n, phi)
    assert verdict.errors == reference_verify_errors(G, n, phi)


@pytest.mark.parametrize("shared", [False, True])
def test_verify_red_embedding_on_a_bipartite_blow_up(shared):
    # two parts of 40 vertices, all cross pairs blue: a part is a red
    # clique.  The maps: Q_5 inside the low part; moved across by weight
    # parity, so every cube edge is blue (80 of them, cut at 20), with and
    # without an out-of-range image; and repeated images alone, on two
    # cube vertices at distance n, then on two cube neighbours
    N, n, half = 80, 5, 40
    if shared:
        low, high = (1 << half) - 1, ((1 << N) - 1) ^ ((1 << half) - 1)
        blue = [high if v < half else low for v in range(N)]
    else:
        # each mask computed anew: equal values, distinct int objects
        blue = [
            ((1 << N) - 1) ^ ((1 << half) - 1) if v < half else (1 << half) - 1
            for v in range(N)
        ]
    G = ColouredGraph(N, blue)
    assert (G.blue[1] is G.blue[2]) == shared
    inside = {z: z for z in range(1 << n)}
    across = {z: z + half * (z.bit_count() & 1) for z in range(1 << n)}
    out = {**across, 3: N + 1}
    far = {**inside, (1 << n) - 1: 0}
    near = {**inside, 1: 0}
    cases = {
        "inside": [],
        "across": None,
        "out": None,
        "far": [f"cube vertices 0 and {(1 << n) - 1} both map to 0"],
        "near": [
            "cube vertices 0 and 1 both map to 0",
            "cube edge 0-1 lands on non-red pair 0-0",
        ],
    }
    for name, phi in (("inside", inside), ("across", across), ("out", out),
                      ("far", far), ("near", near)):
        errors = verify_red_embedding(G, n, phi).errors
        assert errors == reference_verify_errors(G, n, phi), name
        if cases[name] is not None:
            assert errors == cases[name], name
        else:
            assert len(errors) == 20, name
    assert verify_red_embedding(G, n, out).errors[0] == (
        f"cube vertex 3 maps to out-of-range vertex {N + 1}"
    )


# the readers of the graph's index, each with a call that may build it
FIRST_CALLS = {
    "blue_degrees": lambda G: G.blue_degrees(),
    "blue_at_least": lambda G: G.blue_at_least(1),
    "blue_classes": lambda G: G.blue_classes(),
}


def _assert_classes_match_masks(G: ColouredGraph, first: str):
    # one pass builds the degrees, the classes and the degree order,
    # whichever reader asks first, and every later call reads that copy
    FIRST_CALLS[first](G)
    deg = [m.bit_count() for m in G.blue]
    assert G.blue_classes() == reference_blue_classes(G)
    # each class of two or more vertices is kept with its members' mask,
    # which the per-class passes AND with the vertices they are given
    class_of, reps = reference_blue_classes(G)
    members = {}
    for v, c in enumerate(class_of):
        if c >= 0:
            members.setdefault(reps[c], []).append(v)
    twins = {r: reference_mask_of(vs) for r, vs in members.items() if len(vs) > 1}
    groups, grouped = G._blue_index()[4]
    assert dict(groups) == twins and len(groups) == len(twins)
    assert grouped == reference_mask_of(v for vs in members.values() if len(vs) > 1 for v in vs)
    assert G.blue_classes() is G.blue_classes()
    assert G.blue_degrees() == deg
    assert G.blue_degrees() is G.blue_degrees()
    for t in range(4):
        assert G.blue_at_least(t) == reference_mask_of(
            [v for v, d in enumerate(deg) if d >= t]
        )


@given(hosts(), st.sampled_from(sorted(FIRST_CALLS)))
def test_blue_classes_group_exactly_the_equal_masks(host, first):
    _assert_classes_match_masks(host[0], first)


@pytest.mark.parametrize("seed", range(4))
def test_blue_classes_on_sparse_greedy_hosts(seed):
    for first in FIRST_CALLS:
        G, _, _ = _clique_host("sparse-greedy", seed)
        _assert_classes_match_masks(G, first)


def _fingerprint_twins_host(N: int, shared: bool) -> ColouredGraph:
    """A bipartite host in which most leaves are blue to hubs 0, 1 and
    N - 1 and to one of seven middle hubs, so leaves 70 and 71 have masks
    of one length and equal low and top 64 bits that differ in the
    middle, while leaves 70 and 77 are twins, held as one int object
    (``shared``) or as equal distinct ones.  Every fifth leaf instead is
    blue to hub N - 2 alone, to N - 1 and 40, or to N - 1 and a middle
    hub: masks whose top 64 bits hold one bit."""
    middles = range(N // 2 - 8, N // 2 + 8)
    leaves = [v for v in range(70, N - 70) if v not in middles]
    odd = {4: [N - 2], 9: [N - 1, 40], 14: [N - 1, middles[0]]}
    blue = [0] * N
    first = {}
    for i, x in enumerate(leaves):
        m = 0
        for h in odd.get(i % 15, [0, 1, N - 1, middles[i % 7]]):
            m |= 1 << h
            blue[h] |= 1 << x
        blue[x] = first.setdefault(m, m) if shared else m
    return ColouredGraph(N, blue)


@pytest.mark.parametrize("degrees_first", [False, True])
@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("N", [200, 1000])
def test_blue_classes_past_shared_fingerprints(N, shared, degrees_first):
    G = _fingerprint_twins_host(N, shared)
    a, b, twin = G.blue[70], G.blue[71], G.blue[77]
    assert a != b and a.bit_length() == b.bit_length()
    assert (a ^ b) & ((1 << 64) - 1) == 0 and (a ^ b) >> (a.bit_length() - 64) == 0
    assert twin == a and (twin is a) == shared
    # the degrees, the classes or the threshold index first, each on a
    # fresh copy of the host
    firsts = ["blue_degrees"] if degrees_first else ["blue_classes", "blue_at_least"]
    for first in firsts:
        _assert_classes_match_masks(_fingerprint_twins_host(N, shared), first)
    assert is_blue_triangle_free(G) == reference_is_blue_triangle_free(G) == (True, None)


def _biclique_cases(G, rng):
    """Clique pairs of the host's red clique family, walked up to a small
    cap, and random disjoint sides of up to 24 vertices in all, walked
    up to a small cap and up to the smaller side's size, which is no
    cap."""
    N = G.n_vertices
    m = rng.randrange(2, max(3, N // 3))
    family = max_disjoint_red_cliques(G, G.full_mask, m)
    cases = [(family[i], family[i + 1], rng.randrange(1, 12)) for i in range(len(family) - 1)]
    for _ in range(3):
        vs = rng.sample(range(N), min(N, rng.randrange(25)))
        cut = rng.randrange(len(vs) + 1)
        M1, M2 = vs[:cut], vs[cut:]
        cases += [(M1, M2, min(len(M1), len(M2))), (M1, M2, rng.randrange(1, 8))]
    return cases


@pytest.mark.parametrize("kind", KINDS)
def test_max_balanced_biclique_matches_per_vertex_rows(kind):
    for seed in range(12):
        G, _, _ = _clique_host(kind, seed)
        rng = random.Random(f"biclique/{kind}/{seed}")
        for M1, M2, cap in _biclique_cases(G, rng):
            assert max_balanced_biclique(G, M1, M2, cap) == (
                reference_max_balanced_biclique(G, M1, M2, cap)
            )


@settings(max_examples=60, deadline=None)
@given(hosts(), st.data())
def test_max_balanced_biclique_matches_per_vertex_rows_on_blow_ups(host, data):
    # blow-ups share rows among many vertices; planted triangles and
    # sparse hosts leave vertices of blue degree 0 and 1 unclassed
    G, _ = host
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    for M1, M2, cap in _biclique_cases(G, rng):
        assert max_balanced_biclique(G, M1, M2, cap) == (
            reference_max_balanced_biclique(G, M1, M2, cap)
        )


def _tampered_snakes(G, snake, rng):
    """The snake and in-range variants of it: a clique or witness vertex
    swapped for another vertex of G, a side cut short, a witness moved."""
    N = G.n_vertices
    out = [snake]
    for _ in range(6):
        cliques = [list(c) for c in snake.cliques]
        ws = [[w.i, w.j, list(w.X), list(w.Y)] for w in snake.witnesses]
        what = rng.choice(["clique", "X", "Y", "short", "pair"])
        if what == "clique" or not ws:
            c = rng.choice(cliques)
            c[rng.randrange(len(c))] = rng.randrange(N)
        else:
            w = rng.choice(ws)
            side = w[2] if what in ("X", "short") else w[3]
            if what == "short":
                side.pop()
            elif what == "pair":
                w[1] = w[0]
            else:
                side[rng.randrange(len(side))] = rng.randrange(N)
        out.append(
            Snake(
                tuple(tuple(c) for c in cliques),
                tuple(LinkWitness(i, j, tuple(X), tuple(Y)) for i, j, X, Y in ws),
                snake.s,
            )
        )
    return out


def _with_blue_edges(G, rng, count):
    blue = list(G.blue)
    for _ in range(count):
        u, v = rng.sample(range(G.n_vertices), 2)
        blue[u] |= 1 << v
        blue[v] |= 1 << u
    return ColouredGraph(G.n_vertices, blue)


@pytest.mark.parametrize("seed", range(10))
def test_validate_snake_matches_per_vertex_loop(seed):
    rng = random.Random(f"validate/{seed}")
    n = rng.randrange(2, 5)
    if seed % 2:
        G = two_clique_linked_shuffled(n, rng, extra=rng.randrange(10))
    else:
        G = random_bipartite_blue(1 << (n + 2), rng.choice([0.02, 0.05]), rng)
    dec = decompose(G, DecompositionParams.desk(n))
    assert dec.snakes
    # the same snakes on the host, and on copies with blue edges added
    # at random, which can break cliques and witnesses
    for H in (G, _with_blue_edges(G, rng, 3), _with_blue_edges(G, rng, 40)):
        for snake in dec.snakes:
            for sn in _tampered_snakes(H, snake, rng):
                got = validate_snake(H, sn)
                want = reference_validate_snake(H, sn)
                assert (got.ok, got.errors) == (want.ok, want.errors)


def _hub_host(N: int, rng) -> ColouredGraph:
    """A sparse greedy host of N vertices and N/8 blue edges, with hubs
    of blue degree on both sides of the N/256 switch of
    ``find_red_clique`` and of the walk limit of ``counted_bits``
    (2**20 / N neighbours), each joined to random vertices."""
    blue = list(random_triangle_free_greedy(N, N // 8, rng).blue)
    limit = (1 << 20) // N
    hubs: list[int] = []
    for d in sorted({1, 2, N >> 8, (N >> 8) + 1, limit, limit + 1}):
        if d >= N // 2:
            continue
        hub = rng.choice([v for v in range(N) if not blue[v]])
        hubs.append(hub)
        for w in rng.sample([w for w in range(N) if w not in hubs], d):
            _add_edge(blue, hub, w)
    G = ColouredGraph(N, blue)
    assert {N >> 8, limit} & set(G.blue_degrees())
    return G


# the dense route's sparse greedy hosts, N = 2^(n+2) up to 2^15, then
# hosts with hubs, whose picks and rows take both paths
SPARSE_CASES = [("greedy", 1 << (n + 2), 0) for n in range(3, 14)] + [
    ("hubs", N, seed) for N in (1024, 4096, 16384) for seed in range(2)
]


def _sparse_host(case) -> ColouredGraph:
    kind, N, seed = case
    rng = random.Random(f"{kind}/{N}/{seed}")
    if kind == "greedy":
        return random_triangle_free_greedy(N, N // 8, rng)
    return _hub_host(N, rng)


@pytest.mark.parametrize("case", SPARSE_CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
def test_find_red_clique_and_induced_match_peeling_copies(case):
    G = _sparse_host(case)
    N = G.n_vertices
    rng = random.Random(f"walks/{case}")
    pools = [G.full_mask, rng.getrandbits(N), G.full_mask & ~rng.getrandbits(N)]
    for pool in pools:
        for m in (2, N // 8, N // 4, N // 2):
            assert find_red_clique(G, pool, m) == reference_find_red_clique(G, pool, m)
    for vs in (range(N), rng.sample(range(N), N // 2), [v for v in range(N) if G.blue[v]]):
        _assert_induced_copy(G, vs)


def _assert_induced_copy(G: ColouredGraph, vs) -> ColouredGraph:
    """``G.induced(vs)`` against the per-vertex copy, with the degrees,
    classes and member masks that the subgraph's index builds."""
    H, order = G.induced(vs)
    assert (H.blue, order) == reference_induced(G, vs)
    _assert_classes_match_masks(H, "blue_degrees")
    return H


@pytest.mark.parametrize("vs", [[-1], [0, 5, -1], [8], [3, 8]])
def test_induced_rejects_vertex_out_of_range(vs):
    # a degree-0 vertex -1 would otherwise read vertex N-1's row as [-1]
    G = ColouredGraph(8, [0] * 8)
    with pytest.raises(ValueError):
        G.induced(vs)
    # and so must it where vertex N-1, which -1 would read, has a blue edge
    G = ColouredGraph(8, [1 << 7] + [0] * 6 + [1])
    with pytest.raises(ValueError):
        G.induced(vs + [0, 7])


def _assert_threshold_index(G: ColouredGraph):
    deg = [m.bit_count() for m in G.blue]
    for t in range(max(deg, default=0) + 2):
        assert G.blue_at_least(t) == reference_mask_of(
            [v for v, d in enumerate(deg) if d >= t]
        )


@given(hosts())
def test_blue_at_least_matches_degree_filter(host):
    _assert_threshold_index(host[0])


@pytest.mark.parametrize("case", SPARSE_CASES[::2], ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
def test_blue_at_least_on_sparse_and_hub_hosts(case):
    _assert_threshold_index(_sparse_host(case))


@settings(max_examples=60, deadline=None)
@given(hosts(), st.data())
def test_has_blue_into_on_masks_matches_per_vertex_loop(host, data):
    # random masks, blue stars with and without their centre, and masks
    # with bits above the host, which no vertex reaches
    G, _ = host
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    N = G.n_vertices
    masks = [rng.getrandbits(N) for _ in range(4)] + [0, G.full_mask]
    for v in rng.sample(range(N), min(N, 6)):
        masks += [G.blue[v], G.blue[v] | 1 << v, G.blue[v] & rng.getrandbits(N)]
    for S in masks:
        vs = [v for v in range(N) if (S >> v) & 1]
        assert G.has_blue_into(S, S) is (not reference_is_red_clique(G, vs))
        for M in (rng.getrandbits(N), S | 1 << N, G.full_mask & ~S):
            assert G.has_blue_into(S, M) is any(G.blue[v] & M for v in vs)
            assert G.has_blue_into(S | 1 << (N + 1), M) is G.has_blue_into(S, M)


@st.composite
def degree_queries(draw):
    """A host and a vertex mask and target mask for ``blue_into``.  The
    host is one of ``hosts()`` (sparse, greedy or a twin-rich blow-up) or
    a random bipartite host, with up to four pendant vertices blue to one
    vertex each, so one-bit masks occur.  The vertex mask is empty, one
    vertex, random, random with a bit above the host, or every vertex;
    the target is the vertex mask itself or a random mask."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        base = draw(hosts())[0]
    else:
        p = draw(st.sampled_from([0.1, 0.5, 1.0]))
        base = random_bipartite_blue(draw(st.integers(2, 96)), p, rng)
    blue = list(base.blue)
    for _ in range(draw(st.integers(0, 4))):
        u = rng.randrange(len(blue))
        blue[u] |= 1 << len(blue)
        blue.append(1 << u)
    N = len(blue)
    kind = draw(st.sampled_from(["empty", "one", "random", "beyond", "all"]))
    vertices = {
        "empty": 0,
        "one": 1 << rng.randrange(N),
        "random": rng.getrandbits(N),
        "beyond": rng.getrandbits(N) | 1 << (N + 1),
        "all": (1 << N) - 1,
    }[kind]
    target = vertices if draw(st.booleans()) else rng.getrandbits(N)
    return ColouredGraph(N, blue), vertices, target


@settings(max_examples=80, deadline=None)
@given(degree_queries(), st.data())
def test_blue_into_matches_per_vertex_popcount(case, data):
    # thresholds at and below 0, 1 and 2, at, just above and far above
    # the largest degree, and one drawn in between
    G, vertices, target = case
    N = G.n_vertices
    top = max((m.bit_count() for m in G.blue), default=0)
    ts = [-3, 0, 1, 2, top, top + 1, top + 5, data.draw(st.integers(0, top + 1))]
    if not vertices:
        # an empty vertex mask is answered before the index is built
        assert [list(G.blue_into(0, target, t)) for t in ts] == [[]] * len(ts)
        assert G._index is None
    degrees = [(v, (G.blue[v] & target).bit_count()) for v in range(N) if (vertices >> v) & 1]
    for t in ts:
        assert list(G.blue_into(vertices, target, t)) == [(v, d) for v, d in degrees if d >= t]


@st.composite
def light_and_heavy_hosts(draw):
    """A host from ``hosts()`` (below 256 vertices, so every pick of the
    greedy sweep with a blue neighbour is heavy), or a sparse host of 256
    to 1500 vertices with up to three hubs of blue degree above N/256,
    so the sweep marks light picks' neighbours and may move onto its
    candidate mask at a hub."""
    if draw(st.booleans()):
        return draw(hosts())[0]
    N = draw(st.integers(256, 1500))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    blue = [0] * N
    for _ in range(draw(st.integers(0, N))):
        u, v = rng.sample(range(N), 2)
        _add_edge(blue, u, v)
    for _ in range(draw(st.integers(0, 3))):
        hub = rng.randrange(N)
        for w in rng.sample(range(N), rng.randrange(N >> 8, N // 4)):
            if w != hub:
                _add_edge(blue, hub, w)
    return ColouredGraph(N, blue)


def _cut_neighbourhoods(G: ColouredGraph, rng) -> list[int]:
    """Vertex masks: the whole host, random ones, and masks that hold a
    vertex and only part of its blue neighbourhood."""
    N = G.n_vertices
    masks = [G.full_mask, rng.getrandbits(N), G.full_mask & ~rng.getrandbits(N)]
    touched = [v for v in range(N) if G.blue[v]]
    for v in rng.sample(touched, min(len(touched), 3)):
        keep = rng.getrandbits(N)
        masks += [(keep & ~G.blue[v]) | (G.blue[v] & rng.getrandbits(N)) | 1 << v]
    return masks


@settings(max_examples=60, deadline=None)
@given(light_and_heavy_hosts(), st.data())
def test_find_red_clique_matches_peeling_sweep_on_cut_pools(G, data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    N = G.n_vertices
    for pool in _cut_neighbourhoods(G, rng):
        for m in {1, 2, rng.randrange(1, N + 1), pool.bit_count() // 2 or 1}:
            assert find_red_clique(G, pool, m) == reference_find_red_clique(G, pool, m)


@settings(max_examples=60, deadline=None)
@given(light_and_heavy_hosts(), st.data())
def test_induced_matches_per_vertex_copy_on_cut_keep_sets(G, data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    N = G.n_vertices
    for keep in _cut_neighbourhoods(G, rng):
        vs = [v for v in range(N) if (keep >> v) & 1]
        rng.shuffle(vs)
        _assert_induced_copy(G, vs + vs[: len(vs) // 3])


@pytest.mark.parametrize("pool", [1 << 8, 0b11 | 1 << 8, 1 << 40, -1])
def test_find_red_clique_refuses_a_pool_outside_the_host(pool):
    # vertices 2..7 have no blue neighbour: a walk over the blue vertices
    # alone would hand a bit at or above N back as a clique vertex
    G = ColouredGraph.from_blue_edges(8, [(0, 1)])
    for m in (1, 2, 4):
        with pytest.raises(ValueError, match=r"0\.\.7"):
            find_red_clique(G, pool, m)
    with pytest.raises(ValueError, match="positive"):
        find_red_clique(G, 0b1100, 0)


def _matching_host(N: int, rng) -> ColouredGraph:
    """A host whose blue graph is a perfect matching on random pairs."""
    vs = list(range(N))
    rng.shuffle(vs)
    blue = [0] * N
    for i in range(0, N, 2):
        _add_edge(blue, vs[i], vs[i + 1])
    return ColouredGraph(N, blue)


def test_degree_one_hosts_read_neighbours_by_bit_length(monkeypatch):
    # every vertex has blue degree 1, and N >= 256 keeps every pick light:
    # the sweep and the verifier never list a neighbourhood
    def never(mask, k):
        raise AssertionError("counted_bits called")

    monkeypatch.setattr(colored_graph, "counted_bits", never)
    rng = random.Random("matching")
    N, n = 1024, 6
    G = _matching_host(N, rng)
    mate = [G.blue[v].bit_length() - 1 for v in range(N)]
    for pool in (G.full_mask, rng.getrandbits(N), G.full_mask & ~rng.getrandbits(N)):
        for m in (2, N // 4, pool.bit_count() // 2, pool.bit_count() // 2 + 1):
            assert find_red_clique(G, pool, m) == reference_find_red_clique(G, pool, m)
    for vs in (range(N), rng.sample(range(N), N // 2)):
        _assert_induced_copy(G, vs)
    # maps whose cube edges land on matched pairs, on one image twice,
    # or on the mate of a shared image
    base = rng.sample(range(N), 1 << n)
    maps = [dict(enumerate(base))]
    for _ in range(6):
        phi = dict(enumerate(base))
        for z in rng.sample(range(1 << n), 8):
            y = z ^ (1 << rng.randrange(n))
            phi[y] = mate[phi[z]] if rng.random() < 0.7 else phi[z]
        maps.append(phi)
    # the mate of cube vertex 0's image is shared by cube vertex 1 and by
    # the last cube vertex, which is no cube neighbour of 0 and is seen last
    phi = dict(enumerate(base))
    phi[1] = phi[(1 << n) - 1] = mate[phi[0]]
    maps.append(phi)
    for phi in maps:
        assert verify_red_embedding(G, n, phi).errors == reference_verify_errors(G, n, phi)
    assert any(verify_red_embedding(G, n, phi).errors for phi in maps)


class _CountingList(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_all_red_host_reads_no_blue_mask():
    # no vertex has a blue neighbour, so the red tests of a clique and of
    # a snake's cliques and witness sides are settled by the index alone
    N = 1 << 12
    blue = _CountingList([0] * N)
    G = ColouredGraph(N, blue)
    G.blue_degrees()
    blue.reads = 0
    half = N // 2
    snake = Snake(
        (tuple(range(half)), tuple(range(half, N))),
        (LinkWitness(0, 1, tuple(range(8)), tuple(range(half, half + 8))),),
        8,
    )
    assert not G.has_blue_into(G.full_mask, G.full_mask)
    assert validate_snake(G, snake).ok
    assert blue.reads == 0


@st.composite
def first_fit_cases(draw):
    """A host size, a sorted free list, the vertices already taken, an
    order of cube vertices of Q_6, and masks for some of them.  A mask is
    any set of vertices; some masks are 0 and block nothing."""
    N = draw(st.integers(1, 40))
    vertex = st.integers(0, N - 1)
    vertices = st.sets(vertex)
    free = sorted(draw(vertices))
    taken = draw(vertices)
    order = draw(st.lists(st.integers(0, 63), unique=True, max_size=40))
    masks = {z: mask_of(sorted(draw(vertices))) for z in order if draw(st.booleans())}
    return N, free, taken, order, masks


def _first_fit_outcome(fit, case, image_is_list, *blockable):
    N, free, taken, order, masks = case
    image = [-1] * 64 if image_is_list else {}
    took = bytearray(N)
    for v in taken:
        took[v] = 1
    placed = fit(free, order, image, took, masks.get, *blockable)
    if isinstance(image, dict):
        image = list(image.items())
    return placed, image, took


@settings(max_examples=200, deadline=None)
@given(first_fit_cases(), st.booleans())
def test_first_fit_matches_per_vertex_scan(case, image_is_list):
    # every vertex blockable: each cube vertex is asked for its mask
    every = bytearray([1]) * case[0]
    assert _first_fit_outcome(first_fit, case, image_is_list, every) == (
        _first_fit_outcome(reference_first_fit, case, image_is_list)
    )


@settings(max_examples=200, deadline=None)
@given(first_fit_cases(), st.booleans(), st.data())
def test_first_fit_with_blockable_support_matches_per_vertex_scan(
    case, image_is_list, data
):
    # blockable marks the vertices some mask holds, and random others
    N, masks = case[0], case[4]
    marked = set(data.draw(st.sets(st.integers(0, N - 1))))
    for m in masks.values():
        marked.update(v for v in range(N) if (m >> v) & 1)
    blockable = bytearray(N)
    for v in marked:
        blockable[v] = 1
    assert _first_fit_outcome(first_fit, case, image_is_list, blockable) == (
        _first_fit_outcome(reference_first_fit, case, image_is_list)
    )


def test_first_fit_asks_for_a_mask_only_where_a_vertex_is_blockable():
    asked = []

    def blocked_of(z):
        asked.append(z)
        return 0b1100

    # no free vertex is blockable: no cube vertex is asked for its mask
    free, order = [0, 1, 2, 3, 4], [5, 6, 7]
    image, taken = {}, bytearray(5)
    assert first_fit(free, order, image, taken, blocked_of, bytearray(5)) == 3
    assert asked == [] and image == {5: 0, 6: 1, 7: 2}
    # vertices 2 and 3 are blockable: cube vertex 7 meets them, is asked
    # once, and its mask sends it past both to vertex 4
    image, taken = {}, bytearray(5)
    blockable = bytearray([0, 0, 1, 1, 0])
    assert first_fit(free, order, image, taken, blocked_of, blockable) == 3
    assert asked == [7] and image == {5: 0, 6: 1, 7: 4}


def test_first_fit_mask_blocks_vertices_without_blue_neighbours():
    # the masks block vertices of an all-red host too, and the walk stops
    # at cube vertex 7, whose mask covers the one vertex left
    image, taken = {}, bytearray(3)
    masks = {5: 0b011, 7: 0b010}
    every = bytearray([1]) * 3
    assert first_fit([0, 1, 2], [5, 6, 7, 8], image, taken, masks.get, every) == 2
    assert image == {5: 2, 6: 0}
    assert taken == bytearray([1, 0, 1])
