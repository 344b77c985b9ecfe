import io
import random
from itertools import combinations

import pytest

from helpers import (
    is_red,
    random_colouring,
    reference_is_red_clique,
    reference_verify_errors,
    two_clique_linked_graph,
)
from cuberamsey.bits import bits_list, mask_of
from cuberamsey.colored_graph import (
    ColouredGraph,
    find_red_clique,
    heaviest_blue_star,
    is_blue_triangle_free,
    lower_bound_coloring,
    max_balanced_biclique,
    max_disjoint_red_cliques,
    random_bipartite_blue,
    random_triangle_free_greedy,
    red_components,
    require_blue_triangle_free,
    verify_red_embedding,
)
from cuberamsey.errors import GraphParseError, HypothesisError
from cuberamsey.oracle import canonical_triangle_free_graphs


def brute_has_blue_triangle(G):
    for a, b, c in combinations(range(G.n_vertices), 3):
        if G.is_blue(a, b) and G.is_blue(a, c) and G.is_blue(b, c):
            return (a, b, c)
    return None


def test_constructor_validates():
    with pytest.raises(ValueError):
        ColouredGraph(2, [0b10])  # wrong length
    with pytest.raises(ValueError):
        ColouredGraph(2, [0b01, 0b00])  # self loop
    with pytest.raises(ValueError):
        ColouredGraph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        ColouredGraph(2, [0b100, 0b000])  # out of range


def test_text_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        G = random_colouring(rng.randrange(1, 15), rng.random(), rng)
        buf = io.StringIO()
        G.to_text(buf)
        buf.seek(0)
        H = ColouredGraph.from_text(buf)
        assert H.n_vertices == G.n_vertices
        assert H.blue == G.blue


def test_from_text_rejects_garbage():
    for text, bad_line in [
        ("", None),
        ("x\n", 1),
        ("3\n0 0\n", 2),
        ("3\n1 0\n", 2),  # needs u < v
        ("3\n0 5\n", 2),
        ("3\n0 1 2\n", 2),
        ("-1\n", 1),
    ]:
        with pytest.raises(GraphParseError):
            ColouredGraph.from_text(io.StringIO(text))


def test_from_text_allows_comments_and_blanks():
    G = ColouredGraph.from_text(io.StringIO("# colouring\n3\n\n0 2\n"))
    assert G.n_vertices == 3
    assert G.is_blue(0, 2) and not G.is_blue(0, 1)


def test_triangle_detection_against_brute_force():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randrange(3, 13)
        G = random_colouring(n, rng.choice([0.1, 0.3, 0.6, 0.9]), rng)
        ok, tri = is_blue_triangle_free(G)
        brute = brute_has_blue_triangle(G)
        assert ok == (brute is None)
        if not ok:
            a, b, c = tri
            assert G.is_blue(a, b) and G.is_blue(a, c) and G.is_blue(b, c)


def test_red_components_against_brute_force():
    rng = random.Random(29)
    for trial in range(160):
        n = rng.randrange(1, 14)
        G = random_colouring(n, rng.random(), rng)
        # every other graph is split inside a random pool
        pool = G.full_mask if trial % 2 else rng.getrandbits(n)
        comps = red_components(G) if trial % 2 else red_components(G, pool)
        # brute union-find over red edges inside the pool
        members = [v for v in range(n) if pool >> v & 1]
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in combinations(members, 2):
            if is_red(G, u, v):
                parent[find(u)] = find(v)
        groups = {}
        for v in members:
            groups.setdefault(find(v), 0)
            groups[find(v)] |= 1 << v
        assert sorted(comps) == sorted(groups.values())
        # ordered by smallest member
        assert [c & -c for c in comps] == sorted(c & -c for c in comps)


def test_find_red_clique_against_brute_force():
    # the sweep is sound but not complete: a tuple it returns is a red
    # m-clique inside the pool, and None proves nothing
    rng = random.Random(41)
    found = 0
    for _ in range(120):
        n = rng.randrange(4, 13)
        G = random_colouring(n, rng.choice([0.3, 0.5, 0.8]), rng)
        pool = 0
        for v in range(n):
            if rng.random() < 0.8:
                pool |= 1 << v
        m = rng.randrange(2, 5)
        got = find_red_clique(G, pool, m)
        if got is not None:
            found += 1
            assert len(got) == m
            assert list(got) == sorted(got)
            assert all((pool >> v) & 1 for v in got)
            assert reference_is_red_clique(G, got)
    assert found >= 20


def _clique_family_hosts():
    """Random colourings, blue triangles allowed, then triangle-free
    greedy and bipartite hosts, each with a vertex mask and a clique
    size."""
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randrange(6, 15)
        G = random_colouring(n, rng.choice([0.2, 0.5, 0.8]), rng)
        yield G, (1 << n) - 1, rng.randrange(2, 5)
    rng = random.Random(61)
    for i in range(80):
        n = rng.randrange(6, 60)
        if i % 2:
            G = random_triangle_free_greedy(n, rng.randrange(3 * n), rng)
        else:
            G = random_bipartite_blue(n, rng.choice([0.1, 0.3, 0.7]), rng)
        A = G.full_mask if rng.random() < 0.5 else rng.getrandbits(n)
        yield G, A, rng.randrange(2, max(3, n // 3))


def test_max_disjoint_red_cliques_family_properties():
    promised = 0
    for G, A, m in _clique_family_hosts():
        fam = max_disjoint_red_cliques(G, A, m)
        seen = 0
        for cl in fam:
            assert len(cl) == m
            assert reference_is_red_clique(G, cl)
            cm = mask_of(cl)
            assert cm & A == cm
            assert not (cm & seen), "cliques overlap"
            seen |= cm
        if is_blue_triangle_free(G)[0]:
            # the promise: no vertex keeps m blue neighbours in the leftover
            left = A & ~seen
            assert all((b & left).bit_count() < m for b in G.blue)
            promised += 1
    assert promised >= 80


def test_heaviest_blue_star_against_every_vertex():
    # reads class representatives from t = 2 on, and still picks the
    # first vertex of G with the most blue neighbours in the pool
    for G, A, _ in _clique_family_hosts():
        counts = [(b & A).bit_count() for b in G.blue]
        top = max(counts)
        for t in range(0, 5):
            want = (counts.index(top), top) if top >= t else None
            assert heaviest_blue_star(G, A, t) == want


def brute_max_balanced_biclique(G, side1, side2):
    best = 0
    bx, by = (), ()
    for w in range(1, min(len(side1), len(side2)) + 1):
        found = None
        for X in combinations(side1, w):
            for Y in combinations(side2, w):
                if all(is_red(G, x, y) for x in X for y in Y):
                    found = (X, Y)
                    break
            if found:
                break
        if found:
            best, (bx, by) = w, found
        else:
            break
    return best, bx, by


def test_max_balanced_biclique_against_subset_enumeration():
    rng = random.Random(67)
    for _ in range(60):
        n1 = rng.randrange(1, 7)
        n2 = rng.randrange(1, 7)
        side1 = list(range(n1))
        side2 = list(range(n1, n1 + n2))
        G = random_colouring(n1 + n2, rng.choice([0.2, 0.5, 0.8]), rng)
        bw, _, _ = brute_max_balanced_biclique(G, side1, side2)
        # a lower bound on the exact weight; a cap clips it, witness
        # included, and a weight below the cap is the uncapped one
        uncapped = max_balanced_biclique(G, side1, side2, min(n1, n2))
        for cap in range(min(n1, n2) + 2):
            w, X, Y = max_balanced_biclique(G, side1, side2, cap)
            assert w <= min(bw, cap)
            if w < cap:
                assert (w, X, Y) == uncapped
            assert len(X) == len(Y) == w
            assert set(X) <= set(side1) and set(Y) <= set(side2)
            assert all(is_red(G, x, y) for x in X for y in Y)


def test_max_balanced_biclique_conventions():
    # no red cross pair at all: the empty biclique, w = 0
    G = ColouredGraph.from_blue_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert max_balanced_biclique(G, [0, 1], [2, 3], 2) == (0, (), ())
    # all red: w is the smaller side
    H = ColouredGraph(5, [0] * 5)
    w, X, Y = max_balanced_biclique(H, [0, 1], [2, 3, 4], 2)
    assert w == 2 and X == (0, 1) and len(Y) == 2
    with pytest.raises(ValueError):
        max_balanced_biclique(H, [0, 1], [1, 2], 2)


def test_max_balanced_biclique_planted_block():
    # dense blue cross with an all-red corner; the exact answer is the corner
    rng = random.Random(71)
    n1, n2, b = 12, 12, 5
    blue = [0] * (n1 + n2)
    for u in range(n1):
        for v in range(n1, n1 + n2):
            if u < b and v - n1 < b:
                continue
            blue[u] |= 1 << v
            blue[v] |= 1 << u
    G = ColouredGraph(n1 + n2, blue)
    w, X, Y = max_balanced_biclique(G, range(n1), range(n1, n1 + n2), min(n1, n2))
    assert w == b
    assert all(is_red(G, x, y) for x in X for y in Y)


def test_lower_bound_coloring_properties():
    for n in range(1, 7):
        G = lower_bound_coloring(n)
        assert G.n_vertices == 2 * ((1 << n) - 1)
        ok, _ = is_blue_triangle_free(G)
        assert ok
        comps = red_components(G)
        assert len(comps) == 2
        assert all(c.bit_count() == (1 << n) - 1 for c in comps)


def test_random_bipartite_blue_is_triangle_free():
    rng = random.Random(83)
    for p in (0.0, 0.3, 1.0):
        G = random_bipartite_blue(20, p, rng)
        ok, _ = is_blue_triangle_free(G)
        assert ok
        half = 10
        for u in range(half):
            assert G.blue[u] & ((1 << half) - 1) == 0


def test_random_triangle_free_greedy_respects_both_promises():
    rng = random.Random(97)
    for _ in range(20):
        n = rng.randrange(6, 40)
        target = rng.randrange(0, n)
        G = random_triangle_free_greedy(n, target, rng)
        ok, _ = is_blue_triangle_free(G)
        assert ok
        assert G.blue_edge_count() <= target
        deg = G.blue_degrees()
        assert deg == [sum(G.is_blue(u, v) for v in range(n)) for u in range(n)]
        assert G.blue_degrees() is deg


def test_require_blue_triangle_free_raises_the_hypothesis():
    # the one home of the triangle-free hypothesis that solve, dense_embed
    # and the decompose command raise: its witness is the check's triangle
    require_blue_triangle_free(lower_bound_coloring(3))
    G = ColouredGraph.from_blue_edges(8, [(2, 5), (2, 7), (5, 7), (0, 1)])
    with pytest.raises(HypothesisError) as e:
        require_blue_triangle_free(G)
    tri = is_blue_triangle_free(G)[1]
    assert (e.value.hypothesis, e.value.witness) == ("triangle-free", tri)
    assert e.value.details == f"blue triangle {tri}"


@pytest.mark.parametrize("n", [0, 1])
def test_random_triangle_free_greedy_without_a_pair_is_edgeless(n):
    # fewer than 2 vertices hold no pair to draw, whatever the target
    G = random_triangle_free_greedy(n, 5, random.Random(0))
    assert (G.n_vertices, G.blue) == (n, [0] * n)


def test_generators_are_seed_deterministic():
    a = random_triangle_free_greedy(30, 12, random.Random(5))
    b = random_triangle_free_greedy(30, 12, random.Random(5))
    assert a.blue == b.blue
    c = random_bipartite_blue(30, 0.4, random.Random(9))
    d = random_bipartite_blue(30, 0.4, random.Random(9))
    assert c.blue == d.blue


def test_verify_red_embedding():
    G = ColouredGraph(6, [0] * 6)  # everything red
    phi = {0: 0, 1: 1, 2: 2, 3: 3}
    assert verify_red_embedding(G, 2, phi).ok
    # non-injective
    bad = dict(phi)
    bad[3] = 0
    assert not verify_red_embedding(G, 2, bad).ok
    # missing cube vertices are a caller bug, not a verdict
    with pytest.raises(ValueError):
        verify_red_embedding(G, 2, {0: 0, 1: 1})
    # blue cube edge caught
    H = ColouredGraph.from_blue_edges(6, [(0, 1)])
    v = verify_red_embedding(H, 2, phi)
    assert not v.ok
    assert any("non-red" in e for e in v.errors)
    # out-of-range image
    assert not verify_red_embedding(G, 2, {0: 0, 1: 1, 2: 2, 3: 9}).ok


def test_verify_red_embedding_counts_a_short_map_at_n_40():
    # a one-entry map of Q_40 is counted, not listed against all 2^40
    # cube vertices; keys outside the cube count for nothing
    G = ColouredGraph(2, [0, 0])
    with pytest.raises(ValueError) as e:
        verify_red_embedding(G, 40, {0: 0})
    assert str(e.value) == (
        "phi is only partially defined: 1099511627775 cube vertices missing, first 1"
    )
    with pytest.raises(ValueError) as e:
        verify_red_embedding(G, 2, {1: 0, 3: 1, 4: 0, -1: 1})
    assert str(e.value) == "phi is only partially defined: 2 cube vertices missing, first 0"


def test_verify_red_embedding_on_two_clique_host():
    # cliques 0..3 and 4..7, blue across but for the red pairs {0,1}x{4,5};
    # every vertex has blue degree 2 or more, so every image is classed
    G = two_clique_linked_graph(1)
    # images 0 and 6 are blue, but cube vertices 0 and 3 are not adjacent
    apart = {0: 0, 1: 4, 2: 5, 3: 6}
    assert G.is_blue(0, 6)
    assert verify_red_embedding(G, 2, apart).ok
    # one cube edge, 2-3, lands on the blue pair 2-5
    bad = {0: 0, 1: 4, 2: 2, 3: 5}
    v = verify_red_embedding(G, 2, bad)
    assert v.errors == ["cube edge 2-3 lands on non-red pair 2-5"]
    assert v.errors == reference_verify_errors(G, 2, bad)


@pytest.mark.parametrize("image", [99, -1])
def test_verify_red_embedding_out_of_range_lower_end(image):
    # cube vertex 0 is the lower end of its edges, so the edge check meets
    # the bad image first; it is reported once and its edges are skipped.
    # The blue edge 1-7 would show up if -1 were read as vertex 7.
    G = ColouredGraph.from_blue_edges(8, [(1, 7)])
    v = verify_red_embedding(G, 2, {0: image, 1: 1, 2: 2, 3: 3})
    assert not v.ok
    assert v.errors == [f"cube vertex 0 maps to out-of-range vertex {image}"]


@pytest.mark.parametrize("call, error, message", [
    (lambda: ColouredGraph(-1, []), ValueError, "vertex count must be nonnegative"),
    (lambda: ColouredGraph.from_blue_edges(3, [(1, 1)]), ValueError,
     "self-loop at vertex 1"),
    (lambda: ColouredGraph.from_blue_edges(3, [(0, 5)]), ValueError,
     "edge 0-5 out of range"),
    (lambda: ColouredGraph.from_text(io.StringIO("3 4\n")), GraphParseError,
     "line 1: first line must hold the vertex count"),
    (lambda: ColouredGraph.from_text(io.StringIO("3\n0 x\n")), GraphParseError,
     "line 2: non-integer endpoint in '0 x'"),
    (lambda: max_disjoint_red_cliques(ColouredGraph(2, [0, 0]), 0b11, 0), ValueError,
     "clique size must be positive"),
    (lambda: lower_bound_coloring(-1), ValueError, "dimension must be nonnegative"),
    (lambda: random_bipartite_blue(4, 1.5, random.Random(0)), ValueError,
     "probability out of range"),
    (lambda: canonical_triangle_free_graphs(0), ValueError,
     "graph size must be positive"),
], ids=[
    "negative-count", "self-loop", "edge-range", "header", "endpoint",
    "clique-size", "dimension", "probability", "sweep-size",
])
def test_refusals_name_their_fault(call, error, message):
    with pytest.raises(error) as e:
        call()
    assert str(e.value) == message
