import hashlib
import json
import random

import pytest

from helpers import (
    all_red_graph,
    decomposition_of,
    reference_snake_embed,
    two_clique_linked_graph,
)
from cuberamsey.bits import bits_list, mask_of
from cuberamsey.colored_graph import ColouredGraph, verify_red_embedding
from cuberamsey.decomposition import DecompositionParams, verify_decomposition
from cuberamsey.errors import StageFailure
from cuberamsey.hypercube import bandwidth_bound, bandwidth_order
from cuberamsey.snake_embedding import (
    LinkWitness,
    Snake,
    closed_tree_walk,
    link_tree,
    snake_embed,
    validate_snake,
)


def _toy_snake(s=2):
    G = all_red_graph(8)
    snake = Snake(
        cliques=((0, 1, 2, 3), (4, 5, 6, 7)),
        witnesses=(LinkWitness(0, 1, (0, 1), (4, 5)),),
        s=s,
    )
    return G, snake


def test_validate_snake_accepts_good_instance():
    G, snake = _toy_snake()
    assert validate_snake(G, snake).ok
    # planted structure at real scale
    n = 4
    G = two_clique_linked_graph(n)
    m, s = 1 << (n + 1), 12
    snake = Snake(
        cliques=(tuple(range(m)), tuple(range(m, 2 * m))),
        witnesses=(
            LinkWitness(0, 1, tuple(range(s)), tuple(range(m, m + s))),
        ),
        s=s,
    )
    assert validate_snake(G, snake).ok


def test_validate_snake_rejections():
    G, snake = _toy_snake()
    bad = Snake(snake.cliques, (LinkWitness(0, 1, (0,), (4, 5)),), 2)
    v = validate_snake(G, bad)
    assert not v.ok and any("sides of size" in e for e in v.errors)

    blue = ColouredGraph.from_blue_edges(8, [(1, 4)])
    v = validate_snake(blue, Snake(snake.cliques, snake.witnesses, 2))
    assert not v.ok and any("blue cross pair" in e for e in v.errors)

    v = validate_snake(G, Snake(snake.cliques, (), 2))
    assert v.errors == [
        "link graph is disconnected: clique 0 does not reach 1 of the 2 cliques"
    ]

    v = validate_snake(G, Snake(((0, 1, 2), (2, 3, 4)), (), 1))
    assert not v.ok and any("share vertices" in e for e in v.errors)

    blue_inside = ColouredGraph.from_blue_edges(8, [(0, 1)])
    v = validate_snake(blue_inside, Snake(snake.cliques, snake.witnesses, 2))
    assert not v.ok and any("not a red clique" in e for e in v.errors)

    v = validate_snake(G, Snake(((0, 1), (2, 99)), (), 1))
    assert not v.ok and any("out-of-range" in e for e in v.errors)

    dup = (LinkWitness(0, 1, (0, 1), (4, 5)), LinkWitness(0, 1, (2, 3), (6, 7)))
    v = validate_snake(G, Snake(snake.cliques, dup, 2))
    assert not v.ok and any("duplicate witness" in e for e in v.errors)

    v = validate_snake(G, Snake(((0, 1, 2, 3), (4, 5, 6)), snake.witnesses, 2))
    assert v.errors == ["clique 1 has 3 vertices, expected 4"]

    for s in (0, -1):
        v = validate_snake(G, Snake(snake.cliques, snake.witnesses, s))
        assert v.errors == [f"link strength s must be positive, got {s}"]


def test_snake_masks_are_the_clique_masks():
    G, snake = _toy_snake()
    assert snake.clique_masks == tuple(mask_of(c) for c in snake.cliques)
    assert snake.mask == mask_of(v for c in snake.cliques for v in c)
    assert snake.clique_masks is snake.clique_masks
    # a negative vertex is a range error, reported before any mask is built
    v = validate_snake(G, Snake(((0, 1, 2, -1), (4, 5, 6, 7)), snake.witnesses, 2))
    assert v.errors == ["clique 0 mentions out-of-range vertices"]
    v = validate_snake(G, Snake(((0, 1, 1, 3), (4, 5, 6, 7)), snake.witnesses, 2))
    assert v.errors == ["clique 0 repeats a vertex"]


def test_closed_tree_walk_path_and_star():
    G = all_red_graph(12)
    path = Snake(
        cliques=((0, 1), (2, 3), (4, 5)),
        witnesses=(
            LinkWitness(0, 1, (0,), (2,)),
            LinkWitness(1, 2, (3,), (4,)),
        ),
        s=1,
    )
    assert closed_tree_walk(path) == (0, 1, 2, 1, 0)

    star = Snake(
        cliques=((0, 1), (2, 3), (4, 5), (6, 7)),
        witnesses=(
            LinkWitness(0, 1, (0,), (2,)),
            LinkWitness(0, 2, (0,), (4,)),
            LinkWitness(0, 3, (1,), (6,)),
        ),
        s=1,
    )
    w = closed_tree_walk(star)
    assert w == (0, 1, 0, 2, 0, 3, 0)
    # every step of the walk is a link, and every clique gets visited
    links = {lw.pair() for lw in star.witnesses}
    for a, b in zip(w, w[1:]):
        assert (min(a, b), max(a, b)) in links
    assert set(w) == {0, 1, 2, 3}


def test_link_tree_is_breadth_first_from_clique_0():
    # children in ascending order, each clique under its first reacher
    tree = link_tree(6, [(3, 4), (0, 3), (0, 2), (2, 3), (4, 5)])
    assert tree == {0: [2, 3], 2: [], 3: [4], 4: [5], 5: []}
    # clique 1 is not reached, so it is not in the tree
    assert link_tree(3, [(1, 2)]) == {0: []}


def test_closed_tree_walk_disconnected():
    with pytest.raises(ValueError):
        closed_tree_walk(Snake(((0, 1), (2, 3)), (), 1))


def test_snake_embed_single_clique():
    n = 3
    G = all_red_graph(16)
    snake = Snake((tuple(range(16)),), (), s=4)
    phi = snake_embed(G, snake, range(1 << n), n)
    assert sorted(phi) == list(range(8))
    assert len(set(phi.values())) == 8
    assert verify_red_embedding(G, n, phi).ok


def test_snake_embed_within_clique_of_planted_host():
    n = 4
    G = two_clique_linked_graph(n)
    m, s = 1 << (n + 1), 12
    snake = Snake(
        cliques=(tuple(range(m)), tuple(range(m, 2 * m))),
        witnesses=(
            LinkWitness(0, 1, tuple(range(s)), tuple(range(m, m + s))),
        ),
        s=s,
    )
    phi = snake_embed(G, snake, range(1 << n), n)
    assert len(phi) == 1 << n
    assert verify_red_embedding(G, n, phi).ok


def test_snake_embed_crosses_planted_link():
    # cliques trimmed to 14 so Q_4 cannot fit on one side of the walk
    n = 4
    G = two_clique_linked_graph(n)
    m, s = 14, 12
    assert s == bandwidth_bound(n)
    snake = Snake(
        cliques=(tuple(range(m)), tuple(range(32, 32 + m))),
        witnesses=(
            LinkWitness(0, 1, tuple(range(s)), tuple(range(32, 32 + s))),
        ),
        s=s,
    )
    phi = snake_embed(G, snake, range(1 << n), n)
    assert verify_red_embedding(G, n, phi).ok
    images = set(phi.values())
    assert images & set(range(32, 32 + m)), "second clique went unused"


def test_snake_embed_respects_forbidden_masks():
    n = 3
    G = all_red_graph(32)
    snake = Snake((tuple(range(32)),), (), s=4)
    forb = {0: (1 << 10) - 1, 5: (1 << 20) - 1}
    phi = snake_embed(G, snake, range(1 << n), n, forbidden=forb)
    assert verify_red_embedding(G, n, phi).ok
    assert phi[0] >= 10 and phi[5] >= 20


def test_snake_embed_impossible_forbidden():
    G = all_red_graph(8)
    snake = Snake((tuple(range(8)),), (), s=2)
    with pytest.raises(StageFailure) as e:
        snake_embed(G, snake, range(4), 2, forbidden={0: (1 << 8) - 1})
    assert e.value.stage == "snake-walk"


def test_snake_embed_rejects_bad_input():
    G, snake = _toy_snake()
    with pytest.raises(ValueError):
        snake_embed(G, Snake(((0, 1), (1, 2)), (), 1), range(2), 1)
    with pytest.raises(ValueError):
        snake_embed(G, snake, [0, 0, 1], 2)
    with pytest.raises(ValueError):
        snake_embed(G, snake, [0, 9], 2)


@pytest.mark.parametrize(
    "cliques, witnesses, error",
    [
        (((0, 1, 2, 3), (4, 5, 6, 8)), ((0, 1, (0, 1), (4, 5)),),
         "clique 1 mentions out-of-range vertices"),
        (((0, 1, 2, 3), (4, 5, 6, 7)), ((0, 5, (0, 1), (4, 5)),),
         "witness names bad clique pair (0, 5)"),
        (((0, 1, 2, 3), (4, 5, 6, 7)), ((1, 0, (4, 5), (0, 1)),),
         "witness names bad clique pair (1, 0)"),
        (((0, 1, 2, 3), (4, 5, 6, 7)), ((0, 1, (0, 1), (4, 5)), (0, 1, (2, 3), (6, 7))),
         "duplicate witness for a clique pair"),
    ],
    ids=["vertex", "pair-beyond-k", "reversed-pair", "duplicate-pair"],
)
def test_snake_embed_refuses_what_its_walk_cannot_read(cliques, witnesses, error):
    # these would index past the walk's cliques or pick one of two
    # witnesses for a link; validate_snake reports the same fault alone
    G = all_red_graph(8)
    snake = Snake(cliques, tuple(LinkWitness(*w) for w in witnesses), 2)
    with pytest.raises(ValueError) as e:
        snake_embed(G, snake, range(8), 3)
    assert str(e.value) == f"invalid snake: {error}"
    assert validate_snake(G, snake).errors == [error]


def test_snake_embed_leaves_snake_validity_to_the_verifiers():
    # the snake is connected and inside G, but clique 0 holds the blue
    # edge 2-3: the walk runs, and the edge is caught where each artefact
    # is trusted, the map by verify_red_embedding and the certificate by
    # verify_decomposition
    _, snake = _toy_snake()
    G = ColouredGraph.from_blue_edges(8, [(2, 3)])
    phi = snake_embed(G, snake, range(8), 3)
    errors = verify_red_embedding(G, 3, phi).errors
    assert "cube edge 0-1 lands on non-red pair 2-3" in errors
    assert "clique 0 is not a red clique" in validate_snake(G, snake).errors
    params = DecompositionParams(m=1, s_lo=1, s_hi=2, lam=2, mu=1)
    verdict = verify_decomposition(G, decomposition_of(8, params, snake))
    assert "snake 0 invalid: clique 0 is not a red clique" in verdict.errors


def _seeded_snake(rng, k, shape, n, wide):
    """k disjoint cliques on shuffled labels of an all-red host, linked as
    a path or as a star by random witness sides.

    Narrow sides are shorter than a batch, so the walk reserves all of a
    side and crosses several links.  Wide sides are longer than the two
    batches a side is owed, so the reservation holds back only their
    lowest free vertices and the free stretch fills the rest.
    """
    if wide:
        least = 2 * (bandwidth_bound(n) + 3) + 1
        s = rng.randint(least, least + 12)
        m = rng.randint(s, s + 8)
    else:
        m = rng.randint(5, 60 // k)
        s = rng.randint(2, min(m, 8))
    N = k * m + rng.randint(0, 6)
    labels = rng.sample(range(N), k * m)
    cliques = [tuple(sorted(labels[i * m:(i + 1) * m])) for i in range(k)]
    if shape == "path":
        pairs = [(i, i + 1) for i in range(k - 1)]
    else:
        pairs = [(0, j) for j in range(1, k)]
    witnesses = tuple(
        LinkWitness(i, j, tuple(sorted(rng.sample(cliques[i], s))),
                    tuple(sorted(rng.sample(cliques[j], s))))
        for i, j in pairs
    )
    return all_red_graph(N), Snake(tuple(cliques), witnesses, s)


def _walk_outcome(embed, *args, **kwargs):
    try:
        return ("map", embed(*args, **kwargs))
    except StageFailure as e:
        return ("failure", e.stage, e.data)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("shape", ["path", "star"])
@pytest.mark.parametrize("wide", [False, True])
def test_snake_embed_matches_per_vertex_reservation(k, shape, wide):
    # the walk computes the reservation once per position; the reference
    # rebuilds it before every placed vertex, and the two must agree
    outcomes = set()
    clique_counts = set()
    partial = 0
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.choice((4, 5))
        G, snake = _seeded_snake(rng, k, shape, n, wide)
        cube = range(1 << n)
        members = bits_list(snake.mask)
        forb = {
            z: sum(1 << v for v in rng.sample(members, rng.randint(1, 3)))
            for z in rng.sample(cube, rng.randint(1, len(cube)))
        }
        stats = {}
        want = _walk_outcome(reference_snake_embed, snake, cube, n, forb, stats)
        got = _walk_outcome(snake_embed, G, snake, cube, n, forbidden=forb)
        assert got == want, f"seed {seed}"
        assert stats["binding"] > 0, f"seed {seed}: the reservation never bound"
        partial += stats["partial"]
        outcomes.add(want[0])
        if want[0] == "map":
            clique_counts.add(
                sum(1 for c in snake.cliques if set(c) & set(want[1].values()))
            )
    if wide:
        assert partial > 0
    else:
        assert outcomes == {"map", "failure"}
        assert max(clique_counts) > 2


def test_snake_embed_reserves_after_arrival_batch():
    # The walk is 0, 1, 0 and both batches on the side X = {0, 1} are cut
    # short by forbidden masks, so X is still free when the walk returns.
    # Its last batch is then spent and X is owed nothing: the final
    # stretch may use it, which only a reservation taken after the
    # arrival batch allows.
    n = 3
    q = bandwidth_order(range(8))
    G = all_red_graph(8)
    snake = Snake(
        cliques=((0, 1, 2, 3), (4, 5, 6, 7)),
        witnesses=(LinkWitness(0, 1, (0, 1), (4, 5)),),
        s=2,
    )
    forb = {q[1]: 0b1011, q[5]: 0b0011}
    phi = snake_embed(G, snake, range(8), n, forbidden=forb)
    assert phi == reference_snake_embed(snake, range(8), n, forb, {})
    assert {phi[q[6]], phi[q[7]]} == {0, 1}


# sha256 of snake_embed's outcomes, in seed order, on 24 seeded snakes per
# cell (wide sides on odd seeds, forbidden masks on up to every cube
# vertex): json of each map's sorted items, or of the failure's stage and
# payload.  Recorded before the walk ran its steps from one list; most
# of these walks cross two or more links
WALK_GOLDEN = {
    (3, "path"): "bd33be5d7b02d9901f042dada3ab25e835423c89941d275c23af9493494e27a6",
    (3, "star"): "a8d5f6922c0c4291caf9db6357c1bc9f236ebec115e48904eda47263cef8a7b1",
    (4, "path"): "6e6d5f2712cdff8f5ebdc14f4b430bd59b8b3b459570f80ec86f1efeea75e2fc",
    (4, "star"): "ac8d5670467670de1c3f986fc6bf4a097c725515db36124eaa457548e6b780ea",
    (5, "path"): "96eb84bd4d2ae786f191c02083bc1c3f8cf4027be960a3141423fec0a8eb302c",
    (5, "star"): "6f99b31297b1c7984c9937f42fed0eb2c630593a26f0df0d8fd340e19ce17e9b",
}


@pytest.mark.parametrize("k, shape", sorted(WALK_GOLDEN))
def test_snake_embed_cross_link_walks_match_golden_hashes(k, shape):
    outcomes = []
    for seed in range(24):
        rng = random.Random(f"walk-golden/{k}/{shape}/{seed}")
        n = rng.choice((4, 5))
        G, snake = _seeded_snake(rng, k, shape, n, wide=seed % 2 == 1)
        cube = range(1 << n)
        members = bits_list(snake.mask)
        forb = {
            z: sum(1 << v for v in rng.sample(members, rng.randint(1, 3)))
            for z in rng.sample(cube, rng.randint(0, len(cube)))
        }
        got = _walk_outcome(snake_embed, G, snake, cube, n, forbidden=forb)
        outcomes.append(sorted(got[1].items()) if got[0] == "map" else list(got))
    text = json.dumps(outcomes, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == WALK_GOLDEN[k, shape]


def test_a_deep_path_snake_walks_without_recursion():
    # a path of 2,000 two-vertex cliques: the tour goes down and back up,
    # far deeper than Python's default recursion limit
    k = 2000
    cliques = tuple((2 * i, 2 * i + 1) for i in range(k))
    witnesses = tuple(
        LinkWitness(i, i + 1, (2 * i + 1,), (2 * i + 2,)) for i in range(k - 1)
    )
    snake = Snake(cliques, witnesses, 1)
    assert closed_tree_walk(snake) == (*range(k), *range(k - 2, -1, -1))
    G = all_red_graph(2 * k)
    phi = snake_embed(G, snake, range(16), 4)
    assert verify_red_embedding(G, 4, phi).ok


def test_validate_snake_refuses_a_snake_without_cliques():
    G = all_red_graph(4)
    assert validate_snake(G, Snake((), (), 1)).errors == [
        "a snake needs at least one clique"
    ]
