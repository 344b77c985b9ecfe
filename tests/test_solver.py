import hashlib
import json
import random
import signal
from fractions import Fraction
from math import ceil

import pytest

from helpers import (
    all_red_graph,
    decomposition_of,
    legacy_certificate_json,
    reference_solve_snakes,
    two_clique_linked_graph,
    two_clique_linked_shuffled,
)
from cuberamsey.colored_graph import (
    ColouredGraph,
    random_bipartite_blue,
    random_triangle_free_greedy,
    verify_red_embedding,
)
from cuberamsey.decomposition import (
    Decomposition,
    DecompositionParams,
    decompose,
    verify_decomposition,
)
from cuberamsey.dense_embedding import ThresholdSchedule
from cuberamsey.errors import HypothesisError, StageFailure
from cuberamsey import decomposition, snake_embedding, solver
from cuberamsey.snake_embedding import LinkWitness, Snake, validate_snake
from cuberamsey.solver import SolverParams, assign_subcubes, choose_case, solve


def _min_order(n, params):
    return ceil((1 + params.epsilon) * (1 << (n + 1)))


def test_desk_params():
    for n, sched in ((2, (1, 1, 1)), (3, (1, 1, 2)),
                     (4, (1, 2, 3)), (5, (2, 3, 4)), (9, (2, 3, 4))):
        p = SolverParams.desk(n)
        assert p.schedule.b == sched
        assert p.epsilon == Fraction(1, 4) and p.gamma == Fraction(1, 4)
        assert list(p.__dataclass_fields__) == ["epsilon", "gamma", "schedule", "decomp"]
        assert p.decomp == DecompositionParams.desk(n)
    # the dense route needs b_last + 1 <= n, and every b_j is at least 1
    for n in (1, 0):
        with pytest.raises(ValueError, match="b_last"):
            SolverParams.desk(n)


def test_params_are_exact_fractions():
    p = SolverParams(1, 0.25, ThresholdSchedule((1, 1)), DecompositionParams.desk(2))
    assert (type(p.epsilon), p.epsilon) == (Fraction, Fraction(1))
    assert (type(p.gamma), p.gamma) == (Fraction, Fraction(1, 4))


def test_assign_subcubes_hand_cases():
    # the four codimension-2 pieces of Q_3 have 2 vertices each
    out = assign_subcubes(3, [40])
    assert [c.prefix for c in out[0]] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    out = assign_subcubes(3, [4, 40])
    assert len(out[0]) == 1 and len(out[1]) == 3

    out = assign_subcubes(3, [2, 40])
    assert out[0] == [] and len(out[1]) == 4

    # a snake of 8 vertices hosts 8 // 2 - 1 = 3 of the 4 pieces
    with pytest.raises(StageFailure) as e:
        assign_subcubes(3, [8])
    assert e.value.stage == "subcube-assignment"
    assert e.value.data["deficit"] == 1

    # Q_1 has no codimension-2 subcube
    with pytest.raises(ValueError):
        assign_subcubes(1, [8])


def test_choose_case_tie_goes_dense():
    params = DecompositionParams(m=1, s_lo=1, s_hi=1, lam=2, mu=1)
    half = decomposition_of(4, params, Snake(((2, 3),), (), 1))
    assert half.sparse_mask == 0b0011 and choose_case(half) == 1
    minority = decomposition_of(4, params, Snake(((1, 2, 3),), (), 1))
    assert minority.sparse_mask == 0b0001 and choose_case(minority) == 2


def test_solve_all_red():
    n = 6
    params = SolverParams.desk(n)
    G = all_red_graph(_min_order(n, params))
    dec = decompose(G, params.decomp)
    assert choose_case(dec) == 2
    phi = solve(G, n, params)
    assert sorted(phi) == list(range(1 << n))
    assert verify_red_embedding(G, n, phi).ok


def test_solve_two_clique_linked():
    n = 6
    params = SolverParams.desk(n)
    G = two_clique_linked_graph(n)
    dec = decompose(G, params.decomp)
    assert choose_case(dec) == 2
    assert dec.r == 1 and dec.snakes[0].k == 2
    phi = solve(G, n, params)
    assert verify_red_embedding(G, n, phi).ok


def test_solve_leaves_snake_validation_to_the_certificate(monkeypatch):
    # solve trusts the snakes decompose built and verifies only the map; a
    # certificate read back from JSON validates each of its snakes once
    calls = []

    def counted(G, snake):
        calls.append(snake)
        return validate_snake(G, snake)

    monkeypatch.setattr(snake_embedding, "validate_snake", counted)
    monkeypatch.setattr(decomposition, "validate_snake", counted)
    n = 6
    params = SolverParams.desk(n)
    G = two_clique_linked_graph(n)
    phi = solve(G, n, params)
    assert verify_red_embedding(G, n, phi).ok and calls == []
    dec = decompose(G, params.decomp)
    assert verify_decomposition(G, Decomposition.from_json(dec.to_json())).ok
    assert len(calls) == dec.r == 1


def test_solve_sparse_random():
    n = 6
    params = SolverParams.desk(n)
    rng = random.Random(99)
    N = 1 << (n + 2)
    G = random_triangle_free_greedy(N, N // 8, rng)
    assert max(m.bit_count() for m in G.blue) <= 1 << (n - params.schedule.b[0])
    dec = decompose(G, params.decomp)
    assert choose_case(dec) == 1
    phi = solve(G, n, params)
    assert verify_red_embedding(G, n, phi).ok


def _snake_family(rng, n, params):
    """Two or three snakes of one or two cliques on shuffled labels, red
    inside each snake and blue with probability p across snakes, sized
    so that the cube pieces are spread over several of them."""
    piece = 1 << (n - solver.SPLIT_CODIM)
    caps = [4]
    while caps[0] >= 4 or sum(caps) < 4:
        caps = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
    # a snake of k cliques of m vertices hosts k * m // piece - 1 pieces
    shapes = []
    for cap in caps:
        k = rng.randint(1, 2)
        shapes.append((k, (cap + 1) * piece // k + rng.randrange(piece // k)))
    N = sum(k * m for k, m in shapes) + rng.randint(0, 4)
    labels = rng.sample(range(N), N)
    snakes, owner, at = [], {}, 0
    for j, (k, m) in enumerate(shapes):
        cliques = []
        for _ in range(k):
            cliques.append(tuple(sorted(labels[at:at + m])))
            at += m
        s = rng.randint(1, m)
        witnesses = ()
        if k == 2:
            X, Y = (tuple(sorted(rng.sample(c, s))) for c in cliques)
            witnesses = (LinkWitness(0, 1, X, Y),)
        snakes.append(Snake(tuple(cliques), witnesses, s))
        for c in cliques:
            for v in c:
                owner[v] = j
    p = rng.choice((0.05, 0.3, 0.9))
    blue = [0] * N
    for u in owner:
        for v in owner:
            if u < v and owner[u] != owner[v] and rng.random() < p:
                blue[u] |= 1 << v
                blue[v] |= 1 << u
    G = ColouredGraph(N, blue)
    dec = decomposition_of(N, params.decomp, *snakes)
    assert dec.snakes == tuple(snakes)
    return G, dec


def test_solve_snakes_matches_per_cube_vertex_forbidden_masks():
    # at desk constants the first snake takes every piece and no mask is
    # ever forbidden, so pieces are spread here over several snakes,
    # walked with the blue neighbourhoods of earlier images forbidden
    outcomes, forbidden = [], 0
    for seed in range(40):
        rng = random.Random(f"snakes/{seed}")
        n = rng.choice((3, 4, 5))
        params = SolverParams.desk(n)
        G, dec = _snake_family(rng, n, params)
        stats = {}
        try:
            want = ("map", reference_solve_snakes(G, n, dec, stats))
        except StageFailure as e:
            want = ("failure", e.stage, e.data)
        try:
            got = ("map", solver._solve_snakes(G, n, dec))
        except StageFailure as e:
            got = ("failure", e.stage, e.data)
        assert got == want, f"seed {seed}"
        if got[0] == "map":
            assert verify_red_embedding(G, n, got[1]).ok, f"seed {seed}"
        outcomes.append(got[0] if got[0] == "map" else got[1])
        forbidden += stats.get("forbidden", 0)
    assert forbidden > 0
    assert set(outcomes) == {"map", "snake-walk"}


def _solve_within_30_s(G, n):
    # the alarm turns a stalled search into a failure instead of a hang
    def stalled(signum, frame):
        raise TimeoutError(f"solve on an n={n} host took over 30 s")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(30)
    try:
        return solve(G, n, SolverParams.desk(n))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_solve_bipartite_n5_decides_the_gap_from_the_seed():
    # the n=5 bipartite host of the exact-search benchmark: its clique
    # pair's prefix seed already clears s, so the pair is linked by its
    # witness
    G = random_bipartite_blue(128, 0.05, random.Random("exact-search/0/bip5"))
    phi = _solve_within_30_s(G, 5)
    assert verify_red_embedding(G, 5, phi).ok


@pytest.mark.parametrize("n, p", [(6, 0.05), (6, 0.5), (8, 0.2)])
def test_solve_bipartite_hosts_without_a_biclique_search(n, p):
    # two red halves of 2^(n+1) vertices: a search for the largest
    # balanced red biclique between them ran past the alarm on two of
    # these hosts and for 21 s on the third, while the prefix walks
    # settle the pair's weight at once
    G = random_bipartite_blue(1 << (n + 2), p, random.Random(0))
    phi = _solve_within_30_s(G, n)
    assert verify_red_embedding(G, n, phi).ok
    assert verify_decomposition(G, decompose(G, DecompositionParams.desk(n))).ok


@pytest.mark.parametrize("n", [6, 7])
def test_solve_greedy_refutes_the_last_clique_by_the_lp_bound(n):
    # the greedy hosts of the exact-search benchmark (two blue edges per
    # vertex) hold no red clique of m = N/2 vertices, and the clique
    # search must prove it; pruned by a greedy blue matching alone, that
    # proof ran past the alarm
    N = 1 << (n + 2)
    G = random_triangle_free_greedy(N, 2 * N, random.Random(f"exact-search/0/greedy{n}"))
    phi = _solve_within_30_s(G, n)
    assert verify_red_embedding(G, n, phi).ok


def test_solve_hypothesis_errors():
    n = 5
    params = SolverParams.desk(n)
    with pytest.raises(HypothesisError) as e:
        solve(all_red_graph(_min_order(n, params) - 1), n, params)
    assert e.value.hypothesis == "order"

    N = _min_order(n, params)
    tri = ColouredGraph.from_blue_edges(N, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(HypothesisError) as e:
        solve(tri, n, params)
    assert e.value.hypothesis == "triangle-free"
    assert sorted(e.value.witness) == [0, 1, 2]


def test_solve_dense_route_can_run_out_of_material():
    # complete bipartite blue at an order below the clique size: everything
    # is sparse, every vertex is high degree, and the dense route starves
    n = 6
    params = SolverParams.desk(n)
    G = random_bipartite_blue(_min_order(n, params), 1.0, random.Random(0))
    dec = decompose(G, params.decomp)
    assert choose_case(dec) == 1
    # G qualifies, so running short is a stage failure of the construction
    with pytest.raises(StageFailure) as e:
        solve(G, n, params)
    assert e.value.stage == "dense-material"
    assert e.value.data["hypothesis"] == "order"
    assert "needs" in e.value.data["details"]


def test_solve_dense_cuts_vertices_at_the_degree_cutoff(monkeypatch):
    # vertex 0 has exactly the cutoff's blue degree inside the sparse part
    # and is cut; vertex 1, one neighbour short, is kept
    n = 5
    params = SolverParams.desk(n)
    cut = 1 << (n - params.schedule.b[0])  # dense_embed's max-degree cap
    edges = [(0, 10 + i) for i in range(cut)] + [(1, 30 + i) for i in range(cut - 1)]
    G = ColouredGraph.from_blue_edges(64, edges)
    dec = decomposition_of(64, params.decomp)
    # an identity embedding of the induced subgraph reads back its order
    monkeypatch.setattr(
        solver, "dense_embed", lambda H, *args: {w: w for w in range(H.n_vertices)}
    )
    assert sorted(solver._solve_dense(G, n, params, dec).values()) == list(range(1, 64))


def test_solve_dense_route_tiles_whole_cube():
    # the extensions on this host cover all of Q_5, so the assignment loop
    # must stop on full coverage instead of asking for one subcube more
    n = 5
    params = SolverParams.desk(n)
    G = random_triangle_free_greedy(128, 256, random.Random(516))
    assert choose_case(decompose(G, params.decomp)) == 1
    phi = solve(G, n, params)
    assert verify_red_embedding(G, n, phi).ok


# sha256 of the solve map (json of its sorted items), of the decompose
# certificate in the layout that also stored the snakes, the sparse set
# and the s values (``legacy_certificate_json``), both recorded before the
# assignment loop read its next subcube lazily, and of the certificate as
# ``to_json`` writes it, rounds only; every greedy host here takes the
# dense route and extends its partial assignment 10-29 times
GOLDEN = {
    (5, 0): ("b7abf0c80f34adb05284c2ee18599d848dcbfcc191a9fc3445aa9b234996e0e7",
             "6438ac01aa88ffb2566450b57a2ec48b49f31d05e2d89f10b114f3fc267d1878",
             "cbe869eae244cd73f1ad0007d31ff079278c6cb12f20f5237dd88d200771a677"),
    (5, 1): ("3281c9f258cda5b4ce2e4f77821be7578824b2d9447e759f5a27915750623bb5",
             "6438ac01aa88ffb2566450b57a2ec48b49f31d05e2d89f10b114f3fc267d1878",
             "cbe869eae244cd73f1ad0007d31ff079278c6cb12f20f5237dd88d200771a677"),
    (5, 2): ("a57b8daf20ffca25d56bfa76c953be1e12c330da7be143c5b0010eccd31a756b",
             "6438ac01aa88ffb2566450b57a2ec48b49f31d05e2d89f10b114f3fc267d1878",
             "cbe869eae244cd73f1ad0007d31ff079278c6cb12f20f5237dd88d200771a677"),
    (6, 0): ("41284422d2cab5a1a2e2275db3a016e729f6fc77932a945643b3f4c8c4bb42c2",
             "4c8ef7876baf40e1bea08f6af1827496a6d4e3350adb839b2023ab8e8ece1b15",
             "cfb153deeac7af806608452bda393004a59c1a3298c71e04291e59af6b5da255"),
    (6, 1): ("3fabe1500e06942fe2d1bc42d8a88c207a96cdf56e9aaf45231117ab8ba3b72d",
             "4c8ef7876baf40e1bea08f6af1827496a6d4e3350adb839b2023ab8e8ece1b15",
             "cfb153deeac7af806608452bda393004a59c1a3298c71e04291e59af6b5da255"),
    (6, 2): ("e3dd08078d5a0a02b90edd39fae3bcfb2a42cc33c673f09b4cdc993f5fc51bd1",
             "4c8ef7876baf40e1bea08f6af1827496a6d4e3350adb839b2023ab8e8ece1b15",
             "cfb153deeac7af806608452bda393004a59c1a3298c71e04291e59af6b5da255"),
    (7, 0): ("e966d889da531260a1278447999530cf24f2d6a7914788e8694f54c01371b968",
             "5e3a3003fb8dacbce04b97e84107a31f3c389a897f037e7a6d17e8e6c74616a7",
             "7aef06a190236962864d41392d16c09e4be7bd03f22b50bf4a5c6d7e97dff112"),
    (7, 1): ("447d8478acf8f8171b547c830e03c585a11dbf1a1406a059c128e3c743438853",
             "5e3a3003fb8dacbce04b97e84107a31f3c389a897f037e7a6d17e8e6c74616a7",
             "7aef06a190236962864d41392d16c09e4be7bd03f22b50bf4a5c6d7e97dff112"),
    (7, 2): ("96ded2f3a57bfff962ad9c94477c6e29bc1e2733f11cbdf257d5385cada32616",
             "5e3a3003fb8dacbce04b97e84107a31f3c389a897f037e7a6d17e8e6c74616a7",
             "7aef06a190236962864d41392d16c09e4be7bd03f22b50bf4a5c6d7e97dff112"),
}


@pytest.mark.parametrize("n, seed", sorted(GOLDEN))
def test_solve_maps_and_certificates_match_golden_hashes(n, seed):
    # greedy hosts with N = 2^(n+2) vertices and 2N blue edges
    N = 1 << (n + 2)
    G = random_triangle_free_greedy(N, 2 * N, random.Random(f"golden/{n}/{seed}"))
    params = SolverParams.desk(n)
    phi = solve(G, n, params)
    dec = decompose(G, params.decomp)
    got = tuple(
        hashlib.sha256(text.encode()).hexdigest()
        for text in (json.dumps(sorted(phi.items())), legacy_certificate_json(dec), dec.to_json())
    )
    assert got == GOLDEN[n, seed]


# sha256 of the solve map and of the ``to_json`` certificate on hosts that
# take the snake route: the planted two-clique hosts, the same with
# shuffled labels, and an all-red host whose one snake has no link
SNAKE_GOLDEN = {
    "linked/4": ("97e7104404dbed7cb1333408ae48763198d97ce4a21d73daa010229d533e7df6",
                 "42235f5b3c89768a715f5701baee2d160b8270a906d24f57235c4fd439ed302a"),
    "shuffled/4": ("83a3cc1efd2d0c440cb27ae80a9ff7eddf7d554957773f9d7ed134a6a1648a81",
                   "ac5bf3cf5ed735e0ec862d47839f8da24870920133a0d52802a5d353009da8f2"),
    "linked/5": ("3269e98a81c7cae29470d165c1c4d2f21bd0cd4628ffd62f63b3b0e8749f22be",
                 "99093bbb83d8cf532f527780bd0c60a5c72daeaacc9b9d134d1ccd196625d79b"),
    "shuffled/5": ("2688a4971d3cdb4e45df8512701e96e8f6db5578d9e0a16e8420e31cf91096cc",
                   "7590ebe889a09622ff2fa1e42d9879b4774fd8b112cb850fe702bf96462ca8b2"),
    "linked/6": ("5e7942cbd1fb96b3b7cc4c293a749f5c625a969a8fe9b275c925acaa40fcbb03",
                 "923baddbf83ebcd4ba31975a31a817ffb85b2ffe655fe16f49be7554c3e5dd0a"),
    "shuffled/6": ("fd54ed31f0b2bb9d686ec3fcff5134eb72621215c356d5a967a7b32e56bc3cc6",
                   "ace4231756ac070891789df17da4d40120e78c57c86648956925b1a3663dff10"),
    "linked/7": ("3552747e864b0fcb0746cec5e831c34bdd13abc5e50d9d0451d15bc3c769b4c3",
                 "99f09ea503e57e5dd0d538a112ed995acaca437748d696349f21aba7e87b103b"),
    "shuffled/7": ("21752913dcc058ad67ea493587085e65336560d618f8ecececb19485e52ac530",
                   "eede71a98f71160aef3aecbf81f0b0fb26635127752726f213e8c69d3c70ec05"),
    "all-red/6": ("5c5670e5a8db9379a9454c5692080c14ef6dfd00c35192b9fe285324f0ce6a2f",
                  "3de3f074b6afd38a87c13ad2163524ce7b41c06e89066099ec020ff2e21bcd2b"),
}


@pytest.mark.parametrize("host", sorted(SNAKE_GOLDEN))
def test_snake_route_maps_and_certificates_match_golden_hashes(host):
    family, n = host.split("/")
    n = int(n)
    params = SolverParams.desk(n)
    if family == "linked":
        G = two_clique_linked_graph(n)
    elif family == "shuffled":
        G = two_clique_linked_shuffled(n, random.Random(f"snake-golden/{n}"))
    else:
        G = all_red_graph(_min_order(n, params))
    dec = decompose(G, params.decomp)
    assert choose_case(dec) == 2
    phi = solve(G, n, params)
    got = tuple(
        hashlib.sha256(text.encode()).hexdigest()
        for text in (json.dumps(sorted(phi.items())), dec.to_json())
    )
    assert got == SNAKE_GOLDEN[host]
