import random
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from helpers import all_red_graph, gap_consequence_holds, two_clique_linked_graph
from cuberamsey.bits import mask_of
from cuberamsey.colored_graph import (
    ColouredGraph,
    random_bipartite_blue,
    random_triangle_free_greedy,
)
from cuberamsey.decomposition import (
    Decomposition,
    DecompositionParams,
    decompose,
    select_gap_threshold,
    verify_decomposition,
)
from cuberamsey.errors import StageFailure
from cuberamsey.snake_embedding import LinkWitness, Snake, validate_snake


def test_params_validation():
    with pytest.raises(ValueError):
        DecompositionParams(m=0, s_lo=1, s_hi=2, lam=2, mu=2)
    with pytest.raises(ValueError):
        DecompositionParams(m=4, s_lo=5, s_hi=4, lam=2, mu=2)
    with pytest.raises(ValueError):
        DecompositionParams(m=4, s_lo=1, s_hi=4, lam=1, mu=2)
    with pytest.raises(ValueError):
        DecompositionParams(m=4, s_lo=1, s_hi=4, lam=2, mu=Fraction(1, 2))


def test_desk_preset_values():
    for n in (3, 4, 6):
        p = DecompositionParams.desk(n)
        assert p.m == 1 << (n + 1)
        assert p.s_lo == 2 * comb(n, n // 2)
        assert p.s_hi == 1 << (n + 1)
        assert p.lam == 2 and p.mu == 2


def test_gap_threshold_hand_cases():
    p = DecompositionParams(m=4, s_lo=4, s_hi=16, lam=2, mu=2)
    assert select_gap_threshold([3, 5], p) == 16
    assert select_gap_threshold([], p) == 4
    assert select_gap_threshold([1, 16], p) == 4
    with pytest.raises(StageFailure) as e:
        select_gap_threshold([3, 5, 9], p)
    assert e.value.stage == "gap-selection"
    assert e.value.data["weights"] == [3, 5, 9]
    assert e.value.data["grid"] == [4, 8, 16]


def test_gap_threshold_fractional_ratio():
    p = DecompositionParams(m=4, s_lo=4, s_hi=9, lam=Fraction(3, 2), mu=2)
    # grid is 4, 6, 9; a weight of 3 blocks 4 (since 4.5 >= 4) but not 6
    assert select_gap_threshold([3], p) == 6
    assert select_gap_threshold([4], p) == 4


def test_gap_failure_carries_the_cap():
    # red 6-cliques of a bipartite host with weights below 3 and in [3, 6):
    # both grid points are blocked, and the failure names the cap its
    # weights were clipped at, which is enough to replay it
    params = DecompositionParams(m=6, s_lo=3, s_hi=6, lam=2, mu=2)
    G = random_bipartite_blue(24, 0.4, random.Random(1))
    with pytest.raises(StageFailure) as e:
        decompose(G, params)
    assert e.value.stage == "gap-selection"
    assert e.value.data == {"weights": [2, 3, 4, 6], "grid": [3, 6], "cap": 6}
    with pytest.raises(StageFailure):
        select_gap_threshold(e.value.data["weights"], params)


def test_decompose_all_red():
    n = 3
    G = all_red_graph(1 << (n + 2))
    dec = decompose(G, DecompositionParams.desk(n))
    assert dec.r == 1
    assert dec.sparse == ()
    assert dec.snakes[0].k == 2
    assert dec.snakes[0].m == 1 << (n + 1)
    assert validate_snake(G, dec.snakes[0]).ok
    assert verify_decomposition(G, dec).ok
    assert gap_consequence_holds(G, dec)


def test_decompose_complete_bipartite():
    # both halves are m-cliques with a fully blue cross: the first clique
    # becomes a lone snake and the other half is swept into the sparse set
    n = 4
    N = 1 << (n + 2)
    G = random_bipartite_blue(N, 1.0, random.Random(0))
    dec = decompose(G, DecompositionParams.desk(n))
    assert dec.r == 1
    assert dec.snakes[0].k == 1
    assert len(dec.sparse) == N // 2
    assert verify_decomposition(G, dec).ok
    assert gap_consequence_holds(G, dec)
    rec = dec.rounds[0]
    assert len(rec.cliques) == 2 and rec.snake_indices == (0,)
    assert len(rec.sparse_added) == N // 2


def test_decompose_two_clique_linked():
    n = 4
    G = two_clique_linked_graph(n)
    dec = decompose(G, DecompositionParams.desk(n))
    assert dec.r == 1
    assert dec.snakes[0].k == 2
    assert dec.s_values[0] == 2 * comb(n, n // 2)
    assert verify_decomposition(G, dec).ok


def test_attachment_threshold_is_inclusive():
    # a vertex with exactly s/lambda blue neighbours in a snake clique
    # (lambda = 2) is attached to the snake; one neighbour fewer and it
    # stays active
    n = 4
    params = DecompositionParams.desk(n)
    base = two_clique_linked_graph(n, extra=1)
    s = decompose(base, params).rounds[0].s
    v = base.n_vertices - 1
    for d in (s // 2, s // 2 - 1):
        blue = list(base.blue)
        for u in range(d):
            blue[u] |= 1 << v
        blue[v] = (1 << d) - 1
        rec = decompose(ColouredGraph(len(blue), blue), params).rounds[0]
        assert rec.s == s
        assert (v in rec.sparse_added) == (2 * d >= s)


def test_residual_attachment_threshold_is_exclusive():
    # a vertex blue to j planted vertices of each clique stays below s/lambda
    # towards either clique, so it survives the round; with 2j blue
    # neighbours in the removed snake it must stay at or below s/mu = s/2
    n = 4
    params = DecompositionParams.desk(n)
    base = two_clique_linked_graph(n, extra=1)
    s = decompose(base, params).rounds[0].s
    m, v = params.m, base.n_vertices - 1
    for j, k in ((s // 4, s // 4), (s // 4, s // 4 + 1)):
        blue = list(base.blue)
        # the planted vertices are red across, so no blue triangle forms
        for u in list(range(j)) + list(range(m, m + k)):
            blue[u] |= 1 << v
            blue[v] |= 1 << u
        G = ColouredGraph(len(blue), blue)
        if 2 * (j + k) <= s:
            assert v not in decompose(G, params).rounds[0].sparse_added
        else:
            with pytest.raises(StageFailure) as e:
                decompose(G, params)
            assert e.value.stage == "residual-attachment"
            assert e.value.data == {"round": 1, "vertex": v, "degree": j + k}


def test_decompose_random_hosts():
    rng = random.Random(5)
    for trial in range(6):
        n = rng.choice([3, 4])
        N = 1 << (n + 2)
        if trial % 2:
            G = random_bipartite_blue(N, 0.05, rng)
        else:
            G = random_triangle_free_greedy(N, N // 8, rng)
        params = DecompositionParams.desk(n)
        dec = decompose(G, params)
        assert verify_decomposition(G, dec).ok
        assert gap_consequence_holds(G, dec)
        covered = set(dec.sparse)
        for sn in dec.snakes:
            covered |= sn.vertex_set()
        assert covered == set(range(N))
        for rec in dec.rounds:
            assert params.s_lo <= rec.s <= params.s_hi
            assert rec.snake_indices


def brute_biclique_weight(G, A, B):
    """Largest min(|X|, |Y|) over red bicliques X x Y, by running through
    every subset X of A with Y its common red neighbourhood in B."""
    red = [mask_of(B) & ~G.blue[a] for a in A]
    common = [mask_of(B)] * (1 << len(A))
    best = 0
    for X in range(1, 1 << len(A)):
        low = X & -X
        common[X] = common[X ^ low] & red[low.bit_length() - 1]
        best = max(best, min(X.bit_count(), common[X].bit_count()))
    return best


def test_round_weights_are_exact_weights_clipped_at_s():
    # bipartite n=3 hosts open with two red 16-cliques whose weight falls
    # on either side of s; a weight read off the prefix seed alone falls
    # short of the exact one on some of them
    rng = random.Random(11)
    counts = {"pairs": 0, "below": 0, "clipped": 0}
    for _ in range(12):
        G = random_bipartite_blue(32, rng.choice([0.1, 0.2, 0.3, 0.4]), rng)
        dec = decompose(G, DecompositionParams.desk(3))
        assert verify_decomposition(G, dec).ok
        for rec in dec.rounds:
            for i, j, w in rec.weights:
                bw = brute_biclique_weight(G, rec.cliques[i], rec.cliques[j])
                assert w == min(bw, rec.s), (rec.index, i, j, w, bw, rec.s)
                counts["pairs"] += 1
                counts["below"] += bw < rec.s
                counts["clipped"] += bw > rec.s
    assert all(counts.values()), counts


def test_decompose_no_clique_graph():
    G = random_bipartite_blue(16, 1.0, random.Random(1))
    dec = decompose(G, DecompositionParams.desk(4))  # m = 32 > 16
    assert dec.r == 0
    assert sorted(dec.sparse) == list(range(16))
    assert verify_decomposition(G, dec).ok


def test_verify_rejects_tampering():
    n = 3
    G = two_clique_linked_graph(n)
    dec = decompose(G, DecompositionParams.desk(n))
    assert verify_decomposition(G, dec).ok

    missing = Decomposition(
        dec.n_vertices, dec.params, dec.sparse[:-1] if dec.sparse else (),
        dec.snakes[:0], dec.s_values[:0], dec.rounds,
    )
    assert not verify_decomposition(G, missing).ok

    wrong_s = Decomposition(
        dec.n_vertices, dec.params, dec.sparse, dec.snakes,
        tuple(s + 1 for s in dec.s_values), dec.rounds,
    )
    assert not verify_decomposition(G, wrong_s).ok

    sn = dec.snakes[0]
    w = sn.witnesses[0]
    bad_witness = LinkWitness(w.i, w.j, w.X, tuple(sorted(sn.cliques[w.j])[-len(w.Y):]))
    bad_snake = Snake(sn.cliques, (bad_witness,) + sn.witnesses[1:], sn.s)
    tampered = Decomposition(
        dec.n_vertices, dec.params, dec.sparse,
        (bad_snake,) + dec.snakes[1:], dec.s_values, dec.rounds,
    )
    assert not verify_decomposition(G, tampered).ok


def _tampered_certificate(field: str, value: int):
    """A certificate of a greedy host whose snake has three cliques and
    three witnesses, with one vertex of the named part set to value
    through the JSON form."""
    G = random_triangle_free_greedy(64, 8, random.Random(1))
    data = decompose(G, DecompositionParams.desk(3)).to_json_dict()
    snake = data["snakes"][0]
    if field == "sparse":
        data["sparse"][0] = value
    elif field == "clique":
        snake["cliques"][1][0] = value
    else:
        snake["witnesses"][0][field][0] = value
    return G, Decomposition.from_json_dict(data)


@pytest.mark.parametrize("value", [-1, 64, 99])
@pytest.mark.parametrize("field", ["sparse", "clique", "X", "Y"])
def test_verify_reports_out_of_range_vertices(field, value):
    # a vertex outside the graph fails the certificate, naming the part,
    # instead of raising from a shift or an index
    G, dec = _tampered_certificate(field, value)
    verdict = verify_decomposition(G, dec)
    assert not verdict.ok
    part = {
        "sparse": "the sparse set",
        "clique": "snake 0 invalid: clique 1",
        "X": "snake 0 invalid: witness (0, 1) X side",
        "Y": "snake 0 invalid: witness (0, 1) Y side",
    }[field]
    assert verdict.errors == [f"{part} mentions out-of-range vertices"]
    if field != "sparse":
        check = validate_snake(G, dec.snakes[0])
        assert check.errors == [verdict.errors[0].removeprefix("snake 0 invalid: ")]


def test_verify_checks_round_records():
    # one round, two cliques linked at exactly s; the records are claims
    # the verifier must hold against the snake and the gap rule
    n = 3
    G = two_clique_linked_graph(n)
    dec = decompose(G, DecompositionParams.desk(n))
    rec = dec.rounds[0]
    s = rec.s
    assert rec.weights == ((0, 1, s),) and rec.snake_indices == (0, 1)

    def with_round(**changes):
        return replace(dec, rounds=(replace(rec, **changes),) + dec.rounds[1:])

    assert verify_decomposition(G, with_round()).ok
    in_gap = with_round(weights=((0, 1, s - 1),))  # lambda = 2: s/2 <= s-1 < s
    above_s = with_round(weights=((0, 1, s + 1),))
    dropped = with_round(snake_indices=(0,))
    for bad in (in_gap, above_s, dropped):
        assert not verify_decomposition(G, bad).ok
    assert not verify_decomposition(G, replace(dec, rounds=())).ok


def test_verify_catches_dense_sparse_set():
    # a "sparse" set carrying a blue clique on 8 vertices breaks the
    # average-degree bound when 2m|C| is small
    N = 8
    edges = [(u, v) for u in range(N) for v in range(u + 1, N)]
    G = ColouredGraph(N, [0] * N, validate=False)
    blue = [0] * N
    for u, v in edges:
        blue[u] |= 1 << v
        blue[v] |= 1 << u
    G = ColouredGraph(N, blue, validate=False)
    params = DecompositionParams(m=1, s_lo=1, s_hi=1, lam=2, mu=1)
    dec = Decomposition(N, params, tuple(range(N)), (), (), ())
    assert not verify_decomposition(G, dec).ok


def test_verify_counts_blue_edges_of_degree_one_vertices_exactly():
    # a blue K8 with 28 edges, the matching edge 8-9 inside C and the edges
    # 10-11 and 12-13 that leave it: 29 blue edges inside C, over 2m|C| = 24
    edges = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    G = ColouredGraph.from_blue_edges(14, edges + [(8, 9), (10, 11), (12, 13)])
    params = DecompositionParams(m=1, s_lo=1, s_hi=1, lam=2, mu=1)
    sparse = tuple(range(11)) + (12,)
    verdict = verify_decomposition(G, Decomposition(14, params, sparse, (), (), ()))
    assert any("sparse set has 29 blue edges" in e for e in verdict.errors)


def test_json_round_trip():
    n = 4
    G = two_clique_linked_graph(n)
    dec = decompose(G, DecompositionParams.desk(n))
    again = Decomposition.from_json(dec.to_json())
    assert again == dec
    assert verify_decomposition(G, again).ok
