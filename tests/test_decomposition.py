import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from helpers import (
    all_red_graph,
    decomposition_of,
    gap_consequence_holds,
    legacy_certificate_json,
    two_clique_linked_graph,
    two_clique_linked_shuffled,
)
from cuberamsey import decomposition, snake_embedding
from cuberamsey.bits import bits_list, mask_of
from cuberamsey.colored_graph import (
    ColouredGraph,
    is_blue_triangle_free,
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


def test_params_are_exact_fractions_and_round_trip():
    p = DecompositionParams(m=4, s_lo=1, s_hi=4, lam=2, mu=1.5)
    assert (type(p.lam), p.lam) == (Fraction, Fraction(2))
    assert (type(p.mu), p.mu) == (Fraction, Fraction(3, 2))
    p = DecompositionParams(m=4, s_lo=1, s_hi=4, lam=Fraction(5, 3), mu=1.25)
    again = Decomposition.from_json(Decomposition(4, p, ()).to_json()).params
    assert again == p
    assert (type(again.lam), type(again.mu)) == (Fraction, Fraction)


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
    assert dec.sparse_mask == 0
    assert dec.snakes[0].k == 2
    assert len(dec.snakes[0].cliques[0]) == 1 << (n + 1)
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
    assert dec.sparse_mask.bit_count() == N // 2
    assert verify_decomposition(G, dec).ok
    assert gap_consequence_holds(G, dec)
    rec = dec.rounds[0]
    assert len(rec.cliques) == 2 and rec.snake_indices == (0,)
    assert len(rec.sparse_added) == N // 2
    # the sparse bound holds in the remainder, not in C: without the
    # attached half, a snake vertex keeps a blue star of m in C
    verdict = verify_decomposition(G, replace(dec, rounds=(replace(rec, sparse_added=()),)))
    assert len(verdict.errors) == 1
    assert "blue neighbours in the sparse remainder, not below m = 32" in verdict.errors[0]


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


def test_outside_attachment_is_a_stage_failure(monkeypatch):
    # with every weight a lower bound of 0 the planted pair stays unlinked,
    # so the snake is clique 0 alone; a last vertex blue to both planted
    # sides (red to each other, so no blue triangle) is attached to clique
    # 0 and just as heavy towards clique 1, outside the snake
    n = 3
    params = DecompositionParams.desk(n)
    base = two_clique_linked_graph(n)
    m, b, v = params.m, 2 * comb(n, n // 2), base.n_vertices
    planted = list(range(b)) + list(range(m, m + b))
    blue = list(base.blue) + [mask_of(planted)]
    for u in planted:
        blue[u] |= 1 << v
    G = ColouredGraph(len(blue), blue)
    monkeypatch.setattr(
        decomposition, "max_balanced_biclique", lambda G, M1, M2, cap: (0, (), ())
    )
    with pytest.raises(StageFailure) as e:
        decompose(G, params)
    assert e.value.stage == "outside-attachment"
    assert e.value.data == {"round": 1, "vertex": v, "clique": 1, "degree": b}


@pytest.mark.parametrize("b", [32, 33])
def test_sparse_attachment_keeps_the_2m_rule(b, monkeypatch):
    # vertex 16 is blue to 3 vertices of the red clique 0..15, enough to
    # attach it at s = 6, and to b vertices of a red block of 33 more; its
    # blue graph is a star, so no triangle.  The clique family is handed
    # in as clique 0..15 alone in round 1, so the block survives the
    # round and the attached vertex keeps blue degree b into it: 2m = 32
    # passes, and later rounds take the block; 33 fails
    n = 3
    params = DecompositionParams.desk(n)
    m, v = params.m, 16
    block = range(v + 1, v + 34)
    G = ColouredGraph.from_blue_edges(
        v + 34, [(v, u) for u in range(3)] + [(v, u) for u in block[:b]]
    )
    clique, family = tuple(range(m)), decomposition.max_disjoint_red_cliques
    monkeypatch.setattr(
        decomposition,
        "max_disjoint_red_cliques",
        lambda G, A, m: [clique] if A == G.full_mask else family(G, A, m),
    )
    if b <= 2 * m:
        dec = decompose(G, params)
        assert dec.rounds[0].s == 6 and dec.rounds[0].sparse_added == (v,)
        return
    with pytest.raises(StageFailure) as e:
        decompose(G, params)
    assert e.value.stage == "sparse-attachment"
    assert e.value.data == {"round": 1, "vertex": v, "degree": b}


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
        covered = dec.sparse_mask
        for sn in dec.snakes:
            covered |= sn.mask
        assert covered == G.full_mask
        for rec in dec.rounds:
            assert params.s_lo <= rec.s <= params.s_hi
            assert rec.snake_indices


@pytest.mark.parametrize("seed", range(4))
def test_decompose_hands_its_clique_masks_to_the_snakes(seed, monkeypatch):
    # the snakes that decompose returns carry the masks it built for the
    # round, so reading them masks no clique again; they equal the snakes
    # a decomposition reads off its round records
    rng = random.Random(f"handed/{seed}")
    n = rng.choice([3, 4])
    N = 1 << (n + 2)
    if seed % 2:
        G = two_clique_linked_shuffled(n, rng, extra=rng.randrange(10))
    else:
        G = random_bipartite_blue(N, 0.05, rng)
    dec = decompose(G, DecompositionParams.desk(n))
    assert dec.snakes

    def never(vertices):
        raise AssertionError("a clique was masked again")

    monkeypatch.setattr(snake_embedding, "mask_of", never)
    fresh = Decomposition(dec.n_vertices, dec.params, dec.rounds)
    for sn, rec in zip(dec.snakes, dec.rounds):
        assert sn.clique_masks == tuple(mask_of(c) for c in sn.cliques)
        assert sn.cliques == tuple(rec.cliques[c] for c in rec.snake_indices)
    covered = dec.sparse_mask
    for sn in dec.snakes:
        covered |= sn.mask
    assert covered == G.full_mask
    monkeypatch.undo()
    assert fresh.snakes == dec.snakes
    assert fresh.sparse_mask == dec.sparse_mask


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


def test_round_weights_are_lower_bounds_clipped_at_s():
    # bipartite n=3 hosts open with two red 16-cliques whose weight falls
    # on either side of s; a recorded weight is a lower bound on the exact
    # one, and it is s on every pair its round links by a witness
    rng = random.Random(11)
    counts = {"pairs": 0, "below": 0, "clipped": 0}
    for _ in range(12):
        G = random_bipartite_blue(32, rng.choice([0.1, 0.2, 0.3, 0.4]), rng)
        dec = decompose(G, DecompositionParams.desk(3))
        assert verify_decomposition(G, dec).ok
        for rec in dec.rounds:
            snake = rec.snake_indices
            witnessed = {(snake[x.i], snake[x.j]) for x in rec.witnesses}
            for i, j, w in rec.weights:
                bw = brute_biclique_weight(G, rec.cliques[i], rec.cliques[j])
                assert w <= min(bw, rec.s), (i, j, w, bw, rec.s)
                assert (w == rec.s) == ((i, j) in witnessed), (i, j, w, rec.s)
                counts["pairs"] += 1
                counts["below"] += bw < rec.s
                counts["clipped"] += bw > rec.s
    assert all(counts.values()), counts


def test_decompose_no_clique_graph():
    G = random_bipartite_blue(16, 1.0, random.Random(1))
    dec = decompose(G, DecompositionParams.desk(4))  # m = 32 > 16
    assert dec.r == 0
    assert bits_list(dec.sparse_mask) == list(range(16))
    assert verify_decomposition(G, dec).ok


def test_verify_rejects_tampering():
    n = 3
    G = two_clique_linked_graph(n)
    dec = decompose(G, DecompositionParams.desk(n))
    assert verify_decomposition(G, dec).ok

    # a witness whose Y side is not red to its X side
    rec = dec.rounds[0]
    sn = dec.snakes[0]
    w = rec.witnesses[0]
    bad_witness = LinkWitness(w.i, w.j, w.X, tuple(sorted(sn.cliques[w.j])[-len(w.Y):]))
    tampered = replace(
        dec, rounds=(replace(rec, witnesses=(bad_witness,) + rec.witnesses[1:]),)
    )
    verdict = verify_decomposition(G, tampered)
    assert not verdict.ok
    assert any("witness (0, 1) has a blue cross pair" in e for e in verdict.errors)

    # one vertex more would be one more sparse vertex, outside G
    verdict = verify_decomposition(G, replace(dec, n_vertices=G.n_vertices + 1))
    assert verdict.errors == ["the certificate is for 33 vertices, not 32"]


def test_verify_rejects_a_dropped_round():
    # at desk constants each unplanted vertex of a two-clique host is blue
    # to the whole other clique, a blue star of m: once the round that
    # took both cliques is dropped, that star lies in the remainder
    for n in range(3, 9):
        for G in (two_clique_linked_graph(n), two_clique_linked_shuffled(n, random.Random(n))):
            dec = decompose(G, DecompositionParams.desk(n))
            assert dec.r == 1 and verify_decomposition(G, dec).ok
            verdict = verify_decomposition(G, replace(dec, rounds=()))
            assert len(verdict.errors) == 1
            assert f"in the sparse remainder, not below m = {1 << (n + 1)}" in verdict.errors[0]


@pytest.mark.parametrize("added, error", [
    ((34,), "round 0 attaches vertex 34, outside the graph"),
    ((-1,), "round 0 attaches vertex -1, outside the graph"),
    ((0,), "round 0 attaches vertex 0, which lies in a snake"),
    ((32,), "round 0 attaches vertex 32, not lambda-attached to its snake"),
], ids=["beyond-n", "negative", "in-snake", "not-attached"])
def test_verify_checks_attached_vertices(added, error):
    # two linked cliques make one snake, and the two isolated vertices
    # 32 and 33 stay in C unattached; a listed vertex leaves the
    # remainder, so verify must check each one it is given
    G = two_clique_linked_graph(3, extra=2)
    dec = decompose(G, DecompositionParams.desk(3))
    rec = dec.rounds[0]
    assert dec.r == 1 and bits_list(dec.sparse_mask) == [32, 33] and rec.sparse_added == ()
    verdict = verify_decomposition(G, replace(dec, rounds=(replace(rec, sparse_added=added),)))
    assert verdict.errors == [error]


@pytest.mark.parametrize("field, value", [
    ("sparse_added", 3.5), ("sparse_added", "7"), ("clique", 2.0), ("clique", True),
], ids=["float-added", "string-added", "float-clique", "bool-clique"])
def test_from_json_rejects_non_integer_vertices(field, value):
    # a vertex that is not a JSON integer is refused on reading, with its
    # round and field, not met later as a TypeError or read as vertex 1
    G = two_clique_linked_graph(3, extra=2)
    data = json.loads(decompose(G, DecompositionParams.desk(3)).to_json())
    rec = data["rounds"][0]
    if field == "clique":
        rec["cliques"][0][1] = value
    else:
        rec["sparse_added"] = [value]
    with pytest.raises(ValueError, match=f"^round 0 {field}: {value!r} is not an integer$"):
        Decomposition.from_json(json.dumps(data))


@pytest.mark.parametrize("field, value, message", [
    ("m", True, "params m: True is not an integer"),
    ("s_lo", 1.5, "params s_lo: 1.5 is not an integer"),
    ("lam", [2, 0], "params lam: zero denominator"),
    ("m", "8", "params m: '8' is not an integer"),
], ids=["bool-m", "float-s_lo", "zero-lam", "string-m"])
def test_from_json_rejects_malformed_params(field, value, message):
    # the params are read as the rounds are: true is not read as m = 1,
    # and a zero denominator is not met as a ZeroDivisionError
    data = json.loads(Decomposition(4, DecompositionParams.desk(4), ()).to_json())
    data["params"][field] = value
    with pytest.raises(ValueError) as e:
        Decomposition.from_json(json.dumps(data))
    assert str(e.value) == message


_MISSING = object()


@pytest.mark.parametrize("path, value, message", [
    (("params",), _MISSING, "params: missing"),
    (("n_vertices",), _MISSING, "n_vertices: missing"),
    (("rounds", 0, "s"), _MISSING, "round 0 s: missing"),
    (("rounds", 0, "witnesses", 0, "Y"), _MISSING, "round 0 witness Y: missing"),
    ((), [1], "certificate: [1] is not an object"),
    (("params",), 8, "params: 8 is not an object"),
    (("rounds", 0, "witnesses", 0), [0, 1], "round 0 witness: [0, 1] is not an object"),
    (("rounds",), {}, "rounds: {} is not a list"),
    (("rounds", 0, "cliques"), 5, "round 0 cliques: 5 is not a list"),
    (("rounds", 0, "cliques", 0), 5, "round 0 clique: 5 is not a list"),
    (("rounds", 0, "witnesses", 0, "X"), 3, "round 0 witness X: 3 is not a list"),
    (("rounds", 0, "weights", 0), [0, 1], "round 0 weight: [0, 1] is not 3 integers"),
    (("rounds", 0, "weights", 0), 7, "round 0 weight: 7 is not a list"),
    (("params", "mu"), [1, 2, 3], "params mu: [1, 2, 3] is not 2 integers"),
    (("rounds", 0, "witnesses", 0, "i"), 0.0, "round 0 witness i: 0.0 is not an integer"),
], ids=[
    "no-params", "no-n_vertices", "no-s", "no-witness-Y", "certificate-list",
    "params-int", "witness-list", "rounds-object", "cliques-int", "clique-int",
    "witness-X-int", "weight-pair", "weight-int", "mu-triple", "witness-i-float",
])
def test_from_json_names_every_malformed_field(path, value, message):
    # a tampered shape is refused on reading, naming its field and round,
    # not met later as a KeyError, a TypeError or a failed unpacking
    G = two_clique_linked_graph(3, extra=2)
    data = json.loads(decompose(G, DecompositionParams.desk(3)).to_json())
    assert len(data["rounds"][0]["witnesses"]) == 1
    if not path:
        data = value
    else:
        *head, last = path
        parent = data
        for key in head:
            parent = parent[key]
        if value is _MISSING:
            del parent[last]
        else:
            parent[last] = value
    with pytest.raises(ValueError) as e:
        Decomposition.from_json(json.dumps(data))
    assert str(e.value) == message


def _tampered_certificate(field: str, value: int):
    """A certificate of a greedy host whose one round has three cliques,
    all in its snake, and three witnesses, with one vertex of the named
    part set to value through the JSON form."""
    G = random_triangle_free_greedy(64, 8, random.Random(1))
    data = json.loads(decompose(G, DecompositionParams.desk(3)).to_json())
    rec = data["rounds"][0]
    if field == "clique":
        rec["cliques"][1][0] = value
    else:
        rec["witnesses"][0][field][0] = value
    return G, Decomposition.from_json(json.dumps(data))


@pytest.mark.parametrize("value", [-1, 64, 99])
@pytest.mark.parametrize("field", ["clique", "X", "Y"])
def test_verify_reports_out_of_range_vertices(field, value):
    # a vertex outside the graph fails the certificate, naming the part,
    # instead of raising from a shift or an index
    G, dec = _tampered_certificate(field, value)
    assert dec.rounds[0].snake_indices == (0, 1, 2)
    verdict = verify_decomposition(G, dec)
    assert not verdict.ok
    part = {
        "clique": "snake 0 invalid: clique 1",
        "X": "snake 0 invalid: witness (0, 1) X side",
        "Y": "snake 0 invalid: witness (0, 1) Y side",
    }[field]
    assert verdict.errors == [f"{part} mentions out-of-range vertices"]
    check = validate_snake(G, dec.snakes[0])
    assert check.errors == [verdict.errors[0].removeprefix("snake 0 invalid: ")]


def test_verify_checks_round_records():
    # one round, two cliques linked at exactly s; the records are claims
    # the verifier must hold against the gap rule
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
    for bad in (in_gap, above_s):
        verdict = verify_decomposition(G, bad)
        assert any(e.startswith("round 0 records s=") for e in verdict.errors)


def test_verify_reports_a_round_whose_weights_fill_every_gap():
    # with the grid cut to the recorded s alone, a weight in its gap
    # leaves no grid point: the gap rule finds no threshold, and the
    # verifier reports the round's s instead of raising
    n = 3
    G = two_clique_linked_graph(n)
    dec = decompose(G, DecompositionParams.desk(n))
    rec = dec.rounds[0]
    s = rec.s
    params = replace(dec.params, s_hi=s)
    with pytest.raises(StageFailure):
        select_gap_threshold([s - 1], params)
    bad = replace(dec, params=params, rounds=(replace(rec, weights=((0, 1, s - 1),)),))
    verdict = verify_decomposition(G, bad)
    assert f"round 0 records s={s} against its weights [{s - 1}]" in verdict.errors


@pytest.mark.parametrize("changes", [
    {"weights": ((0, 2, 6),)},
    {"weights": ((0, 1, 6), (1, 2, 6))},
    {"cliques": (), "weights": (), "witnesses": ()},
], ids=["pair-beyond-k", "extra-pair", "no-cliques"])
def test_verify_rejects_malformed_weight_pairs(changes):
    # the weight pairs are checked before a round's snake is derived from
    # them, so a pair naming a clique that is not there fails the
    # certificate instead of raising
    n = 3
    G = two_clique_linked_graph(n)
    dec = decompose(G, DecompositionParams.desk(n))
    assert dec.rounds[0].s == 6
    bad = replace(dec, rounds=(replace(dec.rounds[0], **changes),))
    verdict = verify_decomposition(G, bad)
    assert verdict.errors == ["round 0 does not record one weight per clique pair"]


def test_verify_rejects_a_witness_outside_its_snake():
    # the complete bipartite host's snake is clique 0 alone, so a witness
    # between its two cliques names a pair the snake does not have
    n = 4
    G = random_bipartite_blue(1 << (n + 2), 1.0, random.Random(0))
    dec = decompose(G, DecompositionParams.desk(n))
    rec = dec.rounds[0]
    assert rec.snake_indices == (0,) and rec.witnesses == ()
    half = rec.s
    w = LinkWitness(0, 1, rec.cliques[0][:half], rec.cliques[1][:half])
    verdict = verify_decomposition(G, replace(dec, rounds=(replace(rec, witnesses=(w,)),)))
    assert verdict.errors == ["snake 0 invalid: witness names bad clique pair (0, 1)"]


def _two_rounds(blue_edges, second_clique):
    """A two-round certificate on 6 vertices: snake 0 is the red clique
    (0, 1) and snake 1 the given clique, each alone in its round, with
    s = 2 and mu = 2, so a vertex of snake 1 may have blue degree 1 into
    snake 0 and not 2."""
    G = ColouredGraph.from_blue_edges(6, blue_edges)
    params = DecompositionParams(m=2, s_lo=2, s_hi=2, lam=2, mu=2)
    dec = decomposition_of(
        6, params, Snake(((0, 1),), (), 2), Snake((second_clique,), (), 2)
    )
    return G, dec


@pytest.mark.parametrize("blue_edges, errors", [
    ([(2, 0)], []),
    ([(2, 0), (2, 1)], ["vertex 2 of snake 1 has blue degree 2 into snake 0, above s_i/mu"]),
], ids=["degree-1", "degree-2"])
def test_verify_bounds_blue_degree_into_earlier_snakes(blue_edges, errors):
    # 0 and 1 are red to each other, so a vertex blue to both makes no
    # blue triangle; each vertex of snake 1 is tested against s_0/mu = 1
    G, dec = _two_rounds(blue_edges, (2, 3))
    assert is_blue_triangle_free(G)[0]
    assert verify_decomposition(G, dec).errors == errors


def test_verify_rejects_overlapping_snakes():
    # snake 1 takes vertex 1 of snake 0 again
    G, dec = _two_rounds([], (1, 2))
    assert verify_decomposition(G, dec).errors == ["snake 1 overlaps earlier snakes"]


def test_verify_catches_dense_sparse_set():
    # a "sparse" set carrying a blue clique on 8 vertices leaves each of
    # them a blue star of 7 in the remainder, not below m = 1
    N = 8
    G = ColouredGraph.from_blue_edges(N, [(u, v) for u in range(N) for v in range(u + 1, N)])
    params = DecompositionParams(m=1, s_lo=1, s_hi=1, lam=2, mu=1)
    verdict = verify_decomposition(G, Decomposition(N, params, ()))
    assert verdict.errors == [
        "vertex 0 has 7 blue neighbours in the sparse remainder, not below m = 1"
    ]


def test_json_round_trip():
    n = 4
    G = two_clique_linked_graph(n)
    dec = decompose(G, DecompositionParams.desk(n))
    text = dec.to_json()
    again = Decomposition.from_json(text)
    assert again == dec
    assert verify_decomposition(G, again).ok
    data = json.loads(text)
    assert list(data) == ["n_vertices", "params", "rounds"]
    assert [list(r) for r in data["rounds"]] == [
        ["cliques", "weights", "s", "witnesses", "sparse_added"]
    ]


# sha256 of certificates in the layout that also stored the snakes, the
# sparse set and the s values, as written when that layout was current:
# a greedy host, two shuffled two-clique hosts whose round attaches
# vertices, and a bipartite host of two rounds, one with a clique left out
# of its snake.  The bipartite host's unlinked pair weighed 11 when its
# weights were exact; its hash is of the same text with the lower bound 9
LEGACY = {
    1: "031f7738fb08600af506c429c2e112de795c380314f34c6f89010716a0ebee94",
    2: "e2457eeb0ac73ec58b9f991c3eacf4f049e9c35ec03c9db205b554ee36724e6e",
    3: "4a4659d75cb843b4c3806fe6034b63dbd3597fe4b81aadbea2c556557f42f4c4",
    80: "6f460503742139ce3b2b7bed53341e17859d888f36bf282e5fd0695f91686bb4",
}


@pytest.mark.parametrize("seed", sorted(LEGACY))
def test_round_records_rebuild_the_legacy_certificate(seed):
    rng = random.Random(f"legacy/{seed}")
    n = rng.choice([3, 4])
    N = 1 << (n + 2)
    if seed % 3 == 0:
        G = random_bipartite_blue(N, rng.choice([0.02, 0.05, 0.1, 0.2]), rng)
    elif seed % 3 == 1:
        G = random_triangle_free_greedy(N, N // 8, rng)
    else:
        G = two_clique_linked_shuffled(n, rng, extra=rng.randint(0, 8))
    dec = decompose(G, DecompositionParams.desk(n))
    text = legacy_certificate_json(dec)
    assert hashlib.sha256(text.encode()).hexdigest() == LEGACY[seed]
    assert verify_decomposition(G, Decomposition.from_json(dec.to_json())).ok
