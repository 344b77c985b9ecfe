import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import random
from collections import Counter
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import cuberamsey
from cuberamsey import oracle
from helpers import (
    all_red_graph,
    is_red,
    random_colouring,
    reference_canonical_triangle_free_graphs,
    reference_contains_red_cube,
    reference_is_canonical,
    reference_plain_sweep,
)
from cuberamsey.colored_graph import (
    ColouredGraph,
    Verdict,
    is_blue_triangle_free,
    lower_bound_coloring,
    random_bipartite_blue,
    random_triangle_free_greedy,
    red_components,
    verify_red_embedding,
)
from cuberamsey.dense_embedding import Extended
from cuberamsey.oracle import (
    CUBE_FREE_CLASS_COUNTS,
    TRIANGLE_FREE_GRAPH_COUNTS,
    CubeSearchResult,
    RamseyVerdict,
    _child_is_canonical,
    _canonical_children,
    _canonical_sweep,
    _column,
    _cube_free_level,
    _has_rooted_cube,
    _independent_sets,
    _min_red_cut,
    _tied_nodes,
    _tied_prefixes,
    canonical_triangle_free_graphs,
    contains_red_cube,
    exhaustive_ramsey,
)


def test_contains_red_cube_finds_and_verifies():
    G = all_red_graph(10)
    for n in (1, 2, 3):
        res = contains_red_cube(G, n)
        assert res.found
        assert verify_red_embedding(G, n, res.embedding).ok
        assert res.nodes > 0


def test_contains_red_cube_absent():
    # the extremal colouring has red components of order 2^n - 1
    for n in (2, 3):
        G = lower_bound_coloring(n)
        res = contains_red_cube(G, n)
        assert not res.found and res.embedding is None
        assert contains_red_cube(G, n - 1).found


def test_contains_red_cube_small_graphs():
    assert not contains_red_cube(all_red_graph(3), 2).found
    assert not contains_red_cube(ColouredGraph(0, []), 1).found
    # a red 4-cycle is exactly Q_2
    cyc = ColouredGraph.from_blue_edges(4, [(0, 2), (1, 3)])
    res = contains_red_cube(cyc, 2)
    assert res.found
    assert verify_red_embedding(cyc, 2, res.embedding).ok


def _blow_up(N: int, rng: random.Random) -> ColouredGraph:
    """Each vertex of a small triangle-free base graph replaced by a red
    clique, under a random labelling."""
    parts = rng.randint(2, 6)
    base = random_triangle_free_greedy(parts, rng.randint(0, 2 * parts), rng).blue
    part_of = [v % parts for v in range(N)]
    rng.shuffle(part_of)
    members = [0] * parts
    for v, a in enumerate(part_of):
        members[a] |= 1 << v
    blue = [0] * N
    for v, a in enumerate(part_of):
        for b in range(parts):
            if base[a] >> b & 1:
                blue[v] |= members[b]
    return ColouredGraph(N, blue)


def _bridged(a: int, b: int, rng: random.Random, bridges: int) -> ColouredGraph:
    """Red cliques on a and b vertices joined by a few red edges, blue
    across otherwise, under a random labelling; with one bridge and
    a = b = 2^n - 1 this is the bridged lower bound."""
    N = a + b
    red_across = {(rng.randrange(a), rng.randrange(a, N)) for _ in range(bridges)}
    perm = list(range(N))
    rng.shuffle(perm)
    return ColouredGraph.from_blue_edges(N, [
        (perm[x], perm[y])
        for x in range(a) for y in range(a, N) if (x, y) not in red_across
    ])


@st.composite
def cube_hosts(draw):
    """A triangle-free host on 8 to 24 vertices and a cube dimension 2 or
    3: greedy, bipartite, blow-up or bridged two-clique.  Bridged hosts
    get 1 to n + 1 red edges across, so some red cuts sit below n and
    some do not."""
    n = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(8, 24))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["greedy", "bipartite", "blow-up", "bridged"]))
    if kind == "greedy":
        G = random_triangle_free_greedy(N, draw(st.integers(0, 3 * N)), rng)
    elif kind == "bipartite":
        G = random_bipartite_blue(N, draw(st.sampled_from([0.2, 0.5, 0.8, 1.0])), rng)
    elif kind == "blow-up":
        G = _blow_up(N, rng)
    else:
        a = draw(st.integers(1, N - 1))
        G = _bridged(a, N - a, rng, draw(st.integers(1, n + 1)))
    return G, n


@settings(max_examples=200, deadline=None)
@given(cube_hosts())
def test_contains_red_cube_matches_unsplit_search(host):
    G, n = host
    got = contains_red_cube(G, n)
    want = reference_contains_red_cube(G, n)
    assert got.found == want.found
    # the first cube vertex still runs over the whole component in order,
    # so even the embedding found is the unsplit search's
    assert got.embedding == want.embedding
    # a search that never backtracks is the first-fit walk, counted alike
    if want.nodes == 1 << n:
        assert got.nodes == want.nodes
    if got.found:
        assert verify_red_embedding(G, n, got.embedding).ok


def test_bridged_lower_bound_splits_without_search():
    # the red graph is two (2^n - 1)-cliques and a bridge: the cut of one
    # edge splits it into pieces too small for the cube, so no cube
    # vertex is ever placed
    rng = random.Random(4)
    for n in (3, 4, 5):
        half = (1 << n) - 1
        G = _bridged(half, half, rng, 1)
        res = contains_red_cube(G, n)
        assert not res.found and res.nodes == 0


class _CutPassRan(Exception):
    pass


def test_walk_finds_cubes_without_cut_pass(monkeypatch):
    # where the search would not backtrack, the first-fit walk answers
    # alone: no core, no cut, and the nodes of the search's first path
    def no_cut(*args):
        raise _CutPassRan

    monkeypatch.setattr(oracle, "_cube_pieces", no_cut)
    G = random_triangle_free_greedy(640, 10240, random.Random(0))
    res = contains_red_cube(G, 8)
    assert res.found and res.nodes == 256
    assert verify_red_embedding(G, 8, res.embedding).ok
    nodes = []
    for adj in canonical_triangle_free_graphs(8):
        try:
            nodes.append(contains_red_cube(ColouredGraph(8, adj), 2).nodes)
        except _CutPassRan:
            pass
    # 410 classes; one of them needs the cut pass
    assert nodes == [4] * 409


def test_min_red_cut_against_brute_force():
    rng = random.Random(31)
    for _ in range(150):
        k = rng.randrange(2, 11)
        G = random_colouring(k, rng.random(), rng)
        # half the time a sub-pool, so edges leaving the pool are ignored
        pool = G.full_mask
        sub = rng.getrandbits(k)
        if rng.random() < 0.5 and sub.bit_count() >= 2:
            pool = sub
        members = [v for v in range(k) if pool >> v & 1]

        def across(side):
            return sum(
                is_red(G, u, v) for u, v in combinations(members, 2)
                if (side >> u & 1) != (side >> v & 1)
            )

        # every bipartition once: the side holding the first member
        first, rest = members[0], members[1:]
        brute = min(
            across((1 << first) | sum(1 << v for v in chosen))
            for r in range(len(rest))
            for chosen in combinations(rest, r)
        )
        weight, side = _min_red_cut(G, pool)
        assert weight == brute
        assert side and side & pool == side and side != pool
        assert across(side) == weight


def test_ramsey_number_of_an_edge():
    # r(K_3, Q_1) = 3: K_2 has an all-blue colouring with no blue
    # triangle and no red edge, K_3 does not; the sweep finds it too
    assert exhaustive_ramsey(1, 2).witness.blue == _canonical_sweep(1, 2).witness.blue
    below = _canonical_sweep(1, 2)
    assert not below.holds
    w = below.witness
    assert w is not None and is_blue_triangle_free(w)[0]
    assert not contains_red_cube(w, 1).found
    assert exhaustive_ramsey(1, 3).holds


def test_ramsey_number_of_a_square():
    # r(K_3, Q_2) = 7 per the exhaustive sweep at 6 and 7
    below = _canonical_sweep(2, 6)
    assert not below.holds
    w = below.witness
    assert is_blue_triangle_free(w)[0]
    assert not contains_red_cube(w, 2).found
    assert exhaustive_ramsey(2, 7).holds


def test_canonical_sweep_matches_brute_force():
    # the sweep itself, from 2^n vertices on, where a cube fits, against
    # every labelled colouring; a witness is some class's canonical
    # labelling, so it is checked rather than compared
    for n in (1, 2):
        for N in range(1 << n, 7):
            v = _canonical_sweep(n, N)
            assert v.holds == reference_plain_sweep(n, N), (n, N)
            if not v.holds:
                w = v.witness
                assert w.n_vertices == N and is_blue_triangle_free(w)[0]
                assert not contains_red_cube(w, n).found


def test_plain_sweep_matches_brute_force():
    # the public entry under the accepted value "plain", at every N up to
    # 6, construction answers included, against every labelled colouring;
    # a witness is checked rather than compared
    for n in (1, 2):
        for N in range(1, 7):
            v = exhaustive_ramsey(n, N, "plain")
            assert v.holds == reference_plain_sweep(n, N), (n, N)
            if not v.holds:
                w = v.witness
                assert w.n_vertices == N and is_blue_triangle_free(w)[0]
                assert not contains_red_cube(w, n).found


def test_plain_and_canonical_agree():
    # the third parameter selects nothing: each accepted value gives the
    # default's verdict, count and witness (test_refusals refuses any
    # other value)
    for n in (1, 2, 3):
        for N in range(1, 17):
            want = exhaustive_ramsey(n, N)
            for mode in ("auto", "plain", "canonical"):
                got = exhaustive_ramsey(n, N, mode)
                assert (got.holds, got.checked) == (want.holds, want.checked)
                assert (got.witness and got.witness.blue) == (
                    want.witness and want.witness.blue
                ), (n, N, mode)


def test_results_keep_their_evidence_and_derive_their_verdict():
    # each result stores its evidence alone, and ok, found and holds are
    # read off it, so a verdict cannot disagree with its evidence
    fields = {
        Verdict: ["errors"],
        CubeSearchResult: ["embedding", "nodes"],
        RamseyVerdict: ["n", "N", "witness", "checked"],
        Extended: ["entry"],
    }
    for cls, names in fields.items():
        assert list(cls.__dataclass_fields__) == names, cls.__name__
    assert Verdict([]).ok and Verdict([])
    assert not Verdict(["bad"]).ok and not Verdict(["bad"])
    found = contains_red_cube(all_red_graph(4), 2)
    absent = contains_red_cube(all_red_graph(3), 2)
    assert found.found and found.embedding is not None
    assert not absent.found and absent.embedding is None
    holds, fails = exhaustive_ramsey(1, 3), exhaustive_ramsey(1, 2)
    assert holds.holds and holds.witness is None
    assert not fails.holds and fails.witness is not None
    for result, name in ((Verdict([]), "ok"), (found, "found"), (holds, "holds")):
        with pytest.raises(AttributeError):
            setattr(result, name, False)


def test_canonical_counts_match_tabulation():
    # the enumeration advertises N = 9, so the whole table is checked
    for N in range(1, 10):
        got = len(canonical_triangle_free_graphs(N))
        assert got == TRIANGLE_FREE_GRAPH_COUNTS[N - 1]


def test_canonical_levels_are_generated_once(monkeypatch):
    want = {N: canonical_triangle_free_graphs(N) for N in (5, 8)}

    def no_check(*args):
        raise AssertionError("level generated again")

    # the level builder's test of each walked child
    monkeypatch.setattr(oracle, "_child_is_canonical", no_check)
    for N in (8, 5):
        assert canonical_triangle_free_graphs(N) == want[N]


def test_canonical_lists_are_fresh():
    want = canonical_triangle_free_graphs(6)
    got = canonical_triangle_free_graphs(6)
    got[0][0] = 0b111
    got[-1].append(0)
    del got[1]
    assert canonical_triangle_free_graphs(6) == want


def test_canonical_generator_matches_tuple_search():
    # same classes, same labelling, same order
    for N in range(1, 8):
        assert canonical_triangle_free_graphs(N) == reference_canonical_triangle_free_graphs(N)


def test_canonical_levels_are_pinned():
    # the labeling and order of every class, not only their number: the
    # sha256 of each level as JSON
    pinned = {
        8: "d83f44365b5ab51433822676acb42f4b3ffd100bdc0fa402d08ff668bd849216",
        9: "32f79828847b88e510ed41569e1d0fbf2a48e83daed7bbf3ae1157cc779bee5f",
    }
    for N, digest in pinned.items():
        text = json.dumps(canonical_triangle_free_graphs(N))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, N


def _walk(adj: list[int]) -> bool:
    """``_tied_nodes`` on any graph, handed its columns and a start at
    every independent set of a0 vertices as the first cell: is the graph
    canonical?"""
    cols = [_column(a, t) for t, a in enumerate(adj)]
    a0 = next((t for t, c in enumerate(cols) if c), len(adj))
    full = (1 << len(adj)) - 1
    starts = [
        (a0, [(I, a0)], full & ~I)
        for I in _independent_sets(adj) if I.bit_count() == a0
    ]
    return all(_tied_nodes(adj, cols, starts))


def _children():
    """Every child of every canonical parent on 1..7 vertices: the
    parent, its columns and independent sets by size, whether the prefix
    rule of ``_canonical_level`` skips the child (its last column below
    the parent's floor), and each independent set S with the child that
    attaches a new vertex to it."""
    for v in range(2, 9):
        for adj in canonical_triangle_free_graphs(v - 1):
            adj = tuple(adj)
            cols = [_column(a, t) for t, a in enumerate(adj)]
            sets = sorted(_independent_sets(adj))
            by_size = [[I for I in sets if I.bit_count() == k] for k in range(v + 1)]
            floor = max(c << (v - 1 - p) for p, c in enumerate(cols))
            for S in sets:
                child = [a | (S >> u & 1) << (v - 1) for u, a in enumerate(adj)] + [S]
                yield adj, cols, by_size, _column(S, v - 1) < floor, S, child


def test_prefix_rule_rejects_only_non_canonical_children():
    # every child that the prefix rule skips unwalked, over every parent
    # on 1..7 vertices and every independent set S of it, is rejected by
    # the full tuple search; and the rule skips some child
    skipped = 0
    for adj, cols, by_size, skip, S, child in _children():
        if skip:
            assert not reference_is_canonical(child, len(child)), (adj, S)
            skipped += 1
    assert skipped > 0


def test_child_test_matches_tuple_search():
    # the test of a child at its parent's tied prefixes, on every child
    # of every parent on 1..7 vertices: those the prefix rule rejects
    # unwalked too, S empty, edgeless parents, and S holding the higher
    # of two parent twins but not the lower
    seen: Counter = Counter()
    tree, parent = None, None
    for adj, cols, by_size, skip, S, child in _children():
        if adj != parent:
            tree, parent = _tied_prefixes(adj, cols, by_size), adj
        want = reference_is_canonical(child, len(child))
        got = _child_is_canonical(adj, cols, by_size, tree, S)
        assert got == (tuple(child) if want else None), (adj, S)
        seen["canonical" if want else "not"] += 1
        seen["skipped" if skip else "walked"] += 1
        seen["empty S"] += not S
        seen["edgeless"] += not any(adj)
        seen["higher twin"] += any(
            adj[u] & ~(1 << w) == adj[w] & ~(1 << u) and S >> w & 1 and not S >> u & 1
            for w in range(len(adj)) for u in range(w)
        )
    assert len(seen) == 7 and min(seen.values()) > 0, seen


def test_canonical_classes_refused_beyond_table():
    # generation is trusted only where its class count is tabulated
    with pytest.raises(ValueError, match="tabulated only to N = 9"):
        canonical_triangle_free_graphs(10)


def test_is_canonical_matches_tuple_search_on_relabelings():
    # sampled classes as given (accepted) and relabeled, with twin-rich
    # ones (empty, stars, complete bipartite) among them, exercise both
    # verdicts and cells of every size
    rng = random.Random(37)
    graphs = [
        (N, adj) for N in (5, 7, 8, 9)
        for adj in rng.sample(canonical_triangle_free_graphs(N), 12)
    ]
    for N, adj in graphs:
        assert _walk(adj) and reference_is_canonical(adj, N)
    graphs += [
        (7, list(random_bipartite_blue(7, 1.0, rng).blue)),
        (9, [0b111100000] * 5 + [0b11111] * 4),
        (9, [0b111111110] + [1] * 8),
        (9, [(1 << (u + 1) % 9) | (1 << (u - 1) % 9) for u in range(9)]),
        (7, [0b1111110] + [1] * 6),
        # the unskipped search walks all 7! relabelings of the empty
        # graph, and would walk all 9! at N = 9
        (7, [0] * 7),
    ]
    for N, adj in graphs:
        for _ in range(4):
            perm = list(range(N))
            rng.shuffle(perm)
            relabeled = [0] * N
            for u in range(N):
                for w in range(N):
                    if adj[u] >> w & 1:
                        relabeled[perm[u]] |= 1 << perm[w]
            assert _walk(relabeled) == reference_is_canonical(relabeled, N)


def test_oracle_leaves_no_reference_cycles():
    # class generation and the cube search free what they build when
    # they return, not only once the cyclic collector runs: after a
    # warm-up, levels 1..8 built again and an absence proof past the
    # first-fit walk leave nothing for the collector
    code = (
        "import gc\n"
        "from cuberamsey import oracle\n"
        "from cuberamsey.colored_graph import lower_bound_coloring\n"
        "gc.disable()\n"
        "oracle.canonical_triangle_free_graphs(8)\n"
        "oracle.contains_red_cube(lower_bound_coloring(3), 3)\n"
        "gc.collect()\n"
        "oracle._canonical_level.cache_clear()\n"
        "oracle.canonical_triangle_free_graphs(8)\n"
        "res = oracle.contains_red_cube(lower_bound_coloring(3), 3)\n"
        "print(res.found, gc.collect())\n"
    )
    src = str(Path(cuberamsey.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "0"]


def test_canonical_classes_are_triangle_free_and_distinct():
    seen = set()
    for adj in canonical_triangle_free_graphs(6):
        G = ColouredGraph(6, list(adj), validate=False)
        assert is_blue_triangle_free(G)[0]
        key = tuple(adj)
        assert key not in seen
        seen.add(key)


def test_all_red_shortcut_when_cube_exceeds_graph():
    # with 2^n > N the all-red colouring of K_N is a witness
    v = exhaustive_ramsey(3, 4)
    assert not v.holds
    assert v.witness is not None
    assert all(m == 0 for m in v.witness.blue)


def test_answers_below_the_lower_bound_build_no_class_list(monkeypatch):
    # up to N = 2^(n+1) - 2 every mode answers by construction: red
    # cliques on the first min(N, 2^n - 1) vertices and on the rest,
    # blue across, edgeless below 2^n, the lower bound's colouring at
    # 2^(n+1) - 2; nothing is tested and no class list is built
    def no_levels(N):
        raise AssertionError(f"class list built at N = {N}")

    monkeypatch.setattr(oracle, "canonical_triangle_free_graphs", no_levels)
    for n in range(1, 7):
        for N in range(1, (2 << n) - 1):
            v = exhaustive_ramsey(n, N)
            assert not v.holds and v.checked == 0
            w = v.witness
            assert w.n_vertices == N and is_blue_triangle_free(w)[0]
            assert all(c.bit_count() < 1 << n for c in red_components(w))
            assert (not any(w.blue)) == (N < 1 << n), (n, N)
            for mode in ("auto", "plain", "canonical"):
                m = exhaustive_ramsey(n, N, mode)
                assert m.checked == 0 and m.witness.blue == w.blue, (n, N, mode)
        top = exhaustive_ramsey(n, (2 << n) - 2).witness
        assert top.blue == lower_bound_coloring(n).blue, n
    # the witness is built from N, not from the lower bound's 2^31 vertices
    assert exhaustive_ramsey(30, 5).witness.blue == [0] * 5


def test_refusal_names_the_request_before_any_class_list(monkeypatch):
    # from 2^(n+1) - 1 vertices on, n >= 4 would need every class on
    # 2^n - 1 vertices, past the table: the refusal names n, N and that
    # level, and no class list is built to find that out
    def no_levels(N):
        raise AssertionError(f"class list built at N = {N}")

    monkeypatch.setattr(oracle, "canonical_triangle_free_graphs", no_levels)
    for n, N in ((4, 31), (4, 32), (5, 63), (6, 127)):
        base = (1 << n) - 1
        with pytest.raises(ValueError) as raised:
            exhaustive_ramsey(n, N)
        assert str(raised.value) == (
            f"n = {n}, N = {N} needs the canonical classes on 2^{n} - 1 = "
            f"{base} vertices; canonical enumeration is tabulated only to "
            f"N = 9 (1897 classes)"
        )


def test_failed_roots_leave_later_pools():
    # a first cube vertex whose search failed lies on no red Q_n of its
    # piece, so later searches skip it: the 1,897 classes on 9 vertices
    # at n = 3 cost under 400,000 placements (1,116,672 when every
    # failed root stayed in every pool)
    nodes = sum(
        contains_red_cube(ColouredGraph(9, adj, validate=False), 3).nodes
        for adj in canonical_triangle_free_graphs(9)
    )
    assert nodes < 400_000


def test_refusals():
    # at n = 4 every N up to 30 answers at once; from 31 on the sweep
    # needs the full class list on 15 vertices, tabulated only to N = 9
    assert not exhaustive_ramsey(4, 30).holds
    with pytest.raises(ValueError, match="tabulated only to N = 9"):
        exhaustive_ramsey(4, 31)
    with pytest.raises(ValueError):
        exhaustive_ramsey(0, 3)
    with pytest.raises(ValueError):
        exhaustive_ramsey(2, 0)
    with pytest.raises(ValueError, match="unknown mode 'unheard-of'"):
        exhaustive_ramsey(2, 5, mode="unheard-of")


def test_verdict_bookkeeping():
    # the sweep counts the children tested for a red Q_n from level 2^n
    # on: both classes on 2 vertices, and on 3 none, since the blue edge,
    # the one class on 2 without a red edge, has no canonical child
    for mode in ("auto", "plain", "canonical"):
        assert exhaustive_ramsey(1, 3, mode).checked == 2, mode
    assert exhaustive_ramsey(3, 7).checked == 0
    # n = 3 answers at 9 by construction; its sweep tests all 410
    # classes on 8 vertices, then level 9 up to its witness, the second
    # child, in the order and labelling of the canonical walk; at n = 2
    # every child up to the empty level 7
    assert exhaustive_ramsey(3, 9).checked == 0
    v = _canonical_sweep(3, 9)
    assert v.checked == 412
    assert v.witness.blue == ColouredGraph.from_blue_edges(9, [
        (1, 8), (2, 7), (3, 7), (3, 8), (4, 7), (4, 8), (5, 7), (5, 8), (6, 7), (6, 8)
    ]).blue
    assert exhaustive_ramsey(2, 9).checked == 14


def test_count_check_survives_optimised_mode():
    # python -O strips assert statements; the tabulated class count must
    # still be enforced, so a wrong table has to stop the canonical sweep.
    # At n = 3 and N = 15 the sweep builds the full class lists up to 7
    # vertices, level 5 among them
    code = (
        "import cuberamsey.oracle as o\n"
        "if __debug__: raise SystemExit('not optimised')\n"
        "o.TRIANGLE_FREE_GRAPH_COUNTS = (1, 2, 3, 7, 15, 38, 107)\n"
        "try:\n"
        "    o.exhaustive_ramsey(3, 15, 'canonical')\n"
        "except AssertionError as e:\n"
        "    print('refused:', e)\n"
    )
    src = str(Path(cuberamsey.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert "refused: generated 14 classes at N=5, expected 15" in run.stdout


def test_cube_free_count_check_survives_optimised_mode():
    # the same for the cube-free levels: a wrong count stops the sweep
    # under python -O at the first level built against it
    code = (
        "import cuberamsey.oracle as o\n"
        "if __debug__: raise SystemExit('not optimised')\n"
        "o.CUBE_FREE_CLASS_COUNTS = {2: (1, 2, 3, 4, 5, 2, 0)}\n"
        "try:\n"
        "    o.exhaustive_ramsey(2, 7, 'canonical')\n"
        "except AssertionError as e:\n"
        "    print('refused:', e)\n"
    )
    src = str(Path(cuberamsey.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert "refused: generated 4 classes without a red Q_2 at N=5, expected 5" in run.stdout


@cache
def _holds_cube(n: int, adj: tuple[int, ...]) -> bool:
    return contains_red_cube(ColouredGraph(len(adj), list(adj), validate=False), n).found


def test_cube_free_levels_are_filtered_full_levels():
    # the classes grown from cube-free parents are exactly the full
    # canonical classes without a red Q_n, in the same order; past an
    # empty level every level is empty
    for n in (1, 2, 3):
        for N in range(1, 10):
            full = map(tuple, canonical_triangle_free_graphs(N))
            want = tuple(adj for adj in full if not _holds_cube(n, adj))
            assert _cube_free_level(n, N)[0] == want, (n, N)
            if N <= len(CUBE_FREE_CLASS_COUNTS[n]):
                assert len(want) == CUBE_FREE_CLASS_COUNTS[n][N - 1], (n, N)


def test_rooted_cube_test_matches_whole_search():
    # every child tested at n = 3 on levels 8 and 9: its parent has no
    # red Q_3, so the search through the new vertex decides it
    seen = Counter()
    for v in (8, 9):
        for child in _canonical_children(_cube_free_level(3, v - 1)[0], v):
            found = _holds_cube(3, child)
            assert _has_rooted_cube(child, 3) == found, child
            seen[found] += 1
    assert seen[True] > 0 and seen[False] > 0, seen


def test_level_14_at_n_3():
    # the 15 triangle-free classes on 14 vertices without a red Q_3: each
    # of blue maximum degree 7 and 44-49 blue edges, and the one with 49
    # is complete bipartite 7 + 7, the lower bound's red 2 K_7
    level = _cube_free_level(3, 14)[0]
    assert len(level) == 15
    edges = []
    for adj in level:
        assert max(a.bit_count() for a in adj) == 7
        edges.append(sum(a.bit_count() for a in adj) // 2)
    assert min(edges) == 44 and max(edges) == 49 and edges.count(49) == 1
    adj = level[edges.index(49)]
    a, b = sorted(set(adj))
    assert a | b == (1 << 14) - 1 and not a & b and a.bit_count() == 7
    assert all(adj[u] == (b if a >> u & 1 else a) for u in range(14))
    assert not _cube_free_level(3, 15)[0]


def test_r_k3_q3_is_15():
    # a witness on 14 vertices and none on 15: r(K_3, Q_3) = 15.  The
    # sweep's witness is the first of the 15 classes on 14 vertices, in
    # the order and labelling of the canonical walk
    below = _canonical_sweep(3, 14)
    assert not below.holds and below.checked == 2350
    assert is_blue_triangle_free(below.witness)[0]
    assert not contains_red_cube(below.witness, 3).found
    assert below.witness.blue == ColouredGraph.from_blue_edges(14, [
        (0, 9), (0, 10), (0, 11), (0, 12), (0, 13), (1, 8), (1, 10), (1, 11),
        (1, 12), (1, 13), (2, 7), (2, 9), (2, 10), (2, 11), (2, 12), (2, 13),
        (3, 7), (3, 8), (3, 9), (3, 10), (3, 11), (3, 12), (3, 13), (4, 7),
        (4, 8), (4, 9), (4, 10), (4, 11), (4, 12), (4, 13), (5, 7), (5, 8),
        (5, 9), (5, 10), (5, 11), (5, 12), (5, 13), (6, 7), (6, 8), (6, 9),
        (6, 10), (6, 11), (6, 12), (6, 13),
    ]).blue
    assert exhaustive_ramsey(3, 15, "canonical").holds


def test_sweep_far_above_the_empty_level_returns_at_once():
    # the empty level at 15 ends the growth: N = 10,000 builds no level
    # above it and recurses nowhere
    assert exhaustive_ramsey(3, 10_000, "canonical").holds
    assert exhaustive_ramsey(2, 12, "canonical").holds


def test_package_import_leaves_numpy_out():
    # the package has no runtime dependency: the sweep is pure Python,
    # and its verdict carries no mode
    code = (
        "import sys, cuberamsey, cuberamsey.cli, cuberamsey.oracle\n"
        "print('numpy' in sys.modules)\n"
        "from cuberamsey.oracle import exhaustive_ramsey\n"
        "v = exhaustive_ramsey(2, 7)\n"
        "print('numpy' in sys.modules, v.holds, v.checked, hasattr(v, 'mode'))\n"
    )
    src = str(Path(cuberamsey.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "False", "True", "14", "False"]


def test_package_import_leaves_the_cli_out():
    # the command line front end, and argparse with it, loads only when
    # asked for: a program that imports the package compiles neither
    code = (
        "import sys, cuberamsey\n"
        "print('cuberamsey.cli' in sys.modules, 'argparse' in sys.modules)\n"
    )
    src = str(Path(cuberamsey.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "False"]
