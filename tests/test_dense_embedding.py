import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cuberamsey.dense_embedding as dense_embedding
from helpers import (
    all_red_graph,
    check_partial_assignment,
    random_valid_partial_assignment,
    reference_complete_greedily,
    reference_embed_partial_assignment,
    reference_verify_errors,
)
from cuberamsey.bits import bit, mask_of
from cuberamsey.colored_graph import (
    ColouredGraph,
    random_bipartite_blue,
    random_triangle_free_greedy,
    verify_red_embedding,
)
from cuberamsey.dense_embedding import (
    AssignmentEntry,
    Cleaned,
    Extended,
    ThresholdSchedule,
    candidate_set_size,
    complete_greedily,
    dense_embed,
    embed_partial_assignment,
    extend_or_clean,
)
from cuberamsey.errors import HypothesisError, StageFailure
from cuberamsey.hypercube import (
    InitialSubcube,
    bandwidth_order,
    subcube_distance,
    subcube_vertices,
)
from cuberamsey.solver import SolverParams, solve


def test_candidate_set_size_is_exact_ceiling():
    assert candidate_set_size(Fraction(1, 4), 6, 2) == 20
    assert candidate_set_size(Fraction(1, 10), 8, 3) == 36  # ceil(35.2)
    assert candidate_set_size(Fraction(1, 2), 4, 4) == 2  # ceil(1.5)
    assert candidate_set_size(Fraction(1, 3), 5, 1) == 22  # ceil(64/3)


def test_partial_assignment_validates_gamma():
    # dense_embed validates gamma once, as an exact Fraction, and every
    # step of its loop gets that Fraction: 0.25 is exactly 1/4
    seen = []

    def spy(H, entries, A, a, b, n, gamma):
        seen.append(gamma)
        return extend_or_clean(H, entries, A, a, b, n, gamma)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dense_embedding, "extend_or_clean", spy)
        dense_embed(all_red_graph(16), 2, 0.25, ThresholdSchedule((1, 1)))
    assert seen and all(type(g) is Fraction and g == Fraction(1, 4) for g in seen)


@pytest.mark.parametrize("gamma", [0, 1])
def test_dense_embed_refuses_gamma_before_its_hypotheses(gamma):
    # a one-vertex host under a schedule deeper than n fails every
    # hypothesis, yet the gamma refusal comes first
    G = all_red_graph(1)
    with pytest.raises(ValueError) as e:
        dense_embed(G, 2, gamma, ThresholdSchedule((2, 3)))
    assert str(e.value) == f"gamma must lie in (0, 1), got {gamma}"


def _single_entry(codim, members):
    return [AssignmentEntry(InitialSubcube((0,) * codim), tuple(members))]


def test_check_clause_a_sizes_and_order():
    g = Fraction(1, 4)
    G = all_red_graph(64)
    want = candidate_set_size(g, 4, 1)  # 10
    ok, clause, _ = check_partial_assignment(G, _single_entry(1, range(want)), g, 4)
    assert ok
    ok, clause, _ = check_partial_assignment(
        G, _single_entry(1, range(want - 1)), g, 4
    )
    assert (ok, clause) == (False, "a")
    # decreasing codimension
    e1 = AssignmentEntry(InitialSubcube((0, 0)), tuple(range(candidate_set_size(g, 4, 2))))
    e2 = AssignmentEntry(
        InitialSubcube((1,)), tuple(range(20, 20 + candidate_set_size(g, 4, 1)))
    )
    ok, clause, _ = check_partial_assignment(G, [e1, e2], g, 4)
    assert (ok, clause) == (False, "a")


def test_check_clause_b_red_clique_and_disjointness():
    g = Fraction(1, 4)
    n = 4
    want = candidate_set_size(g, n, 1)
    G = ColouredGraph.from_blue_edges(32, [(0, 1)])
    ok, clause, _ = check_partial_assignment(G, _single_entry(1, range(want)), g, n)
    assert (ok, clause) == (False, "b")
    # shared vertices between entries
    H = all_red_graph(32)
    w2 = candidate_set_size(g, n, 2)
    e1 = AssignmentEntry(InitialSubcube((0, 0)), tuple(range(w2)))
    e2 = AssignmentEntry(InitialSubcube((1, 1)), tuple(range(w2)))
    ok, clause, _ = check_partial_assignment(H, [e1, e2], g, n)
    assert (ok, clause) == (False, "b")


def test_check_clause_c_overlapping_subcubes():
    g = Fraction(1, 4)
    n = 4
    w1 = candidate_set_size(g, n, 1)
    w2 = candidate_set_size(g, n, 2)
    H = all_red_graph(64)
    e1 = AssignmentEntry(InitialSubcube((0,)), tuple(range(w1)))
    e2 = AssignmentEntry(InitialSubcube((0, 1)), tuple(range(w1, w1 + w2)))
    ok, clause, _ = check_partial_assignment(H, [e1, e2], g, n)
    assert (ok, clause) == (False, "c")


def test_check_clause_21_cross_degree_is_one_sided():
    g = Fraction(1, 2)
    n = 3
    w = candidate_set_size(g, n, 1)  # 6
    first = tuple(range(w))
    second = tuple(range(w, 2 * w))
    # threshold into the earlier set: g * 2^(n-1) / 1 = 2
    edges = [(first[0], v) for v in second[:3]]  # degree 3 of one later vertex
    G = ColouredGraph.from_blue_edges(2 * w, [(min(a, b), max(a, b)) for a, b in edges])
    e1 = AssignmentEntry(InitialSubcube((0,)), first)
    e2 = AssignmentEntry(InitialSubcube((1,)), second)
    ok, clause, _ = check_partial_assignment(G, [e1, e2], g, n)
    assert ok, clause  # degree of the *later* vertices into first is <= 1 each

    edges = [(v, second[0]) for v in first[:3]]  # one later vertex, degree 3
    G = ColouredGraph.from_blue_edges(2 * w, edges)
    ok, clause, _ = check_partial_assignment(G, [e1, e2], g, n)
    assert (ok, clause) == (False, "2.1")


def test_randomized_valid_assignments_embed_and_verify():
    rng = random.Random(2024)
    done = 0
    for _ in range(40):
        n = rng.randrange(4, 8)
        gamma = rng.choice([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)])
        G, entries = random_valid_partial_assignment(n, gamma, rng)
        ok, clause, detail = check_partial_assignment(G, entries, gamma, n)
        assert ok, (clause, detail)
        phi = embed_partial_assignment(G, entries, n)
        covered = [
            z for e in entries for z in subcube_vertices(e.subcube, n)
        ]
        assert sorted(phi) == sorted(covered)
        assert reference_verify_errors(G, n, phi, covered) == []
        # every image sits in its own candidate set
        for e in entries:
            mm = set(e.members)
            for z in subcube_vertices(e.subcube, n):
                assert phi[z] in mm
        done += 1
    assert done == 40


def _cross_blue(H, es, rng):
    """H plus blue edges, each with one drawn probability, between the
    candidate sets of every cube-adjacent pair of entries: clause 2.1
    may break, and then an entry can run out of candidates."""
    blue = list(H.blue)
    q = rng.choice([0.3, 0.6, 1.0])
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            if subcube_distance(es[i].subcube, es[j].subcube) != 1:
                continue
            for u in es[i].members:
                for v in es[j].members:
                    if rng.random() < q:
                        blue[u] |= bit(v)
                        blue[v] |= bit(u)
    return ColouredGraph(H.n_vertices, blue)


def _partial_embedding(embed, H, entries, n):
    try:
        return list(embed(H, entries, n).items())
    except StageFailure as e:
        return e.stage, str(e), e.data


@pytest.mark.parametrize("broken", [False, True])
def test_embed_partial_assignment_matches_mask_clearing_loop(broken):
    rng = random.Random(f"partial-embedding/{broken}")
    outcomes = set()
    for _ in range(40):
        n = rng.randrange(3, 7)
        gamma = rng.choice([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)])
        H, entries = random_valid_partial_assignment(n, gamma, rng)
        if broken:
            H = _cross_blue(H, entries, rng)
        got = _partial_embedding(embed_partial_assignment, H, entries, n)
        assert got == _partial_embedding(reference_embed_partial_assignment, H, entries, n)
        outcomes.add(type(got))
    # a valid assignment always embeds; broken ones both embed and fail
    assert outcomes == ({list, tuple} if broken else {list})


def test_embed_partial_assignment_rejects_negative_member():
    # a negative member would index the host from its top end
    g, n = Fraction(1, 4), 3
    members = tuple(range(-1, candidate_set_size(g, n, 1) - 1))
    entries = [AssignmentEntry(InitialSubcube((0,)), members)]
    with pytest.raises(ValueError):
        embed_partial_assignment(all_red_graph(32), entries, n)


def test_cleaning_threshold_is_inclusive():
    # gamma = 1/4, n = 4, an entry of codimension 1 next to the cell y:
    # the threshold is gamma * 2^3 / 1 = 2 blue neighbours in the entry,
    # so a vertex with exactly 2 is removed and one with 1 stays
    n, g = 4, Fraction(1, 4)
    size = candidate_set_size(g, n, 1)
    two, one = size, size + 1
    H = ColouredGraph.from_blue_edges(size + 2, [(0, two), (1, two), (2, one)])
    entry = AssignmentEntry(InitialSubcube((0,)), tuple(range(size)))
    step = extend_or_clean(H, [entry], mask_of([two, one]), 1, 1, n, g)
    assert isinstance(step, Cleaned)
    assert step.mask == bit(one)


def test_dichotomy_outcomes_on_random_graphs():
    rng = random.Random(77)
    extended = cleaned = 0
    for _ in range(60):
        n = rng.randrange(3, 6)
        b = rng.randrange(1, n)
        a = rng.randrange(1, b + 1)
        g = rng.choice([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)])
        hub = rng.random() < 0.5
        N = rng.randrange(3 << n, 5 << n)
        if hub:
            # a vertex with a big independent blue star forces an extension
            star = 1 << (n - b + 1)
            edges = [(0, v) for v in range(1, 1 + star)]
            G = ColouredGraph.from_blue_edges(N, edges)
        else:
            G = random_triangle_free_greedy(N, N // 8, rng)
        A = (1 << N) - 1
        step = extend_or_clean(G, [], A, a, b, n, g)
        if isinstance(step, Extended):
            extended += 1
            ok, clause, detail = check_partial_assignment(G, [step.entry], g, n)
            assert ok, (clause, detail)
        else:
            cleaned += 1
            assert isinstance(step, Cleaned)
            # nobody keeps a big blue star into the cleaned set
            need = 1 << (n - b + 1)
            for u in range(N):
                assert (G.blue[u] & step.mask).bit_count() < need
            # and the cleaning stayed within its counting allowance
            allowance = Fraction(b * b, g) * (1 << (n - a + 1))
            assert A.bit_count() - step.mask.bit_count() <= allowance
    assert extended >= 10 and cleaned >= 10


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 7),
    kind=st.sampled_from(["greedy", "bipartite"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_embed_keeps_every_step_hypothesis(n, kind, seed):
    # extend_or_clean checks none of its hypotheses: dense_embed checks
    # them once and its loop keeps them, on solve's route and called
    # directly; each extension meets the definition
    rng = random.Random(seed)
    N = 1 << (n + 2)
    if kind == "greedy":
        G = random_triangle_free_greedy(N, rng.randrange(N // 8, 2 * N), rng)
    else:
        G = random_bipartite_blue(N, rng.choice([0.02, 0.05, 0.2]), rng)
    params = SolverParams.desk(n)

    def checked(H, entries, A, a, b, n, gamma):
        cap = 1 << (n - a)
        assert 1 <= a and 1 <= b <= n, "threshold-range"
        assert all(e.codim <= b for e in entries), "codimension-order"
        # A misses every entry's members, so complete_greedily can walk
        # A itself
        assert not any(A & e.mask for e in entries), "active-overlap"
        assert all((m & A).bit_count() <= cap for m in H.blue), "active-degree"
        # the entries' subcubes are disjoint (clause c), so they cover
        # the cube exactly when their sizes sum to 2^n
        assert sum(1 << (n - e.codim) for e in entries) < 1 << n, "cube-covered"
        step = extend_or_clean(H, entries, A, a, b, n, gamma)
        if isinstance(step, Extended):
            ok, clause, detail = check_partial_assignment(
                H, entries + [step.entry], gamma, n
            )
            assert ok, (clause, detail)
        return step

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dense_embedding, "extend_or_clean", checked)
        for run in (
            lambda: solve(G, n, params),
            lambda: dense_embed(G, n, params.gamma, params.schedule),
        ):
            try:
                run()
            except (HypothesisError, StageFailure):
                pass


def test_threshold_schedule_validation():
    with pytest.raises(ValueError):
        ThresholdSchedule((2,))
    with pytest.raises(ValueError):
        ThresholdSchedule((3, 2))
    with pytest.raises(ValueError):
        ThresholdSchedule((0, 1))


def test_dense_embed_all_red():
    for n, sched in ((2, (1, 1)), (3, (1, 1, 2)), (4, (1, 1, 2))):
        G = all_red_graph(2 << n)
        phi = dense_embed(G, n, Fraction(1, 4), ThresholdSchedule(sched))
        assert verify_red_embedding(G, n, phi).ok


def test_dense_embed_hypothesis_errors():
    sched = ThresholdSchedule((1, 1, 2))
    with pytest.raises(HypothesisError) as e:
        dense_embed(all_red_graph(4), 3, Fraction(1, 4), sched)
    assert e.value.hypothesis == "order"
    with pytest.raises(HypothesisError) as e:
        dense_embed(all_red_graph(16), 2, Fraction(1, 4), sched)
    assert e.value.hypothesis == "schedule-depth"
    hub = ColouredGraph.from_blue_edges(16, [(0, v) for v in range(1, 4)])
    with pytest.raises(HypothesisError) as e:
        dense_embed(hub, 2, Fraction(1, 4), ThresholdSchedule((1, 1)))
    assert e.value.hypothesis == "max-degree"
    tri = ColouredGraph.from_blue_edges(32, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(HypothesisError) as e:
        dense_embed(tri, 3, Fraction(1, 4), ThresholdSchedule((2, 2)))
    assert e.value.hypothesis == "triangle-free"


def test_dense_embed_sparse_random_hosts():
    rng = random.Random(13)
    for n in (4, 5, 6):
        N = 2 << n
        G = random_triangle_free_greedy(N, N // 8, rng)
        sched = ThresholdSchedule((2, 3, min(4, n - 1)))
        cap = 1 << (n - 2)
        if any(m.bit_count() > cap for m in G.blue):
            continue
        phi = dense_embed(G, n, Fraction(1, 4), sched)
        assert verify_red_embedding(G, n, phi).ok


def _completion_case(seed: int, blocking: bool):
    """A host, a partial map of Q_n, a cleaned set A that misses its
    images, and the bandwidth order of the cube vertices left.

    With ``blocking`` the placed images and A are any vertices,
    so placed images block with their blue masks; without it they are
    vertices of blue degree 0, and nothing ever blocks.
    """
    rng = random.Random(f"completion/{seed}/{blocking}")
    n = rng.randrange(2, 7)
    N = rng.randrange(1 << n, 4 << n)
    H = random_triangle_free_greedy(N, rng.randrange(N // 8, 2 * N), rng)
    usable = list(range(N)) if blocking else [v for v in range(N) if not H.blue[v]]
    placed = rng.sample(range(1 << n), rng.randrange(min(1 << n, len(usable)) + 1))
    images = rng.sample(usable, len(placed))
    phi = dict(zip(placed, images))
    A = mask_of(v for v in usable if rng.random() < 0.9) & ~mask_of(images)
    order = bandwidth_order([z for z in range(1 << n) if z not in phi])
    return H, n, phi, A, order


def _completion(complete, case):
    H, n, phi, A, order = case
    try:
        return complete(H, n, dict(phi), A, list(order))
    except StageFailure as e:
        return e.stage, str(e), e.data


@pytest.mark.parametrize("blocking", [True, False])
def test_complete_greedily_matches_mask_clearing_loop(blocking):
    outcomes = set()
    for seed in range(60):
        case = _completion_case(seed, blocking)
        got = _completion(complete_greedily, case)
        assert got == _completion(reference_complete_greedily, case)
        outcomes.add(type(got))
    # some maps are completed, and on other hosts A runs dry
    assert outcomes == {dict, tuple}


def test_greedy_completion_failure_payload():
    # a dense greedy host (8 blue edges per vertex) at the smallest order
    # solve admits runs the dense route out of pool vertices
    G = random_triangle_free_greedy(320, 2560, random.Random("gc/7/320/16/0"))
    with pytest.raises(StageFailure) as e:
        solve(G, 7, SolverParams.desk(7))
    assert e.value.stage == "greedy-completion"
    assert e.value.details == "no red-compatible vertex left for cube vertex 99"
    assert e.value.data == {"cube_vertex": 99, "slack": -11, "passes": 2, "extensions": 10}
    assert list(e.value.data) == ["cube_vertex", "slack", "passes", "extensions"]
