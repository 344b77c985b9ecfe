import random
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings, strategies as st

import cuberamsey.dense_embedding as dense_embedding
import cuberamsey.solver as solver
from helpers import (
    all_red_graph,
    check_partial_assignment,
    random_valid_partial_assignment,
    reference_complete_greedily,
    reference_dense_embed,
    reference_embed_partial_assignment,
    reference_verify_errors,
)
from cuberamsey.bits import bit, bits_list, iter_bits, mask_of
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
    complement_cells,
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

    def spy(H, entries, A, a, y, n, gamma, centres):
        seen.append(gamma)
        return extend_or_clean(H, entries, A, a, y, n, gamma, centres)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dense_embedding, "extend_or_clean", spy)
        G = all_red_graph(16)
        dense_embed(G, G.full_mask, 2, 0.25, ThresholdSchedule((1, 1)))
    assert seen and all(type(g) is Fraction and g == Fraction(1, 4) for g in seen)


@pytest.mark.parametrize("gamma", [0, 1])
def test_dense_embed_refuses_gamma_before_its_hypotheses(gamma):
    # a one-vertex host under a schedule deeper than n fails every
    # hypothesis, yet the gamma refusal comes first
    G = all_red_graph(1)
    with pytest.raises(ValueError) as e:
        dense_embed(G, G.full_mask, 2, gamma, ThresholdSchedule((2, 3)))
    assert str(e.value) == f"gamma must lie in (0, 1), got {gamma}"


def _single_entry(G, codim, members):
    return [AssignmentEntry.on(G, InitialSubcube((0,) * codim), members)]


def _first_step(G, entries, A, a, b, n, g):
    """``extend_or_clean`` at the first free cell of codimension b, with
    the centres of that codimension, as ``dense_embed``'s pass gives
    them."""
    y = next(complement_cells([e.subcube for e in entries], n, b))
    return extend_or_clean(G, entries, A, a, y, n, g, G.blue_at_least(1 << (n - b + 1)))


def test_check_clause_a_sizes_and_order():
    g = Fraction(1, 4)
    G = all_red_graph(64)
    want = candidate_set_size(g, 4, 1)  # 10
    ok, clause, _ = check_partial_assignment(G, _single_entry(G, 1, range(want)), g, 4)
    assert ok
    ok, clause, _ = check_partial_assignment(
        G, _single_entry(G, 1, range(want - 1)), g, 4
    )
    assert (ok, clause) == (False, "a")
    # decreasing codimension
    e1 = AssignmentEntry.on(G, InitialSubcube((0, 0)), range(candidate_set_size(g, 4, 2)))
    e2 = AssignmentEntry.on(
        G, InitialSubcube((1,)), range(20, 20 + candidate_set_size(g, 4, 1))
    )
    ok, clause, _ = check_partial_assignment(G, [e1, e2], g, 4)
    assert (ok, clause) == (False, "a")


def test_check_clause_b_red_clique_and_disjointness():
    g = Fraction(1, 4)
    n = 4
    want = candidate_set_size(g, n, 1)
    G = ColouredGraph.from_blue_edges(32, [(0, 1)])
    ok, clause, _ = check_partial_assignment(G, _single_entry(G, 1, range(want)), g, n)
    assert (ok, clause) == (False, "b")
    # shared vertices between entries
    H = all_red_graph(32)
    w2 = candidate_set_size(g, n, 2)
    e1 = AssignmentEntry.on(H, InitialSubcube((0, 0)), range(w2))
    e2 = AssignmentEntry.on(H, InitialSubcube((1, 1)), range(w2))
    ok, clause, _ = check_partial_assignment(H, [e1, e2], g, n)
    assert (ok, clause) == (False, "b")


def test_check_clause_c_overlapping_subcubes():
    g = Fraction(1, 4)
    n = 4
    w1 = candidate_set_size(g, n, 1)
    w2 = candidate_set_size(g, n, 2)
    H = all_red_graph(64)
    e1 = AssignmentEntry.on(H, InitialSubcube((0,)), range(w1))
    e2 = AssignmentEntry.on(H, InitialSubcube((0, 1)), range(w1, w1 + w2))
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
    e1 = AssignmentEntry.on(G, InitialSubcube((0,)), first)
    e2 = AssignmentEntry.on(G, InitialSubcube((1,)), second)
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
    H = all_red_graph(32)
    entries = [AssignmentEntry.on(H, InitialSubcube((0,)), members)]
    with pytest.raises(ValueError):
        embed_partial_assignment(H, entries, n)


def test_cleaning_threshold_is_inclusive():
    # gamma = 1/4, n = 4, an entry of codimension 1 next to the cell y:
    # the threshold is gamma * 2^3 / 1 = 2 blue neighbours in the entry,
    # so a vertex with exactly 2 is removed and one with 1 stays
    n, g = 4, Fraction(1, 4)
    size = candidate_set_size(g, n, 1)
    two, one = size, size + 1
    H = ColouredGraph.from_blue_edges(size + 2, [(0, two), (1, two), (2, one)])
    entry = AssignmentEntry.on(H, InitialSubcube((0,)), range(size))
    step = _first_step(H, [entry], mask_of([two, one]), 1, 1, n, g)
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
        step = _first_step(G, [], A, a, b, n, g)
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
    pools = []

    def pooled(G, pool, *args):
        pools.append(pool)
        return dense_embed(G, pool, *args)

    def checked(H, entries, A, a, y, n, gamma, centres):
        pool = pools[-1]
        cap = 1 << (n - a)
        b = y.codim
        assert 1 <= a and 1 <= b <= n, "threshold-range"
        assert all(e.codim <= b for e in entries), "codimension-order"
        # the pass's walk hands over the first free cell, and its centres
        # are the pool's vertices that can hold a candidate set at
        # codimension b, read off their blue degrees in the host
        assert y == next(complement_cells([e.subcube for e in entries], n, b)), "free-cell"
        assert centres == H.blue_at_least(1 << (n - b + 1)) & pool, "centres"
        # each entry's reach was built from its members when it was made
        assert all(e.reach == mask_of(w for u in e.members for w in bits_list(H.blue[u]))
                   for e in entries), "reach"
        # A lies in the pool and misses every entry's members, so
        # complete_greedily can walk A itself
        assert A & ~pool == 0, "active-pool"
        assert not any(A & e.mask for e in entries), "active-overlap"
        assert all((H.blue[v] & A).bit_count() <= cap for v in iter_bits(pool)), "active-degree"
        # the entries' subcubes are disjoint (clause c), so they cover
        # the cube exactly when their sizes sum to 2^n
        assert sum(1 << (n - e.codim) for e in entries) < 1 << n, "cube-covered"
        step = extend_or_clean(H, entries, A, a, y, n, gamma, centres)
        if isinstance(step, Extended):
            ok, clause, detail = check_partial_assignment(
                H, entries + [step.entry], gamma, n
            )
            assert ok, (clause, detail)
        return step

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dense_embedding, "extend_or_clean", checked)
        mp.setattr(solver, "dense_embed", pooled)
        for run in (
            lambda: solve(G, n, params),
            lambda: pooled(G, G.full_mask, n, params.gamma, params.schedule),
        ):
            try:
                run()
            except (HypothesisError, StageFailure):
                pass


def _dense_outcome(embed, H, n, params):
    try:
        return sorted(embed(H, n, params.gamma, params.schedule).items())
    except (HypothesisError, StageFailure) as e:
        return type(e).__name__, str(e), getattr(e, "data", None), getattr(e, "witness", None)


def _on_host(G, n, gamma, schedule):
    return dense_embed(G, G.full_mask, n, gamma, schedule)


def _dense_host(n, kind, rng):
    """A greedy or bipartite host at the order ``solve`` needs for n,
    1.25 * 2^(n+1)."""
    N = 5 << (n - 1)
    if kind == "greedy":
        return random_triangle_free_greedy(N, rng.randrange(N // 8, 3 * N), rng)
    return random_bipartite_blue(N, rng.choice([0.02, 0.05, 0.1, 0.2]), rng)


def _same_as_reference(G, n):
    """``dense_embed`` and ``reference_dense_embed`` agree on G and on the
    copy of the pool that ``solve`` hands the dense route; returns the
    extensions made on the latter, or None where ``solve`` took the
    other route."""
    params = SolverParams.desk(n)
    assert _dense_outcome(_on_host, G, n, params) == _dense_outcome(
        reference_dense_embed, G, n, params
    )
    extensions = []

    def compare(G, pool, n, gamma, schedule):
        H, _ = G.induced(bits_list(pool))
        steps = []

        def count(*args):
            step = extend_or_clean(*args)
            steps.append(isinstance(step, Extended))
            return step

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dense_embedding, "extend_or_clean", count)
            got = _dense_outcome(_on_host, H, n, params)
        assert got == _dense_outcome(reference_dense_embed, H, n, params)
        extensions.append(sum(steps))
        return dense_embed(G, pool, n, gamma, schedule)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "dense_embed", compare)
        try:
            solve(G, n, params)
        except (HypothesisError, StageFailure):
            pass
    return extensions[0] if extensions else None


def _labelled_outcome(run, label):
    """The map of ``run()``, or its failure's kind, tag, message, witness
    and data, with every host vertex named through ``label``."""
    try:
        return sorted((z, label(v)) for z, v in run().items())
    except HypothesisError as e:
        details, witness = e.details, e.witness
        if e.hypothesis == "max-degree":
            details = details.replace(f"vertex {witness} ", f"vertex {label(witness)} ", 1)
            witness = label(witness)
        return "hypothesis", e.hypothesis, details, witness
    except StageFailure as e:
        data = dict(e.data)
        if "entry" in data:
            entry = data["entry"]
            data["entry"] = entry.subcube, tuple(map(label, entry.members))
        return "stage", e.stage, e.details, data


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 7),
    kind=st.sampled_from(["greedy", "bipartite"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_embed_on_a_pool_matches_the_copied_pool(n, kind, seed):
    # the dense route works on the host itself: on a pool of G it gives
    # the map, or the failure, that it gives on the pool copied out of G
    # by induced, with the copy's vertices read back through its order.
    # The pools are random ones of at least the order bound, and the one
    # solve hands over, the sparse part C less its high-degree vertices
    rng = random.Random(seed)
    G = _dense_host(n, kind, rng)
    params = SolverParams.desk(n)
    gamma, schedule = params.gamma, params.schedule
    need = ceil((1 + 3 * gamma) * (1 << n))
    pools = [
        mask_of(rng.sample(range(G.n_vertices), rng.randint(need, G.n_vertices)))
        for _ in range(2)
    ]

    def record(G, pool, *args):
        pools.append(pool)
        return dense_embed(G, pool, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "dense_embed", record)
        try:
            solve(G, n, params)
        except (HypothesisError, StageFailure):
            pass
    for pool in pools:
        H, order = G.induced(bits_list(pool))
        assert _labelled_outcome(
            lambda: dense_embed(G, pool, n, gamma, schedule), lambda v: v
        ) == _labelled_outcome(
            lambda: dense_embed(H, H.full_mask, n, gamma, schedule), order.__getitem__
        )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 7),
    kind=st.sampled_from(["greedy", "bipartite"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_embed_matches_the_restarting_loop(n, kind, seed):
    # one cell walk per pass, each reach built once and integer
    # thresholds give the same map, or the same failure with the same
    # data, as the loop that derived them at every step
    _same_as_reference(_dense_host(n, kind, random.Random(seed)), n)


def test_dense_embed_matches_the_restarting_loop_on_extending_hosts():
    # the exact-search workload's kind of host: greedy at 2 blue edges per
    # vertex, and bipartite at p = 0.05; solve's dense route extends on
    # them, over several steps of a pass
    rng = random.Random("extending")
    made = []
    for n in (5, 6, 7):
        N = 5 << (n - 1)
        for G in (
            random_triangle_free_greedy(N, 2 * N, rng),
            random_bipartite_blue(N, 0.05, rng),
        ):
            made.append(_same_as_reference(G, n))
    assert all(k and k > 1 for k in made), made


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
        phi = dense_embed(G, G.full_mask, n, Fraction(1, 4), ThresholdSchedule(sched))
        assert verify_red_embedding(G, n, phi).ok


def test_dense_embed_hypothesis_errors():
    sched = ThresholdSchedule((1, 1, 2))
    with pytest.raises(HypothesisError) as e:
        dense_embed(all_red_graph(4), 0b1111, 3, Fraction(1, 4), sched)
    assert e.value.hypothesis == "order"
    # the order is the pool's: 13 of 16 vertices fall short of 14 at n = 3
    G = all_red_graph(16)
    with pytest.raises(HypothesisError) as e:
        dense_embed(G, G.full_mask >> 3, 3, Fraction(1, 4), ThresholdSchedule((1, 2)))
    assert (e.value.hypothesis, e.value.details) == ("order", "host has 13 vertices, needs 14")
    with pytest.raises(HypothesisError) as e:
        dense_embed(G, G.full_mask, 2, Fraction(1, 4), sched)
    assert e.value.hypothesis == "schedule-depth"
    with pytest.raises(ValueError, match="pool must lie in 0..15"):
        dense_embed(G, 1 << 16, 2, Fraction(1, 4), ThresholdSchedule((1, 1)))
    # blue degrees are read into the pool: vertex 0 has three blue
    # neighbours in G, and two of them, within the cap, without vertex 3
    hub = ColouredGraph.from_blue_edges(16, [(0, v) for v in range(1, 4)])
    with pytest.raises(HypothesisError) as e:
        dense_embed(hub, hub.full_mask, 2, Fraction(1, 4), ThresholdSchedule((1, 1)))
    assert (e.value.hypothesis, e.value.witness) == ("max-degree", 0)
    pool = hub.full_mask & ~bit(3)
    phi = dense_embed(hub, pool, 2, Fraction(1, 4), ThresholdSchedule((1, 1)))
    assert verify_red_embedding(hub, 2, phi).ok
    assert all((pool >> v) & 1 for v in phi.values())
    tri = ColouredGraph.from_blue_edges(32, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(HypothesisError) as e:
        dense_embed(tri, tri.full_mask, 3, Fraction(1, 4), ThresholdSchedule((2, 2)))
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
        phi = dense_embed(G, G.full_mask, n, Fraction(1, 4), sched)
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
