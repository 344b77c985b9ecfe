"""One test per acceptance criterion, each printing a PASS/FAIL line.

Run with -s (or read captured output) to see the lines.  Budgeted
criteria measure wall time with time.monotonic and fail on overrun.
"""

import random
import time
from fractions import Fraction
from math import ceil, comb

from helpers import (
    all_red_graph,
    check_partial_assignment,
    gap_consequence_holds,
    random_valid_partial_assignment,
    reference_verify_errors,
    two_clique_linked_graph,
    two_clique_linked_shuffled,
)
from cuberamsey.colored_graph import (
    ColouredGraph,
    is_blue_triangle_free,
    lower_bound_coloring,
    random_bipartite_blue,
    random_triangle_free_greedy,
    red_components,
    verify_red_embedding,
)
from cuberamsey.decomposition import DecompositionParams, decompose, verify_decomposition
from cuberamsey.dense_embedding import (
    Cleaned,
    Extended,
    embed_partial_assignment,
    extend_or_clean,
)
from cuberamsey.errors import CubeRamseyError, HypothesisError, StageFailure
from cuberamsey.hypercube import (
    InitialSubcube,
    bandwidth_bound,
    bandwidth_order,
    subcube_vertices,
)
from cuberamsey.oracle import contains_red_cube, exhaustive_ramsey
from cuberamsey.snake_embedding import LinkWitness, Snake, snake_embed, validate_snake
from cuberamsey.solver import SolverParams, solve


def _report(k: int, ok: bool, detail: str):
    print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_1_small_ramsey_values():
    problems = []
    t0 = time.monotonic()
    if not exhaustive_ramsey(1, 3).holds:
        problems.append("K_3 colourings missing a blue triangle or red edge")
    w1 = exhaustive_ramsey(1, 2)
    if w1.holds or not is_blue_triangle_free(w1.witness)[0] \
            or contains_red_cube(w1.witness, 1).found:
        problems.append("no valid N=2 witness for n=1")
    t1 = time.monotonic() - t0
    if t1 >= 1.0:
        problems.append(f"n=1 sweep took {t1:.2f}s, budget 1s")

    t0 = time.monotonic()
    v7 = exhaustive_ramsey(2, 7)
    if not (v7.holds and v7.mode == "plain" and v7.checked == 1 << 21):
        problems.append("N=7 plain sweep of 2^21 colourings did not hold")
    w2 = exhaustive_ramsey(2, 6)
    if w2.holds or not is_blue_triangle_free(w2.witness)[0] \
            or contains_red_cube(w2.witness, 2).found:
        problems.append("no valid N=6 witness for n=2")
    t2 = time.monotonic() - t0
    if t2 >= 60.0:
        problems.append(f"n=2 sweep took {t2:.2f}s, budget 60s")
    # both values match 2^(n+1) - 1
    _report(1, not problems,
            problems or f"r(K3,Q1)=3 in {t1:.2f}s, r(K3,Q2)=7 in {t2:.2f}s")


def test_criterion_2_lower_bound_construction():
    problems = []
    t0 = time.monotonic()
    for n in range(1, 15):
        G = lower_bound_coloring(n)
        if G.n_vertices != (1 << (n + 1)) - 2:
            problems.append(f"n={n}: order {G.n_vertices}")
        if not is_blue_triangle_free(G)[0]:
            problems.append(f"n={n}: blue triangle")
        comps = red_components(G)
        sizes = sorted(c.bit_count() for c in comps)
        if sizes != [(1 << n) - 1, (1 << n) - 1] or any(s >= 1 << n for s in sizes):
            problems.append(f"n={n}: red component sizes {sizes}")
    dt = time.monotonic() - t0
    if dt >= 30.0:
        problems.append(f"took {dt:.2f}s, budget 30s")
    _report(2, not problems,
            problems or f"n=1..14 triangle free, red components 2^n-1, {dt:.2f}s")


def test_criterion_3_tight_snake_at_n10():
    problems = []
    t0 = time.monotonic()
    n, m, s = 10, 512, 504
    assert s == 2 * comb(10, 5)
    G = two_clique_linked_graph(n, m=m)
    snake = Snake(
        cliques=(tuple(range(m)), tuple(range(m, 2 * m))),
        witnesses=(LinkWitness(0, 1, tuple(range(s)),
                               tuple(range(m, m + s))),),
        s=s,
    )
    if not validate_snake(G, snake).ok:
        problems.append("snake structure invalid")
    phi = snake_embed(G, snake, range(1 << n), n)
    if sorted(phi) != list(range(1 << n)):
        problems.append("not all of Q_10 embedded")
    if not verify_red_embedding(G, n, phi).ok:
        problems.append("embedding failed verification")
    dt = time.monotonic() - t0
    if dt >= 10.0:
        problems.append(f"took {dt:.2f}s, budget 10s")
    _report(3, not problems,
            problems or f"Q_10 into two 512-cliques over K_504,504 in {dt:.2f}s")


def test_criterion_4_bandwidth_bound():
    problems = []
    t0 = time.monotonic()
    for n in range(1, 13):
        order = bandwidth_order(range(1 << n))
        pos = {z: i for i, z in enumerate(order)}
        gap = max(
            abs(pos[z] - pos[z ^ (1 << p)])
            for z in range(1 << n)
            for p in range(n)
            if z < z ^ (1 << p)
        )
        if gap > bandwidth_bound(n):
            problems.append(f"n={n}: gap {gap} > {bandwidth_bound(n)}")
    dt = time.monotonic() - t0
    if dt >= 10.0:
        problems.append(f"took {dt:.2f}s, budget 10s")
    _report(4, not problems,
            problems or f"edge gaps within 2*C(n,n//2) for n=1..12, {dt:.2f}s")


def test_criterion_5_partial_assignment_embedding():
    problems = []
    rng = random.Random(20240515)
    gammas = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2))
    successes = 0
    for i in range(100):
        n = 4 + i % 5
        gamma = gammas[i % 3]
        G, entries = random_valid_partial_assignment(n, gamma, rng)
        ok, clause, detail = check_partial_assignment(G, entries, gamma, n)
        if not ok:
            problems.append(f"instance {i}: generator broke clause {clause}")
            continue
        try:
            phi = embed_partial_assignment(G, entries, n)
        except CubeRamseyError as e:
            problems.append(f"instance {i}: {e}")
            continue
        covered = [z for e in entries for z in subcube_vertices(e.subcube, n)]
        if reference_verify_errors(G, n, phi, covered):
            problems.append(f"instance {i}: verifier rejected the output")
            continue
        successes += 1
    _report(5, successes == 100 and not problems,
            problems[:3] or f"100/100 assignments embedded and verified "
            f"(n in 4..8, gamma in {{1/10, 1/4, 1/2}})")


def test_criterion_6_dichotomy():
    problems = []
    rng = random.Random(64)
    extended = cleaned = 0
    for i in range(100):
        n = rng.randrange(3, 6)
        b = rng.randrange(1, n)
        a = rng.randrange(1, b + 1)
        g = rng.choice([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)])
        N = rng.randrange(3 << n, 5 << n)
        if rng.random() < 0.5:
            star = 1 << (n - b + 1)
            G = ColouredGraph.from_blue_edges(
                N, [(0, v) for v in range(1, 1 + star)]
            )
        else:
            G = random_triangle_free_greedy(N, N // 8, rng)
        A = (1 << N) - 1
        # with no entries the first free cell is the all-zero prefix
        y = InitialSubcube((0,) * b)
        step = extend_or_clean(G, [], A, a, y, n, g, G.blue_at_least(1 << (n - b + 1)))
        if isinstance(step, Extended):
            extended += 1
            ok, clause, _ = check_partial_assignment(G, [step.entry], g, n)
            if not ok:
                problems.append(f"instance {i}: extension broke clause {clause}")
        elif isinstance(step, Cleaned):
            cleaned += 1
            need = 1 << (n - b + 1)
            if any((G.blue[u] & step.mask).bit_count() >= need for u in range(N)):
                problems.append(f"instance {i}: cleaned set keeps a heavy star")
            allowance = Fraction(b * b, g) * (1 << (n - a + 1))
            if A.bit_count() - step.mask.bit_count() > allowance:
                problems.append(f"instance {i}: cleaned set too small")
        else:
            problems.append(f"instance {i}: unknown outcome {type(step)}")
    if extended < 5 or cleaned < 5:
        problems.append(f"lopsided branches: {extended} extended, {cleaned} cleaned")
    _report(6, not problems,
            problems[:3] or f"100 instances: {extended} extended pass the "
            f"checker, {cleaned} cleaned meet degree and size bounds")


def test_criterion_7_decomposition_certificates():
    problems = []
    rng = random.Random(7)
    sizes = (256, 1024, 4096)
    audited_rounds = 0
    built = 0
    for i in range(50):
        N = sizes[i % 3]
        kind = i % 3
        if kind == 0:
            n = N.bit_length() - 3
            G = random_bipartite_blue(N, 1.0, rng)
        elif kind == 1:
            n = N.bit_length() - 2
            G = random_bipartite_blue(N, 0.05, rng)
        else:
            n = N.bit_length() - 3
            G = random_triangle_free_greedy(N, N // 8, rng)
        built += 1
        try:
            dec = decompose(G, DecompositionParams.desk(n))
        except CubeRamseyError as e:
            problems.append(f"instance {i}: decompose failed: {e}")
            continue
        if len(dec.rounds) > N:
            problems.append(f"instance {i}: {len(dec.rounds)} rounds > {N}")
        if not verify_decomposition(G, dec).ok:
            problems.append(f"instance {i}: certificate rejected")
        if not gap_consequence_holds(G, dec):
            problems.append(f"instance {i}: gap consequence violated")
        audited_rounds += sum(
            1 for rec in dec.rounds
            if len(rec.snake_indices) < len(rec.cliques)
        )
    if audited_rounds == 0:
        problems.append("no round ever had an out-of-snake clique to audit")
    _report(7, built == 50 and not problems,
            problems[:3] or f"50 instances (both models, N up to 4096) "
            f"verified; {audited_rounds} rounds audited non-vacuously")


def test_criterion_8_end_to_end_families():
    problems = []
    results = {"all-red": [0, 0], "two-clique": [0, 0], "sparse": [0, 0]}

    def attempt(family, G, n):
        params = SolverParams.desk(n)
        results[family][1] += 1
        try:
            phi = solve(G, n, params)
        except (HypothesisError, StageFailure) as e:
            tag = e.hypothesis if isinstance(e, HypothesisError) else e.stage
            if not tag:
                problems.append(f"{family} n={n}: failure without a diagnosis")
            return
        if verify_red_embedding(G, n, phi).ok:
            results[family][0] += 1
        else:
            problems.append(f"{family} n={n}: reported success fails verification")

    for n in range(6, 11):
        need = ceil(Fraction(5, 4) * (1 << (n + 1)))
        for seed in range(2):
            attempt("all-red", all_red_graph(need + seed * (1 << n)), n)
        for seed in range(2):
            G = two_clique_linked_shuffled(n, random.Random(1000 * n + seed))
            attempt("two-clique", G, n)
        for seed in range(6):
            rng = random.Random(2000 * n + seed)
            N = 1 << (n + 2)
            G = random_triangle_free_greedy(N, N // 8, rng)
            cap = 1 << (n - SolverParams.desk(n).schedule.b[0])
            assert max(m.bit_count() for m in G.blue) <= cap
            attempt("sparse", G, n)

    ar, tc, sp = results["all-red"], results["two-clique"], results["sparse"]
    if ar[0] != ar[1]:
        problems.append(f"all-red {ar[0]}/{ar[1]} below 100%")
    if tc[0] != tc[1]:
        problems.append(f"two-clique {tc[0]}/{tc[1]} below 100%")
    if 10 * sp[0] < 9 * sp[1]:
        problems.append(f"sparse {sp[0]}/{sp[1]} below 90%")
    _report(8, not problems,
            problems[:3] or f"all-red {ar[0]}/{ar[1]}, two-clique "
            f"{tc[0]}/{tc[1]}, sparse {sp[0]}/{sp[1]} across n=6..10")


def test_criterion_9_oracle_cross_validation():
    problems = []
    rng = random.Random(404)
    instances = []
    for i in range(10):
        n = 2 + i % 3
        instances.append((all_red_graph(40 + 2 * i), n))
    for i in range(10):
        n = 2 + i % 3
        instances.append((lower_bound_coloring(n + 1), n))
    for i in range(15):
        n = 2 + i % 2
        N = 40 + (i * 3) % 25
        instances.append((random_triangle_free_greedy(N, N // 6, rng), n))
    for i in range(15):
        n = 2 + i % 2
        N = 40 + (i * 3) % 25
        instances.append((random_bipartite_blue(N, 0.3, rng), n))
    assert len(instances) == 50

    checked = agreements = solved = 0
    for idx, (G, n) in enumerate(instances):
        assert G.n_vertices <= 64 and n <= 4
        try:
            phi = solve(G, n, SolverParams.desk(n))
            succeeded = verify_red_embedding(G, n, phi).ok
        except CubeRamseyError:
            succeeded = False
        oracle_found = contains_red_cube(G, n).found
        checked += 1
        if succeeded:
            solved += 1
            if oracle_found:
                agreements += 1
            else:
                problems.append(f"instance {idx}: solve found a cube the "
                                f"oracle says is absent")
        else:
            agreements += 1
    if solved == 0:
        problems.append("no instance was solved, the implication is vacuous")
    _report(9, checked == 50 and not problems,
            problems[:3] or f"50 instances, {solved} solves, all confirmed "
            f"by the exhaustive oracle")
