import os
import subprocess
import sys
from pathlib import Path

import pytest

import cuberamsey
from helpers import all_red_graph
from cuberamsey.colored_graph import (
    ColouredGraph,
    is_blue_triangle_free,
    lower_bound_coloring,
    verify_red_embedding,
)
from cuberamsey.oracle import (
    TRIANGLE_FREE_GRAPH_COUNTS,
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


def test_ramsey_number_of_an_edge():
    # r(K_3, Q_1) = 3: K_2 has an all-blue colouring with no blue
    # triangle and no red edge, K_3 does not
    below = exhaustive_ramsey(1, 2)
    assert not below.holds
    w = below.witness
    assert w is not None and is_blue_triangle_free(w)[0]
    assert not contains_red_cube(w, 1).found
    assert exhaustive_ramsey(1, 3).holds


def test_ramsey_number_of_a_square():
    # r(K_3, Q_2) = 7 per the exhaustive sweep at 6 and 7
    below = exhaustive_ramsey(2, 6)
    assert not below.holds
    w = below.witness
    assert is_blue_triangle_free(w)[0]
    assert not contains_red_cube(w, 2).found
    assert exhaustive_ramsey(2, 7).holds


def test_plain_and_canonical_agree():
    for n in (1, 2):
        for N in (2, 3, 4, 5, 6):
            a = exhaustive_ramsey(n, N, mode="plain")
            b = exhaustive_ramsey(n, N, mode="canonical")
            assert a.holds == b.holds, (n, N)
            assert a.mode == "plain" and b.mode == "canonical"
            if not b.holds:
                wb = b.witness
                assert is_blue_triangle_free(wb)[0]
                assert not contains_red_cube(wb, n).found


def test_canonical_counts_match_tabulation():
    for N in range(1, 9):
        got = len(canonical_triangle_free_graphs(N))
        assert got == TRIANGLE_FREE_GRAPH_COUNTS[N - 1]


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


def test_refusals():
    with pytest.raises(ValueError):
        exhaustive_ramsey(2, 8, mode="plain")
    with pytest.raises(ValueError):
        exhaustive_ramsey(2, 10)
    with pytest.raises(ValueError):
        exhaustive_ramsey(0, 3)
    with pytest.raises(ValueError):
        exhaustive_ramsey(2, 0)
    with pytest.raises(ValueError):
        exhaustive_ramsey(2, 5, mode="unheard-of")


def test_verdict_bookkeeping():
    v = exhaustive_ramsey(1, 3, mode="plain")
    assert v.checked == 8 and v.mode == "plain"
    c = exhaustive_ramsey(1, 3, mode="canonical")
    assert c.checked == TRIANGLE_FREE_GRAPH_COUNTS[2]


def test_count_check_survives_optimised_mode():
    # python -O strips assert statements; the tabulated class count must
    # still be enforced, so a wrong table has to stop the canonical sweep
    code = (
        "import cuberamsey.oracle as o\n"
        "if __debug__: raise SystemExit('not optimised')\n"
        "o.TRIANGLE_FREE_GRAPH_COUNTS = (1, 2, 3, 7, 15)\n"
        "try:\n"
        "    o.exhaustive_ramsey(2, 5, 'canonical')\n"
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


def test_package_import_leaves_numpy_out():
    # numpy is only needed by the plain sweep, which imports it itself
    code = (
        "import sys, cuberamsey, cuberamsey.cli, cuberamsey.oracle\n"
        "print('numpy' in sys.modules)\n"
        "from cuberamsey.oracle import exhaustive_ramsey\n"
        "v = exhaustive_ramsey(1, 3, mode='plain')\n"
        "print('numpy' in sys.modules, v.mode)\n"
    )
    src = str(Path(cuberamsey.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "True", "plain"]
