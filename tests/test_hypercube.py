import random
from math import comb

import pytest
from hypothesis import given, strategies as st

from helpers import reference_partition_complement
from cuberamsey.hypercube import (
    InitialSubcube,
    bandwidth_bound,
    bandwidth_order,
    complement_cells,
    partition_complement,
    subcube_distance,
    subcube_vertices,
)


def brute_subcube_vertices(prefix, n):
    out = []
    for v in range(1 << n):
        if all((v >> i) & 1 == b for i, b in enumerate(prefix)):
            out.append(v)
    return out


def test_subcube_basics():
    x = InitialSubcube((0, 1))
    assert x.codim == 2
    assert subcube_vertices(x, 2) == [0b10]
    assert len(subcube_vertices(x, 4)) == 4
    assert 0b0110 in subcube_vertices(x, 4)
    assert 0b0100 not in subcube_vertices(x, 4)
    assert len(subcube_vertices(InitialSubcube(()), 3)) == 8


def test_subcube_rejects_bad_prefix():
    with pytest.raises(ValueError):
        InitialSubcube((0, 2))
    with pytest.raises(ValueError):
        subcube_vertices(InitialSubcube((1,)), 0)


def test_subcube_vertices_match_brute_force():
    rng = random.Random(11)
    for n in range(1, 7):
        for _ in range(20):
            d = rng.randrange(0, n + 1)
            prefix = tuple(rng.randrange(2) for _ in range(d))
            x = InitialSubcube(prefix)
            assert subcube_vertices(x, n) == brute_subcube_vertices(prefix, n)


def test_subcube_distance_cases():
    whole = InitialSubcube(())
    a = InitialSubcube((0,))
    b = InitialSubcube((1,))
    ab = InitialSubcube((0, 1))
    assert subcube_distance(whole, a) == 0
    assert subcube_distance(a, ab) == 0
    assert subcube_distance(a, b) == 1
    assert subcube_distance(ab, InitialSubcube((1, 0))) == 2


def test_subcube_distance_meaning_on_vertices():
    # distance 0: shared vertices; 1: disjoint but cube edges run between;
    # >= 2: no edge between the vertex sets
    n = 5
    rng = random.Random(5)
    for _ in range(60):
        x = InitialSubcube(tuple(rng.randrange(2) for _ in range(rng.randrange(1, n))))
        z = InitialSubcube(tuple(rng.randrange(2) for _ in range(rng.randrange(1, n))))
        vx = set(subcube_vertices(x, n))
        vz = set(subcube_vertices(z, n))
        d = subcube_distance(x, z)
        if d == 0:
            assert vx & vz
        else:
            assert not (vx & vz)
            edges = any(
                bin(u ^ v).count("1") == 1 for u in vx for v in vz
            )
            assert edges == (d == 1)


def test_partition_complement_is_a_partition():
    rng = random.Random(23)
    for n in range(2, 7):
        for _ in range(25):
            b = rng.randrange(1, n + 1)
            # random disjoint family of codimension <= b
            members = []
            taken = set()
            for _ in range(rng.randrange(0, 4)):
                d = rng.randrange(1, b + 1)
                prefix = tuple(rng.randrange(2) for _ in range(d))
                cand = InitialSubcube(prefix)
                vs = set(subcube_vertices(cand, n))
                if vs & taken:
                    continue
                members.append(cand)
                taken |= vs
            cells = partition_complement(members, n, b)
            assert all(c.codim == b for c in cells)
            covered = set()
            for c in cells:
                vs = set(subcube_vertices(c, n))
                assert not (vs & covered), "cells overlap"
                assert not (vs & taken), "cell meets the family"
                covered |= vs
            assert covered | taken == set(range(1 << n))
            # ascending prefix order
            assert [c.prefix for c in cells] == sorted(c.prefix for c in cells)


def test_partition_complement_full_split():
    cells = partition_complement([], 4, 2)
    assert [c.prefix for c in cells] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_partition_complement_of_overlapping_members():
    # a prefix inside any member is dropped, so (0, 1) inside (0,) adds
    # nothing to the covered half
    members = [InitialSubcube((0, 1)), InitialSubcube((0,))]
    cells = partition_complement(members, 3, 2)
    assert [c.prefix for c in cells] == [(1, 0), (1, 1)]


def test_partition_complement_rejects_too_deep_member():
    with pytest.raises(ValueError):
        partition_complement([InitialSubcube((0, 0, 0))], 4, 2)


@st.composite
def disjoint_families(draw):
    """(n, b, members): disjoint initial subcubes of codimension at most b,
    drawn as leaves of a random split of Q_n that a drawn share keeps."""
    n = draw(st.integers(0, 7))
    b = draw(st.integers(0, n))
    leaves = []

    def split(prefix):
        if len(prefix) < b and draw(st.booleans()):
            split(prefix + (0,))
            split(prefix + (1,))
        else:
            leaves.append(InitialSubcube(prefix))

    split(())
    keep = draw(st.sampled_from(["none", "all", "some", "deepest"]))
    if keep == "none":
        members = []
    elif keep == "all":
        members = leaves
    elif keep == "deepest":
        members = [x for x in leaves if x.codim == b]
    else:
        members = [x for x in leaves if draw(st.booleans())]
    return n, b, draw(st.permutations(members))


@given(disjoint_families())
def test_complement_cells_match_the_recursive_walk(case):
    n, b, members = case
    want = reference_partition_complement(members, b)
    assert list(complement_cells(members, n, b)) == want
    assert partition_complement(members, n, b) == want
    # the first cell, as the assignment loop reads it
    assert next(complement_cells(members, n, b), None) == (want[0] if want else None)


def test_complement_cells_full_cover_and_bad_input():
    cover = [InitialSubcube((0,)), InitialSubcube((1, 0)), InitialSubcube((1, 1))]
    assert next(complement_cells(cover, 3, 2), None) is None
    # a bad member or codimension fails at the call, before any cell
    with pytest.raises(ValueError):
        complement_cells([InitialSubcube((0, 0, 0))], 4, 2)
    with pytest.raises(ValueError):
        complement_cells([], 3, 4)


def test_bandwidth_order_ties_by_word():
    order = bandwidth_order(range(8))
    assert order == [0, 1, 2, 4, 3, 5, 6, 7]


@given(
    st.integers(1, 14).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=300)
        )
    )
)
def test_bandwidth_order_matches_one_sort_by_weight_and_word(case):
    # two stable sorts, by word and then by weight, give the one sort by
    # (weight, word), whatever the input order
    n, vs = case
    assert bandwidth_order(vs) == sorted(vs, key=lambda v: (v.bit_count(), v))
    assert bandwidth_order(iter(vs)) == bandwidth_order(vs)


def test_bandwidth_bound_small_dimensions():
    # every cube edge joins vertices at most 2*C(n, n//2) apart in the order
    for n in range(1, 9):
        order = bandwidth_order(range(1 << n))
        pos = {v: i for i, v in enumerate(order)}
        worst = 0
        for v in range(1 << n):
            for p in range(n):
                w = v ^ (1 << p)
                worst = max(worst, abs(pos[v] - pos[w]))
        assert worst <= bandwidth_bound(n) == 2 * comb(n, n // 2)
