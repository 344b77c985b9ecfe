import random
from array import array
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_iter_bits, reference_lowest_bits, reference_mask_of
from cuberamsey.bits import bits_list, counted_bits, iter_bits, lowest_bits, mask_of

masks = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=(1 << 20000) - 1),
    st.lists(st.integers(0, 19999), max_size=60).map(mask_of),
)


@st.composite
def wide_masks(draw):
    """Masks of up to 70,000 bits on both sides of the per-bit limit of
    ``iter_bits`` (2**20 / bit_length peels, so 14 bits of a 70,000-bit
    mask, before the scan): zero, a single top bit, random masks of
    density 1/2 down to 1/128, and up to 40 scattered bits."""
    kind = draw(st.sampled_from(["zero", "top", "dense", "scattered"]))
    N = draw(st.integers(1, 70000))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "zero":
        return 0
    if kind == "top":
        return 1 << (N - 1)
    if kind == "dense":
        mask = rng.getrandbits(N)
        for _ in range(draw(st.integers(0, 6))):
            mask &= rng.getrandbits(N)
        return mask
    return reference_mask_of(rng.sample(range(N), min(N, draw(st.integers(1, 40)))))


@given(masks, st.integers(-3, 25000))
def test_lowest_bits_matches_per_bit_loop(mask, k):
    assert lowest_bits(mask, k) == reference_lowest_bits(mask, k)


@given(masks, st.integers(0, 3))
def test_lowest_bits_at_the_ends(mask, extra):
    # k <= 0 takes nothing; k >= popcount takes the whole mask
    count = mask.bit_count()
    assert lowest_bits(mask, -extra) == reference_lowest_bits(mask, -extra) == 0
    assert lowest_bits(mask, count + extra) == reference_lowest_bits(mask, count + extra) == mask


@given(st.sets(st.integers(0, 19999)))
def test_mask_of_bits_list_round_trip(vertices):
    mask = mask_of(vertices)
    assert bits_list(mask) == sorted(vertices)
    assert mask_of(bits_list(mask)) == mask


@settings(max_examples=60, deadline=None)
@given(wide_masks(), st.randoms(use_true_random=False))
def test_wide_masks_match_per_bit_loops(mask, rng):
    want = list(reference_iter_bits(mask))
    assert list(iter_bits(mask)) == want
    assert bits_list(mask) == want
    # unsorted, with repeats, as a list, a tuple and a generator
    vertices = want + rng.sample(want, min(len(want), 5))
    rng.shuffle(vertices)
    assert mask_of(vertices) == mask
    assert mask_of(tuple(vertices)) == mask
    assert mask_of(v for v in vertices) == mask


@pytest.mark.parametrize(
    "mask",
    [
        0,
        (1 << 9) - 1,
        1 << 69999,
        sum(1 << v for v in (3, 17, 40000, 65000, 65535)),
        random.Random(0).getrandbits(65536),
    ],
    ids=["zero", "9-bit", "top-bit", "5-of-65536", "half-of-65536"],
)
def test_both_sides_of_per_bit_limit(mask):
    assert bits_list(mask) == list(reference_iter_bits(mask))
    assert counted_bits(mask, mask.bit_count()) == bits_list(mask)
    assert mask_of(bits_list(mask)) == mask


@settings(max_examples=60, deadline=None)
@given(wide_masks())
def test_counted_bits_matches_bits_list(mask):
    # read from the top up to k * N = 2**20, as bits_list beyond
    assert counted_bits(mask, mask.bit_count()) == bits_list(mask)


def _mask_with(N, k, rng):
    """A mask of bit length N with k set bits, the top one among them."""
    return reference_mask_of([N - 1] + rng.sample(range(N - 1), k - 1))


@pytest.mark.parametrize("N", [2048, 65536])
@pytest.mark.parametrize("density", [2, 16], ids=["compress", "rfind"])
def test_iter_bits_prefixes_across_peels_and_scan(N, density):
    # iter_bits peels 2**20 // N bits before its scan; a consumer that stops
    # early reads a prefix ending before, at or after that boundary
    cap = (1 << 20) // N
    mask = _mask_with(N, N // density, random.Random(N + density))
    want = list(reference_iter_bits(mask))
    for k in (0, 1, cap - 1, cap, cap + 1, cap + 50, len(want) - 1, len(want)):
        assert list(islice(iter_bits(mask), k)) == want[:k]


@pytest.mark.parametrize("N", [2048, 4097, 65536])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_at_the_compress_density(N, offset):
    # bits_list switches at k * 8 >= N set bits; iter_bits at the same
    # density of what is left after its peels
    rng = random.Random(N * 3 + offset)
    for k in (-(-N // 8) + offset, -(-N // 8) + (1 << 20) // N + offset):
        mask = _mask_with(N, k, rng)
        want = list(reference_iter_bits(mask))
        assert bits_list(mask) == want
        assert list(iter_bits(mask)) == want
        # bin() of a negative mask reads "-0b...", whose "-" and "b" would
        # pass for set bits
        with pytest.raises(ValueError):
            bits_list(-mask)


def test_mask_of_array_slices_and_repeats():
    # blue_at_least masks a slice of an array('i'); a long list with
    # repeats, in any order, takes the one-byte-per-vertex path
    rng = random.Random(11)
    order = array("i", rng.sample(range(70000), 30000))
    for cut in (0, 1, 35, 5000, 30000):
        assert mask_of(order[:cut]) == reference_mask_of(order[:cut])
    vertices = rng.choices(range(65536), k=40000) + [65535, 0, 65535]
    rng.shuffle(vertices)
    assert mask_of(vertices) == reference_mask_of(vertices)
    assert mask_of(array("i", vertices)) == reference_mask_of(vertices)


def test_iter_bits_rejects_negative_mask():
    # a peel of -1 never ends, and a bin() scan would read "-0b1"
    with pytest.raises(ValueError):
        list(islice(iter_bits(-1), 5))
    with pytest.raises(ValueError):
        bits_list(-(1 << 70000))


def test_mask_of_rejects_negative_vertex():
    # a bytearray index of -1 would set the top byte instead
    with pytest.raises(ValueError):
        mask_of([3, -1])
    with pytest.raises(ValueError):
        mask_of(list(range(0, 70000, 3)) + [-1])
