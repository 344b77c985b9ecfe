from hypothesis import given, strategies as st

from helpers import reference_lowest_bits
from cuberamsey.bits import bits_list, lowest_bits, mask_of

masks = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=(1 << 20000) - 1),
    st.lists(st.integers(0, 19999), max_size=60).map(mask_of),
)


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
