"""Small helpers for vertex sets stored as Python int bitmasks."""

from __future__ import annotations

from typing import Iterable, Iterator


def bit(v: int) -> int:
    return 1 << v


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


def lowest_bits(mask: int, k: int) -> int:
    """Mask of the k lowest set bits of a non-negative mask (all of them
    if fewer than k)."""
    if k <= 0:
        return 0
    if mask.bit_count() <= k:
        return mask
    # the popcount of the low p bits rises by at most one per step of p,
    # so the least p where it reaches k cuts off exactly k bits; k bits
    # need at least k positions
    lo, hi = k, mask.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask & ((1 << mid) - 1)).bit_count() < k:
            lo = mid + 1
        else:
            hi = mid
    return mask & ((1 << lo) - 1)
