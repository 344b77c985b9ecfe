"""Small helpers for vertex sets stored as Python int bitmasks."""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator

# One operation per set bit over a whole mask of N bits costs about
# k * N / 30 digit operations for k bits; up to this many bit operations
# it beats a linear pass over a bin() string or an N-byte buffer.
_PER_BIT_LIMIT = 1 << 20

# A linear pass over N digits takes one str.rfind per set bit, or a few C
# passes over all N digits with ``compress``: they break even near density
# 1/8 (measured at N = 2**11 to 2**16).  Bytes 0/1 to digits and back:
_COMPRESS_DENSITY = 8
_DIGIT_TO_FLAG = bytes.maketrans(b"01", b"\x00\x01")
_FLAG_TO_DIGIT = bytes.maketrans(b"\x00\x01", b"01")


def bit(v: int) -> int:
    return 1 << v


def mask_of(vertices: Iterable[int]) -> int:
    """The mask with bit v set for every given vertex v >= 0.

    Cost: for k vertices below N, k shifts of up to N bits while
    k * N <= 2**20; beyond that one byte store per vertex into N bytes and
    a few C passes (reverse, translate, ``int(..., 2)``), O(N + k).  A
    negative vertex raises ValueError on both paths.
    """
    vs = vertices if isinstance(vertices, (list, tuple)) else list(vertices)
    if not vs:
        return 0
    top = max(vs)
    if len(vs) * top <= _PER_BIT_LIMIT:
        m = 0
        for v in vs:
            m |= 1 << v
        return m
    if min(vs) < 0:  # buf[-1] = 1 would set the top vertex
        raise ValueError("negative shift count")
    buf = bytearray(top + 1)
    for v in vs:
        buf[v] = 1
    return int(buf[::-1].translate(_FLAG_TO_DIGIT), 2)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of a non-negative mask in increasing order.

    Cost, for k set bits below N: up to 2**20 / N peels of the lowest
    bit, each touching all N bits, then one ``bin()`` string read by one
    ``str.rfind`` per set bit, or by ``compress`` at density 1/8 or more.
    A mask with k * N <= 2**20 (any mask of up to 2**10 bits) is peeled
    whole; any other costs O(N + k) beyond the capped peels.  A negative
    mask raises ValueError.
    """
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    if mask.bit_length() <= 1 << 10:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low
        return
    for _ in range(_PER_BIT_LIMIT // mask.bit_length()):
        if not mask:
            return
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
    if mask.bit_count() * _COMPRESS_DENSITY >= mask.bit_length():
        yield from _flagged(mask)
        return
    s = bin(mask)
    top = len(s) - 1
    i = s.rfind("1")
    while i > 1:
        yield top - i
        i = s.rfind("1", 2, i)


def _flagged(mask: int) -> Iterator[int]:
    """Set bit positions of a mask >= 0 by ``compress`` over its digits."""
    flags = bin(mask)[:1:-1].encode().translate(_DIGIT_TO_FLAG)
    return compress(range(len(flags)), flags)


def bits_list(mask: int) -> list[int]:
    """Set bit positions in increasing order; costs as ``iter_bits``, but
    a mask of over 2**10 bits at density 1/8 or more skips the peels."""
    if 1 << 10 < mask.bit_length() <= mask.bit_count() * _COMPRESS_DENSITY and mask > 0:
        return list(_flagged(mask))
    return list(iter_bits(mask))


def counted_bits(mask: int, k: int) -> list[int]:
    """``bits_list`` of a non-negative mask known to have k set bits.

    Cost: read from the top by ``int.bit_length``, O(1) for k = 1 and
    one N-bit XOR per further bit; as ``bits_list`` once k * N > 2**20.
    """
    if k * mask.bit_length() > _PER_BIT_LIMIT:
        return bits_list(mask)
    out = [0] * k
    for i in range(k - 1, -1, -1):
        out[i] = top = mask.bit_length() - 1
        if i:
            mask ^= 1 << top
    return out


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
