"""Small helpers for vertex sets stored as Python int bitmasks."""

from __future__ import annotations

from typing import Iterable, Iterator

# One operation per set bit over a whole mask of N bits costs about
# k * N / 30 digit operations for k bits; up to this many bit operations
# it beats a linear pass over a string or byte buffer.
_PER_BIT_LIMIT = 1 << 20


def bit(v: int) -> int:
    return 1 << v


def mask_of(vertices: Iterable[int]) -> int:
    """The mask with bit v set for every given vertex v >= 0.

    Cost: for k vertices below N, k shifts of up to N bits while
    k * N <= 2**20; beyond that one bytearray of N/8 bytes and one
    ``int.from_bytes``, O(N/8 + k).  A negative vertex raises ValueError
    on both paths.
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
    if min(vs) < 0:
        raise ValueError("negative shift count")
    buf = bytearray((top >> 3) + 1)
    for v in vs:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of a non-negative mask in increasing order.

    Cost, for k set bits below N: up to 2**20 / N peels of the lowest
    bit, each touching all N bits, then one ``bin()`` string scanned with
    ``str.rfind`` for whatever is left.  A mask with k * N <= 2**20 (any
    mask of up to 2**10 bits) is peeled whole; any other costs O(N + k)
    beyond the capped peels.  A negative mask raises ValueError.
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
    s = bin(mask)
    top = len(s) - 1
    i = s.rfind("1")
    while i > 1:
        yield top - i
        i = s.rfind("1", 2, i)


def bits_list(mask: int) -> list[int]:
    """Set bit positions in increasing order; costs as ``iter_bits``."""
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
