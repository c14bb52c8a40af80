"""Integer-backed vertex-set helpers and minimal-change subset enumeration.

The revolving-door walk is built whole as flat (enters, leaves) byte
strings, so a caller loops over plain bytes instead of a stack of nested
generators.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_from_vertices(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def rotate_mask(mask: int, n: int, shift: int) -> int:
    """Cyclically shift a width-n bitmask so bit v moves to bit (v + shift) mod n."""
    shift %= n
    if shift == 0:
        return mask
    full = (1 << n) - 1
    return ((mask << shift) | (mask >> (n - shift))) & full


def subset_precedes(a: int, b: int) -> bool:
    """Order equal-size vertex sets by their sorted tuples: a < b.

    For |A| = |B| the sorted tuples compare lexicographically exactly when the
    smallest element of the symmetric difference lies in A.
    """
    diff = a ^ b
    if not diff:
        return False
    return bool(a & (diff & -diff))


def revolving_door_swaps(n: int, k: int) -> Iterator[tuple[int, int]]:
    """Yield (enter, leave) steps walking every k-subset of range(n).

    The walk starts at {0, ..., k-1} and each step exchanges exactly one
    element. The sequence is the classic revolving-door order (Knuth, TAOCP
    4A, 7.2.1.3): the first block recursively covers the subsets avoiding
    n-1, the second block covers subsets containing n-1 in reverse. No
    solver walks it; it is kept only for the benchmark's trace probe, until
    that probe is retired. Elements must fit in a byte.
    """
    return zip(*_walk(n, k, {}))


def _walk(n: int, k: int, memo: dict) -> tuple[bytes, bytes]:
    # The whole walk as (enters, leaves) bytes; memo holds each sub-walk once.
    if k <= 0 or k >= n:
        return b"", b""
    if (n, k) not in memo:
        head_e, head_l = _walk(n - 1, k, memo)
        tail_e, tail_l = _walk(n - 1, k - 1, memo)
        # The step from the last subset avoiding n-1 to the first holding it.
        leave = k - 2 if k >= 2 else n - 2
        memo[n, k] = (
            head_e + bytes((n - 1,)) + tail_l[::-1],
            head_l + bytes((leave,)) + tail_e[::-1],
        )
    return memo[n, k]
