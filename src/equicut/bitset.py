"""Integer-backed vertex-set helpers and minimal-change subset enumeration.

The revolving-door walk is served as flat (enters, leaves) byte strings:
small walks are built once and cached, larger ones are split recursively
into cached pieces, so a caller loops over plain bytes instead of a stack
of nested generators.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterable, Iterator

# Walks over at most this many subsets are built whole and cached (about
# 1 MB for all the pieces of one n = 30 walk); larger walks are served as a
# sequence of them.
_CHUNK_SUBSETS = 1 << 16

# Walk steps are stored one element per byte.
MAX_WALK_N = 256


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
    element, so a cut size can be maintained incrementally. The sequence is
    the classic revolving-door order (Knuth, TAOCP 4A, 7.2.1.3): the first
    block recursively covers the subsets avoiding n-1, the second block
    covers subsets containing n-1 in reverse.
    """
    for enters, leaves in swap_chunks(n, k):
        yield from zip(enters, leaves)


def swap_chunks(n: int, k: int, reverse: bool = False) -> Iterator[tuple[bytes, bytes]]:
    """The revolving-door walk of (n, k) as consecutive (enters, leaves) chunks.

    Concatenating the chunks gives exactly the steps of
    revolving_door_swaps(n, k) (or of its reversal). Walks of at most
    _CHUNK_SUBSETS subsets come whole from a cache; larger ones recurse, so
    memory stays bounded whatever n is. Elements must fit in a byte.
    """
    if k <= 0 or k >= n:
        return
    if n > MAX_WALK_N:
        raise ValueError(f"revolving-door walks support n <= {MAX_WALK_N}, got {n}")
    if comb(n, k) <= _CHUNK_SUBSETS:
        enters, leaves = _walk(n, k)
        yield (leaves[::-1], enters[::-1]) if reverse else (enters, leaves)
        return
    enter, leave = _middle_step(n, k)
    if reverse:
        yield from swap_chunks(n - 1, k - 1)
        yield bytes((leave,)), bytes((enter,))
        yield from swap_chunks(n - 1, k, reverse=True)
    else:
        yield from swap_chunks(n - 1, k)
        yield bytes((enter,)), bytes((leave,))
        yield from swap_chunks(n - 1, k - 1, reverse=True)


def _middle_step(n: int, k: int) -> tuple[int, int]:
    # The step from the last subset avoiding n-1 to the first containing it.
    return n - 1, (k - 2 if k >= 2 else n - 2)


@lru_cache(maxsize=None)
def _walk(n: int, k: int) -> tuple[bytes, bytes]:
    # Forward (enters, leaves) of a whole small walk. Only the walks asked
    # for stay cached; the sub-walks they are built from are dropped. The
    # keys are finite: comb(n, k) <= _CHUNK_SUBSETS and n <= MAX_WALK_N.
    return _build_walk(n, k, {})


def _build_walk(n: int, k: int, memo: dict) -> tuple[bytes, bytes]:
    if k <= 0 or k >= n:
        return b"", b""
    if (n, k) not in memo:
        head_e, head_l = _build_walk(n - 1, k, memo)
        tail_e, tail_l = _build_walk(n - 1, k - 1, memo)
        enter, leave = _middle_step(n, k)
        memo[n, k] = (
            head_e + bytes((enter,)) + tail_l[::-1],
            head_l + bytes((leave,)) + tail_e[::-1],
        )
    return memo[n, k]
