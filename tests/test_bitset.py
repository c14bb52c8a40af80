from itertools import combinations
from math import comb

import pytest

from equicut.bitset import (
    iter_bits,
    mask_from_vertices,
    revolving_door_swaps,
    rotate_mask,
    subset_precedes,
)

from oracles import revolving_door_walks


def test_mask_round_trip():
    assert tuple(iter_bits(mask_from_vertices([4, 0, 2]))) == (0, 2, 4)
    assert mask_from_vertices([]) == 0
    assert tuple(iter_bits(0)) == ()


def test_rotate_mask_wraps():
    assert rotate_mask(0b00101, 5, 1) == 0b01010
    assert rotate_mask(0b10000, 5, 1) == 0b00001
    assert rotate_mask(0b10010, 5, 3) == 0b10100
    for s in range(10):
        assert rotate_mask(0b1011, 4, s) == rotate_mask(0b1011, 4, s % 4)


def test_subset_precedes_matches_tuple_order():
    for n in range(1, 7):
        for k in range(n + 1):
            subsets = list(combinations(range(n), k))
            for a in subsets:
                for b in subsets:
                    am, bm = mask_from_vertices(a), mask_from_vertices(b)
                    assert subset_precedes(am, bm) == (a < b)


@pytest.mark.parametrize("n", range(2, 12))
def test_revolving_door_visits_every_subset_once(n):
    for k in range(n + 1):
        current = set(range(k))
        seen = {frozenset(current)}
        for enter, leave in revolving_door_swaps(n, k):
            assert leave in current
            assert enter not in current
            current.remove(leave)
            current.add(enter)
            key = frozenset(current)
            assert key not in seen
            seen.add(key)
        assert len(seen) == comb(n, k)


@pytest.mark.parametrize("n", range(24))
def test_revolving_door_matches_recursive_oracle(n):
    for k, walk in enumerate(revolving_door_walks(n)):
        assert list(revolving_door_swaps(n, k)) == walk
