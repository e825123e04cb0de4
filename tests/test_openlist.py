"""Addressable heap used by every queue: ordering, updates, determinism."""

import math

import numpy as np
import pytest

from mrastar.search import OpenList


def test_empty_behaviour():
    ol = OpenList()
    assert ol.min_key() == math.inf
    assert len(ol) == 0
    with pytest.raises(IndexError):
        ol.pop()
    with pytest.raises(IndexError):
        ol.peek()


def test_min_key_and_pop_order():
    ol = OpenList()
    ol.insert_or_update(1, 14.0, 2.0)
    ol.insert_or_update(2, 8.0, 1.0)
    assert ol.min_key() == 8.0
    assert ol.peek() == 2
    assert ol.pop() == 2
    assert ol.min_key() == 14.0
    assert ol.pop() == 1
    assert ol.min_key() == math.inf


def test_tie_breaking():
    # equal keys: larger g wins; equal g: smaller id wins
    ol = OpenList()
    ol.insert_or_update(1, 5.0, 2.0)
    ol.insert_or_update(2, 5.0, 4.0)
    ol.insert_or_update(3, 5.0, 4.0)
    assert ol.pop() == 2
    assert ol.pop() == 3
    assert ol.pop() == 1


def test_update_in_place():
    ol = OpenList()
    ol.insert_or_update(7, 10.0, 0.0)
    ol.insert_or_update(9, 6.0, 0.0)
    ol.insert_or_update(7, 3.0, 1.0)  # decrease key
    assert len(ol) == 2 and ol.min_key() == 3.0 and ol.pop() == 7
    ol.insert_or_update(9, 11.0, 0.0)  # increase key while solo
    assert ol.min_key() == 11.0 and 9 in ol and 7 not in ol


def test_pop_sequence_matches_reference_sort():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ol = OpenList()
        live = {}
        for sid in rng.permutation(60):
            key = float(rng.integers(0, 12))
            g = float(rng.integers(0, 6))
            ol.insert_or_update(int(sid), key, g)
            live[int(sid)] = (key, -g, int(sid))
        # a burst of random updates
        for sid in map(int, rng.choice(60, size=25, replace=False)):
            key = float(rng.integers(0, 12))
            g = float(rng.integers(0, 6))
            ol.insert_or_update(sid, key, g)
            live[sid] = (key, -g, sid)
        got = [ol.pop() for _ in range(len(ol))]
        want = [sid for _, _, sid in sorted(live.values())]
        assert got == want
