"""Open list used by every queue: ordering, updates, determinism, and
agreement with the addressable heap it replaced (oracles.AddressableOpenList)."""

import math

import numpy as np
import pytest

from mrastar.search import OpenList

import oracles


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


def _outcome(fn, *args):
    try:
        return fn(*args)
    except IndexError:
        return IndexError


OPS = ("insert", "decrease", "increase", "same", "reinsert_popped",
       "pop", "peek", "min_key", "len", "in", "drain")
OP_WEIGHTS = np.array([6, 4, 4, 2, 2, 6, 2, 3, 1, 2, 0.3])


def _differential_run(seed, steps=600):
    """Apply one seeded random op sequence to OpenList and to the
    addressable heap it replaced; every op must return the same value,
    or raise IndexError in both, at every step.  Returns the ops run."""
    rng = np.random.default_rng(seed)
    lists = (OpenList(), oracles.AddressableOpenList())
    live: dict[int, tuple[float, float]] = {}  # sid -> (key, g) of its entry
    popped: list[int] = []
    next_sid = 0
    # every query first runs on an empty list
    trace = ["pop", "peek", "min_key", "len", "in"]
    trace += rng.choice(OPS, size=steps, p=OP_WEIGHTS / OP_WEIGHTS.sum()).tolist()
    done = []
    for step, op in enumerate(trace):
        if op in ("decrease", "increase", "same") and not live:
            op = "insert"
        if op == "reinsert_popped" and not popped:
            op = "insert"
        done.append(op)
        if op in ("insert", "decrease", "increase", "same", "reinsert_popped"):
            if op == "insert":
                sid, next_sid = next_sid, next_sid + 1
            elif op == "reinsert_popped":
                sid = popped[int(rng.integers(len(popped)))]
            else:
                sid = int(rng.choice(sorted(live)))
            if op in ("insert", "reinsert_popped"):
                key, g = float(rng.integers(0, 10)), float(rng.integers(0, 4))
            elif op == "same":
                key, g = live[sid]
            else:
                delta = float(rng.integers(0, 4))  # 0 keeps the key and moves g
                key = live[sid][0] + (delta if op == "increase" else -delta)
                g = float(rng.integers(0, 4))
            results = [ol.insert_or_update(sid, key, g) for ol in lists]
            live[sid] = (key, g)
            if sid in popped:
                popped.remove(sid)
        elif op == "pop":
            results = [_outcome(ol.pop) for ol in lists]
            if results[1] is not IndexError:
                del live[results[1]]
                popped.append(results[1])
        elif op == "peek":
            results = [_outcome(ol.peek) for ol in lists]
        elif op == "min_key":
            results = [ol.min_key() for ol in lists]
        elif op == "len":
            results = [len(ol) for ol in lists]
        elif op == "in":
            sid = int(rng.integers(0, next_sid + 2))
            results = [sid in ol for ol in lists]
        else:  # drain, one pop past empty
            results = [[_outcome(ol.pop) for _ in range(len(live) + 1)] for ol in lists]
            popped.extend(live)
            live.clear()
        assert results[0] == results[1], (seed, step, op)
    return done


@pytest.mark.parametrize("seed", range(12))
def test_matches_addressable_heap_on_random_ops(seed):
    done = _differential_run(seed)
    assert set(done) == set(OPS)
