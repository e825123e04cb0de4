"""Queue-scheduling policies: round-robin cycling and the DTS bandit,
and a differential test of both against the code they replaced
(oracles.RoundRobin, oracles.DynamicThompson)."""

import math

import numpy as np
import pytest

from mrastar.policies import DynamicThompson, RoundRobin

import oracles


# ------------------------------------------------------------ round robin


def test_rr_cycles_after_cursor():
    rr = RoundRobin(3)
    rr._cursor = 2
    assert rr.choose_queue([1, 2, 3]) == 3
    assert rr.choose_queue([1, 2, 3]) == 1
    assert rr.choose_queue([1, 2, 3]) == 2


def test_rr_fair_over_window():
    rr = RoundRobin(4)
    for nonempty in [[1, 2, 3, 4], [2, 4], [1, 3]]:
        picks = [rr.choose_queue(nonempty) for _ in range(2 * len(nonempty))]
        for i in nonempty:
            assert picks.count(i) == 2
        # consecutive windows each cover the set exactly once
        assert sorted(picks[: len(nonempty)]) == sorted(nonempty)


def test_rr_skips_empty_queues():
    rr = RoundRobin(3)
    assert rr.choose_queue([2]) == 2
    assert rr.choose_queue([1, 3]) == 3
    assert rr.choose_queue([1, 3]) == 1


# ---------------------------------------------------------------- dts


def test_dts_seeded_determinism():
    picks_a = [DynamicThompson(3, seed=9).choose_queue([1, 2, 3]) for _ in range(1)]
    picks_b = [DynamicThompson(3, seed=9).choose_queue([1, 2, 3]) for _ in range(1)]
    assert picks_a == picks_b
    dts1 = DynamicThompson(3, seed=9)
    dts2 = DynamicThompson(3, seed=9)
    seq1 = [dts1.choose_queue([1, 2, 3]) for _ in range(50)]
    seq2 = [dts2.choose_queue([1, 2, 3]) for _ in range(50)]
    assert seq1 == seq2


def test_dts_lazy_generator_draws_like_an_eager_one():
    lazy = DynamicThompson(3, seed=9)
    eager = DynamicThompson(3, seed=9)
    eager.rng = np.random.default_rng(9)
    picks = {}
    for dts in (lazy, eager):
        dts.update(2, 5.0)  # updates draw nothing
        picks[dts] = []
        for t in range(60):
            i = dts.choose_queue([[1, 2, 3], [2], [1, 3]][t % 3])
            dts.update(i, 100.0 - t if t % 4 else 200.0)
            picks[dts].append(i)
    assert picks[lazy] == picks[eager]
    assert DynamicThompson(3, seed=9).rng is None


def test_dts_forced_picks_draw_nothing_until_a_choice():
    # a pick among one queue draws nothing; its draws are owed, one
    # entry per run of equal parameters, and made before the next choice
    dts, old = DynamicThompson(3, seed=4), oracles.DynamicThompson(3, seed=4)
    for _ in range(500):
        assert dts.choose_queue([2]) == old.choose_queue([2]) == 2
    assert dts.rng is None and len(dts._owed) == 1
    for policy in (dts, old):
        policy.update(2, 7.0)
        policy.choose_queue([2])
    assert len(dts._owed) == 2
    assert [dts.choose_queue([1, 2, 3]) for _ in range(20)] == [
        old.choose_queue([1, 2, 3]) for _ in range(20)]
    assert dts._owed == []


def test_dts_prefers_strong_posterior():
    dts = DynamicThompson(2, seed=123)
    dts.alpha[1], dts.beta[1] = 50.0, 1.0
    dts.alpha[2], dts.beta[2] = 1.0, 50.0
    wins = sum(dts.choose_queue([1, 2]) == 1 for _ in range(10_000))
    assert wins >= 9_900


def test_dts_never_picks_empty():
    dts = DynamicThompson(3, seed=5)
    for _ in range(200):
        assert dts.choose_queue([2]) == 2
        assert dts.choose_queue([1, 3]) in (1, 3)


def test_dts_update_below_cap():
    dts = DynamicThompson(1, seed=0)
    dts.update(1, 4.0)  # first finite h beats inf: reward
    assert dts.alpha[1] == 2.0 and dts.beta[1] == 1.0 and dts.best_h[1] == 4.0
    dts.update(1, 4.0)  # no strict decrease: failure
    assert dts.alpha[1] == 2.0 and dts.beta[1] == 2.0


def test_dts_cap_algebra():
    dts = DynamicThompson(1, seed=0)
    dts.alpha[1], dts.beta[1] = 6.0, 4.0  # alpha+beta == C
    dts.best_h[1] = 0.0
    dts.update(1, 5.0)  # r = 0
    assert math.isclose(dts.alpha[1], 6.0 * 10 / 11)
    assert math.isclose(dts.beta[1], 5.0 * 10 / 11)
    assert math.isclose(dts.alpha[1] + dts.beta[1], 10.0)


def test_dts_posterior_bounds_invariant():
    dts = DynamicThompson(2, seed=31)
    h = 1000.0
    for t in range(500):
        i = 1 + (t % 2)
        h -= 0.5 if t % 3 else 0.0
        dts.update(i, h)
        for q in (1, 2):
            assert dts.alpha[q] > 0 and dts.beta[q] > 0
            assert dts.alpha[q] + dts.beta[q] <= dts.cap + 1.0 + 1e-12


def test_dts_converges_under_constant_reward():
    dts = DynamicThompson(1, seed=0)
    h = 1_000_000.0
    for _ in range(200):
        h -= 1.0
        dts.update(1, h)
    mean = dts.alpha[1] / (dts.alpha[1] + dts.beta[1])
    assert mean > 0.95



# ------------------------------------------------- against the old policies


def _calls(rng, n_queues, steps):
    """A seeded sequence of ("choose", nonempty) and ("update", top_h)
    calls: nonempty lists of length 1..n_queues, ascending, in long runs
    of one-queue picks as well as mixed, each pick followed by an update
    of the picked queue some of the time."""
    out = []
    while len(out) < steps:
        if rng.random() < 0.4:  # a run of forced picks, one queue or several in turn
            qs = rng.choice(np.arange(1, n_queues + 1), size=int(rng.integers(1, 3)))
            run = [[int(qs[t % len(qs)])] for t in range(int(rng.integers(1, 40)))]
        else:
            run = []
            for _ in range(int(rng.integers(1, 10))):
                size = int(rng.integers(1, n_queues + 1))
                run.append(sorted(int(q) for q in rng.choice(np.arange(1, n_queues + 1), size,
                                                              replace=False)))
        for nonempty in run:
            out.append(("choose", nonempty))
            if rng.random() < 0.7:
                top_h = math.inf if rng.random() < 0.1 else float(rng.integers(0, 50))
                out.append(("update", top_h))
    return out


@pytest.mark.parametrize("name", ["round_robin", "dts"])
def test_policies_pick_as_the_old_ones(name):
    new_cls, old_cls = {"round_robin": (RoundRobin, oracles.RoundRobin),
                        "dts": (DynamicThompson, oracles.DynamicThompson)}[name]
    rng = np.random.default_rng(27)
    forced_only = 0
    for case in range(60):
        n_queues, seed = int(rng.integers(1, 7)), int(rng.integers(0, 1000))
        new, old = new_cls(n_queues, seed), old_cls(n_queues, seed)
        picked = None
        for op, arg in _calls(rng, n_queues, 300):
            if op == "choose":
                picked = new.choose_queue(list(arg))
                assert picked == old.choose_queue(list(arg)), (case, arg)
            elif picked is not None:
                new.update(picked, arg)
                old.update(picked, arg)
            if name == "dts":
                assert (new.alpha, new.beta, new.best_h) == (old.alpha, old.beta, old.best_h)
            else:
                assert new._cursor == old._cursor
        if name == "dts" and n_queues == 1:
            # forced picks alone: no draw made, no generator built
            assert new.rng is None and old.rng is not None
            forced_only += 1
    assert name == "round_robin" or forced_only
