"""Queue-scheduling policies: round-robin cycling and the DTS bandit."""

import math

import numpy as np
import pytest

from mrastar.policies import DynamicThompson, RoundRobin, make_policy


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
    assert rr.choose_queue([]) == 0


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
    assert dts.choose_queue([]) == 0


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


def test_make_policy():
    assert isinstance(make_policy("round_robin", 2), RoundRobin)
    assert isinstance(make_policy("dts", 2, seed=7), DynamicThompson)
    with pytest.raises(ValueError):
        make_policy("greedy", 2)
    with pytest.raises(ValueError):
        make_policy("round_robin", 0)
