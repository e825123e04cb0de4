"""Queue-selection policies for the multi-queue planner.

A policy picks which inadmissible queue (index >= 1) to service next,
given the currently nonempty ones.  The anchor queue (index 0) is never
chosen by a policy; the planner falls back to it on its own.  A policy
whose feedback attribute is true learns: after each round that services
queue i, the planner calls update(i, top_h).
"""

import math

import numpy as np


class RoundRobin:
    """Cycle through the inadmissible queues in index order, skipping
    empty ones."""

    feedback = False

    def __init__(self, n_queues: int, seed: int = 0):
        if n_queues < 1:
            raise ValueError("need at least one inadmissible queue")
        self.n_queues = n_queues
        self._cursor = 0

    def choose_queue(self, nonempty: list[int]) -> int:
        """Smallest index in nonempty strictly after the cursor, wrapping
        around; 0 when nonempty is empty."""
        if not nonempty:
            return 0
        pick = min((i for i in nonempty if i > self._cursor), default=min(nonempty))
        self._cursor = pick
        return pick

    def update(self, i: int, top_h: float) -> None:
        pass


class DynamicThompson:
    """Thompson sampling over queues with capped Beta posteriors.

    Each queue i keeps a Beta(alpha_i, beta_i) belief about how often
    servicing it makes progress.  A round is a success when the heuristic
    of the queue's best state drops below the best value that queue has
    ever exposed.  Posterior mass is capped at cap so the belief keeps
    adapting (when alpha+beta exceeds cap both are rescaled by
    cap/(cap+1)).  The generator is built on the first draw, so a query
    whose coarse queues stay empty never pays for it.
    """

    feedback = True
    cap = 10.0

    def __init__(self, n_queues: int, seed: int = 0):
        if n_queues < 1:
            raise ValueError("need at least one inadmissible queue")
        self.n_queues = n_queues
        self.seed = seed
        self.alpha = [1.0] * (n_queues + 1)
        self.beta = [1.0] * (n_queues + 1)
        self.best_h = [math.inf] * (n_queues + 1)
        self.rng = None

    def choose_queue(self, nonempty: list[int]) -> int:
        """Sample each nonempty queue's Beta belief, pick the argmax
        (ties go to the smallest index); 0 when nonempty is empty."""
        if not nonempty:
            return 0
        if self.rng is None:
            self.rng = np.random.default_rng(self.seed)
        best = 0
        best_theta = -1.0
        for i in sorted(nonempty):
            theta = float(self.rng.beta(self.alpha[i], self.beta[i]))
            if theta > best_theta:
                best_theta = theta
                best = i
        return best

    def update(self, i: int, top_h: float) -> None:
        """Record the outcome of servicing queue i whose best open state
        now has heuristic top_h."""
        if top_h < self.best_h[i]:
            r = 1.0
            self.best_h[i] = top_h
        else:
            r = 0.0
        a, b = self.alpha[i], self.beta[i]
        if a + b < self.cap:
            self.alpha[i] = a + r
            self.beta[i] = b + (1.0 - r)
        else:
            scale = self.cap / (self.cap + 1.0)
            self.alpha[i] = (a + r) * scale
            self.beta[i] = (b + (1.0 - r)) * scale


POLICIES = {"round_robin": RoundRobin, "dts": DynamicThompson}


def make_policy(name: str, n_queues: int, seed: int = 0):
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; choose from {sorted(POLICIES)}")
    return cls(n_queues, seed)
