"""Queue-selection policies for the multi-queue planner.

A policy picks which inadmissible queue (index >= 1) to service next,
given the currently nonempty ones: the search loop asks only while one
of them holds a state, so the list it passes is nonempty and ascending.
The anchor queue (index 0) is never chosen by a policy; the planner
falls back to it on its own.  A policy whose feedback attribute is true
learns: after each round that services queue i, the planner calls
update(i, top_h).  A pick among one queue is forced: RoundRobin moves
its cursor there and DynamicThompson owes the draw it skips.  POLICIES
is the one lookup of a policy name, which PlannerConfig checks.
"""

import math

import numpy as np


class RoundRobin:
    """Cycle through the inadmissible queues in index order, skipping
    empty ones."""

    feedback = False

    def __init__(self, n_queues: int, seed: int = 0):
        self._cursor = 0

    def choose_queue(self, nonempty: list[int]) -> int:
        """Smallest index in nonempty (nonempty, ascending) strictly
        after the cursor, wrapping around: one scan, up to the first
        index past the cursor."""
        cursor = self._cursor
        for pick in nonempty:
            if pick > cursor:
                break
        else:
            pick = nonempty[0]
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
    cap/(cap+1)).

    A pick among one queue is forced (a Beta draw is never below 0, so
    the argmax is that queue), so it draws nothing: it records the
    (alpha, beta) its draw would have used as owed, counted in runs of
    equal parameters, so that the forced picks of one queue between two
    updates take one entry.  The next pick among two or more queues first makes the
    owed draws, in order, and then its own, so every draw it compares
    comes from the same point of the stream as if every pick drew; owed
    draws that no such pick follows are never made.  The generator is
    built at the first pick among two or more queues, so a query that
    never has two coarse queues nonempty at once never pays for it.
    """

    feedback = True
    cap = 10.0

    def __init__(self, n_queues: int, seed: int = 0):
        self.seed = seed
        self.alpha = [1.0] * (n_queues + 1)
        self.beta = [1.0] * (n_queues + 1)
        self.best_h = [math.inf] * (n_queues + 1)
        self.rng = None
        self._owed: list[list] = []  # [alpha, beta, draws], in draw order

    def choose_queue(self, nonempty: list[int]) -> int:
        """Sample the Beta belief of each queue in nonempty (nonempty,
        ascending) in order and pick the argmax; ties go to the smallest
        index.  One queue is picked without a draw, which is owed."""
        if len(nonempty) == 1:
            i = nonempty[0]
            a, b, owed = self.alpha[i], self.beta[i], self._owed
            if owed and owed[-1][0] is a and owed[-1][1] is b:
                owed[-1][2] += 1
            else:
                owed.append([a, b, 1])
            return i
        if self.rng is None:
            self.rng = np.random.default_rng(self.seed)
        draw = self.rng.beta
        if self._owed:
            for a, b, n in self._owed:
                for _ in range(n):
                    draw(a, b)
            self._owed.clear()
        best = 0
        best_theta = -1.0
        for i in nonempty:
            theta = float(draw(self.alpha[i], self.beta[i]))
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
