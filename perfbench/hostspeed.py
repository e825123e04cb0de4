"""The host's speed, from a fixed calibration workload run beside the timed work.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 2x, in phases that outlast a run: the same pure-Python work then
takes 1.8 s in one run and 1.2 s in the next.  A run therefore times,
between the calls it measures, short slices of fixed work that do not
touch the program, and divides each time it reports by the slowdown
measured in the same block (a round, or the first set-up): runs made in
a slow phase and in a fast one then report alike.  The raw wall times
go to the run's detail line.

The planner does not slow down as much as the slice does.  Over 70 to
110 rounds of either workload, the log of a pass's time moved 0.47-0.64
times as far as the log of its round's slice time (least squares, which
the scatter of the slice times biases low).  Across five runs of each
workload, pass throughput spread least with powers between 0.6 and 1.0.
The slowdown is therefore the slice time ratio to the power ELASTICITY.

The slice mixes the operations the planner's pure-Python backend spends
its time on: loops over small ints, numpy element reads and writes,
heapq pushes and pops, and dict updates.
"""

import heapq
import statistics
import time

import numpy as np

REF_S = 0.004  # a slice's time at slowdown 1.0, near its median on a 2-core cloud VM
ELASTICITY = 0.75
EVERY_S = 0.15  # timed work between two slices
_OCC = np.random.default_rng(0).random((64, 64)) < 0.3
_STEPS = 640


def calibration_slice() -> int:
    out = np.zeros((9, 2), np.int64)
    heap: list = []
    seen: dict = {}
    for i in range(_STEPS):
        x, y, n = (i * 7) % 62 + 1, (i * 13) % 62 + 1, 0
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if _OCC[y + dy, x + dx]:
                    continue
                out[n, 0] = x + dx
                out[n, 1] = y + dy
                n += 1
        heapq.heappush(heap, ((i * 0.37) % 17.0, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        seen[x, y] = seen.get((x, y), 0) + n
    return len(seen)


class HostSpeed:
    """Slices of calibration work, taken at block starts and ends and
    whenever EVERY_S of timed work has passed since the last one."""

    def __init__(self):
        self.slices: list[float] = []  # seconds per slice, in order
        self._last = time.perf_counter()

    def tick(self) -> None:
        t0 = time.perf_counter()
        calibration_slice()
        self._last = time.perf_counter()
        self.slices.append(self._last - t0)

    def maybe_tick(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.tick()

    def mark(self) -> int:
        """Start a block; returns the mark slowdown() takes."""
        self.tick()
        return len(self.slices) - 1

    def slowdown(self, mark: int) -> float:
        """End a block: the median slice time since `mark` over REF_S,
        to the power ELASTICITY."""
        self.tick()
        return (statistics.median(self.slices[mark:]) / REF_S) ** ELASTICITY
