"""Host-speed reference: a fixed slice of work run between the program's steps.

The benchmark gets a few cores of a host shared with other tenants.
Their load changes how fast the same code runs -- wall time and CPU
time alike, by up to a factor of two within minutes -- and that swamps
any bound a regression check could set.  So the benchmark runs this
reference slice *interleaved* with the work it times: after every pair
of a sweep (inside ``on_outcome``), and every 100 ms while it waits on
the service, a server start or a set-up process.  The slices see the
host's speed at the same moments the program does, and each reported
time is the measured time multiplied by :meth:`Reference.speed_since`,
which puts every run on one fixed scale (:data:`NOMINAL_S`).  A slice
depends on nothing under ``src/``, so no change to the program can move
it except through the cache it leaves (NOTES.md, "Host-speed
scaling").

Each slice is pure Python, like most of the program's time: a linear
congruential recurrence (integer arithmetic in the interpreter loop)
and lookups of a fixed, shuffled key sequence in a 200 000-entry dict
(pointer chasing through ~25 MB, which the program's own work evicts
from cache between slices).  Over the 29 warm first passes of ten
validation runs on a 2-core host under changing load, the pass's slice
time correlated 0.97 with its unscaled time, and scaling cut the
spread of the pass times (sd of the log) from 0.121 to 0.039.
"""

from __future__ import annotations

import random
import time

#: The scale reported times are put on: a round figure near the CPU
#: seconds one slice took on the 2-core host (Python 3.11) the benchmark
#: was validated on, under the heavy load of those runs.  Reported times
#: therefore read about as that host's times under that load, roughly
#: twice its quiet-host times.  Only the scale depends on it.
NOMINAL_S = 0.004
#: Iterations of the recurrence and dict lookups per slice.
_STEPS = 7_500
_LOOKUPS = 4_000
_KEYS = 200_000


class Reference:
    """Runs slices and keeps their totals, so that any stretch of a run
    can be given the host speed its slices saw."""

    def __init__(self):
        self._table = {i * 7919 % 1_000_003: i for i in range(_KEYS)}
        self._order = list(self._table)
        random.Random(1).shuffle(self._order)
        self._next = 0
        self._state = 12345
        self.cpu = 0.0    # thread CPU seconds spent in slices
        self.wall = 0.0   # wall seconds spent in slices
        self.slices = 0
        self.last = 0.0   # perf_counter() at the end of the last slice

    def slice(self) -> None:
        """Run one slice."""
        t0, c0 = time.perf_counter(), time.thread_time()
        state = self._state
        for _ in range(_STEPS):
            state = (1103515245 * state + 12345) & 0x7FFFFFFF
        self._state = state
        start = self._next
        table, total = self._table, 0
        for key in self._order[start:start + _LOOKUPS]:
            total += table[key]
        self._next = (start + _LOOKUPS) % (_KEYS - _LOOKUPS)
        self.cpu += time.thread_time() - c0
        self.last = time.perf_counter()
        self.wall += self.last - t0
        self.slices += 1

    def slice_every(self, period_s: float) -> None:
        """Run a slice if ``period_s`` has passed since the last one: for
        loops that wait on another process."""
        if time.perf_counter() - self.last >= period_s:
            self.slice()

    def mark(self) -> tuple[float, float, int]:
        return self.cpu, self.wall, self.slices

    def wall_since(self, mark: tuple[float, float, int]) -> float:
        """Wall seconds spent in slices since ``mark``."""
        return self.wall - mark[1]

    def cpu_since(self, mark: tuple[float, float, int]) -> float:
        """CPU seconds spent in slices since ``mark``."""
        return self.cpu - mark[0]

    def speed_since(self, mark: tuple[float, float, int]) -> float:
        """Quiet-host seconds per measured second, from the slices run
        since ``mark``."""
        slices = self.slices - mark[2]
        if not slices:
            raise RuntimeError("no reference slice ran in the measured stretch")
        return NOMINAL_S * slices / (self.cpu - mark[0])
