"""Machine-normalised time: a reference kernel ticking under the workload.

The host's CPU speed drifts by tens of percent over a few seconds, so raw
wall clocks of identical code disagree from run to run.  A
:class:`NormClock` runs a small, stdlib-only reference kernel (build a
dict, sort it) from an interval timer for the whole measured run, with
the garbage collector paused while the kernel runs so its duration never
depends on the workload's heap.  Two things follow:

* ``now()`` is a *work clock*: wall time minus the time spent inside
  kernel ticks, so every measured interval excludes the kernel;
* a speed factor is ``NOMINAL_TICK_S`` divided by the mean duration of
  some ticks.  A slow spell lengthens both the ticks and the workload,
  so scaling time by the factor reports it in seconds of a machine whose
  reference kernel takes exactly ``NOMINAL_TICK_S``.
  ``speed_factor()`` averages every tick of the run; ``normalised()``
  scales each stretch of work between two ticks by the factor of the
  ticks around it, so a slow spell only rescales the work it slowed.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from operator import itemgetter
from typing import List

#: Duration of one reference-kernel tick on the nominal machine, in
#: seconds.  Normalised seconds are seconds on a machine where
#: :func:`reference_kernel` takes exactly this long (chosen close to its
#: typical duration on a 2-core x86-64 cloud VM, so normalised and raw
#: seconds are of similar size).
NOMINAL_TICK_S = 0.0032

#: Interval between ticks (wall seconds): about 10 ticks per second.
TICK_INTERVAL_S = 0.1

#: Ticks on each side of a stretch of work that set its local factor
#: (about two seconds of ticks in all).
LOCAL_TICKS = 10

#: Entries built and sorted by one reference-kernel tick.
REFERENCE_ENTRIES = 16_000


def reference_kernel(entries: int = REFERENCE_ENTRIES) -> int:
    """One tick of reference work: build a dict, sort its items.

    In A/B probes on a 2-core VM (every variant ticking in the same
    passes of the ``tune`` and ``figures`` workloads), a dict build and
    sort tracked the workloads' drift to about 2% per pass; a kernel of
    small tuples, strings and a keyed sort tracked ``figures`` three
    times worse.
    """
    table = {}
    for key in range(entries):
        table[(key * 7919) % 100_003] = key
    ordered = sorted(table.items(), key=itemgetter(1))
    return ordered[-1][0]


def speed_factor(tick_durations: List[float]) -> float:
    """``NOMINAL_TICK_S`` over the mean tick duration (1.0 with no ticks)."""
    if not tick_durations:
        return 1.0
    return NOMINAL_TICK_S / statistics.fmean(tick_durations)


class NormClock:
    """Interval-timer reference ticks plus a kernel-free work clock.

    Use as a context manager around everything the run measures.  Only
    the main thread may start it (``SIGALRM`` handlers run there).
    """

    def __init__(self, interval_s: float = TICK_INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.ticks: List[float] = []
        self.tick_starts: List[float] = []
        self.kernel_s = 0.0
        self._previous_handler = None

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_kernel()
            duration = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.tick_starts.append(start)
        self.ticks.append(duration)
        self.kernel_s += duration

    def start(self) -> "NormClock":
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)

    def __enter__(self) -> "NormClock":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def now(self) -> float:
        """Wall seconds minus all kernel time so far (safe from any thread)."""
        while True:
            kernel = self.kernel_s
            wall = time.perf_counter()
            if kernel == self.kernel_s:
                return wall - kernel

    def speed_factor(self) -> float:
        return speed_factor(self.ticks)

    def normalised(self, start: float, end: float) -> float:
        """Normalised seconds of work between two ``time.perf_counter()``
        stamps: tick time is left out, and the work between ticks ``j-1``
        and ``j`` is scaled by the factor of ticks ``j-LOCAL_TICKS`` to
        ``j+LOCAL_TICKS``."""
        if not self.ticks:
            return end - start
        total = 0.0
        previous_end = float("-inf")
        for j in range(len(self.ticks) + 1):
            next_start = self.tick_starts[j] if j < len(self.ticks) else float("inf")
            overlap = min(end, next_start) - max(start, previous_end)
            if overlap > 0:
                window = self.ticks[max(0, j - LOCAL_TICKS):j + LOCAL_TICKS]
                total += overlap * speed_factor(window or self.ticks[-1:])
            if j < len(self.ticks):
                previous_end = self.tick_starts[j] + self.ticks[j]
            if previous_end >= end:
                break
        return total
