"""Host-speed probe: times a fixed unit of work all through a timed region.

On a shared host the speed of one core drifts by up to 1.5x over periods
of seconds to minutes, whatever the benchmark does.  CPU time drifts with
it, so it is no steadier than wall time.  The probe measures the drift
where it happens: a wall-clock interval timer interrupts the region every
``INTERVAL_S`` and the handler times one fixed unit of pure-Python work.
If ``c_i`` is the unit's time at sample ``i`` and ``REFERENCE_UNIT_S``
its time on a quiet host, a region of wall time ``T`` did the work that
a quiet host does in ``T * mean(REFERENCE_UNIT_S / c_i)``, that is
``T`` times :attr:`SpeedProbe.speed`.

The samples' own time is subtracted from the region's wall time, so the
probe costs the region only its interruptions (about 1%).
"""

from __future__ import annotations

import math
import random
import signal
from time import perf_counter

#: Wall time between samples.
INTERVAL_S = 0.03
#: The unit's time, sampled inside a timed region, on a quiet 2-core Xeon
#: host with Python 3.11.7.  Any fixed value would do for comparing two
#: commits; this one makes normalized times come out near the wall times
#: of that host's quiet periods.
REFERENCE_UNIT_S = 4.0e-4

_TABLE = {i: i for i in range(1 << 14)}
_RNG = random.Random(1)


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y)


def unit() -> float:
    """The fixed work the probe times.

    Two kinds of code the benchmarked workloads run, because host load
    slows them by different factors.  The first half mixes object
    construction, method calls, float arithmetic, a sort through a key
    function and lookups in a 16k-entry dict, like the simulator and the
    footprint scan.  The second half is a tight loop of random draws, like
    the Monte-Carlo validation.
    """
    acc = 0.0
    best: list = []
    for i in range(300):
        acc += _Point(i * 0.5, i & 7).norm()
        best.append((i, acc))
        if len(best) > 32:
            best.sort(key=lambda item: -item[1])
            del best[16:]
        acc += _TABLE[(i * 97) & 16383]
    draw = _RNG.random
    for _ in range(2500):
        if draw() < 0.004:
            acc += 1
    return acc


class SpeedProbe:
    """Samples host speed between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.start_s = 0.0
        self.wall_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        unit()
        self.samples.append(perf_counter() - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.start_s = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """End sampling; ``wall_s`` is the region's time without the samples."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        elapsed = perf_counter() - self.start_s
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = elapsed - sum(self.samples)

    @property
    def speed(self) -> float:
        """Host speed relative to the reference host (1.0 when unsampled)."""
        if not self.samples:
            return 1.0
        return sum(REFERENCE_UNIT_S / c for c in self.samples) / len(self.samples)
