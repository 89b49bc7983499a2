"""Machine-speed calibration: times are reported at a reference speed.

The boxes this benchmark runs on are shared: the same pure-Python loop takes
8 ms one second and 15 ms a few seconds later, and whole runs of the same
seed differ by 25 %.  CPU time moves with wall time, so the slowdown is in
execution speed, not in scheduling, and no statistic of one run's raw wall
times removes it.  What does is measuring the machine while measuring the
program: every ``interval_s`` of a run the :class:`Calibrator` times one
fixed *unit* of interpreter work that belongs to the benchmark, not to the
program — ``copy.deepcopy`` of a small nested structure, so dict, list, str
and float handling plus allocation, the mix the program itself runs — and
each measured duration is scaled by ``REFERENCE_UNIT_S / unit time nearby``.
The scaling is imperfect: code that misses the cache more than the unit does
slows down more than the unit when a neighbour is busy.  It takes the spread
between runs of the same code from 15-25 % to 2-6 %.

A reported second is therefore a second on a machine that runs the unit in
exactly ``REFERENCE_UNIT_S``.  The unit is untouched by any change to the
program, so a program that gets faster reads faster by the same ratio; the
measured unit time itself is reported as ``machine.calibration_ms`` and the
unscaled throughput as ``raw.throughput_rps``.
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from statistics import median
from time import thread_time
from typing import List, Sequence

__all__ = ["REFERENCE_UNIT_S", "clock", "Calibrator", "Speed"]

#: The clock every duration is read from: CPU time of this thread.  The
#: program is one thread that never blocks, so on an idle machine this is wall
#: time; on the shared sandbox it leaves out the stretches in which the
#: hypervisor or another process holds the core (4 % of a run on average, but
#: 5-15 ms at a time, which is what a p95 is made of: 8 of the 10 slowest of
#: 8000 identical 2.3 ms pieces of work took 12-18 ms of wall and 2.3-3.7 ms
#: of CPU).  ``machine.off_cpu_share`` reports what was left out, so a program
#: that starts to wait for a worker or a file shows there.
clock = thread_time

#: What one unit takes on the reference machine (this repo's 2-core sandbox
#: at its usual speed, measured when the benchmark was defined).
REFERENCE_UNIT_S = 0.0005

_PAYLOAD = {
    f"k{index}": {
        "a": [float(value) for value in range(8)],
        "b": {"x": index, "y": str(index)},
        "c": (index, index + 1),
    }
    for index in range(12)
}
_COPIES = 4


class Calibrator:
    """Samples the unit at most once per ``interval_s``; see the module docstring."""

    #: 4 % of a run goes to the samples.  The machine's speed flips within
    #: tens of milliseconds, so sparser samples track it visibly worse.
    interval_s = 0.01

    def __init__(self) -> None:
        self.at: List[float] = []
        self.unit_s: List[float] = []
        #: Clock reading from which the next sample is due.
        self.due = 0.0

    def sample(self) -> float:
        """Time one unit now; returns the clock reading after it."""
        deepcopy, payload = copy.deepcopy, _PAYLOAD
        began = clock()
        for _ in range(_COPIES):
            deepcopy(payload)
        ended = clock()
        self.at.append(ended)
        self.unit_s.append(ended - began)
        self.due = ended + self.interval_s
        return ended

    def tick(self) -> None:
        """Sample if one is due (for loops that do not read the clock themselves)."""
        if clock() >= self.due:
            self.sample()

    def speed(self) -> "Speed":
        return Speed(self.at, self.unit_s)


class Speed:
    """The unit time around a clock reading: a running median of the samples.

    The window is 5 samples (about 50 ms).  Measured on back-to-back units
    standing in for the program, it left 1 % of run-to-run variation in a 2 s
    mean where a 51-sample window left 4 % and no scaling 11 %.
    """

    half_window = 2

    def __init__(self, at: Sequence[float], unit_s: Sequence[float]) -> None:
        if not unit_s:
            raise ValueError("no calibration sample was taken")
        self._at = list(at)
        self._unit_s = list(unit_s)
        reach = self.half_window
        self._smoothed = [
            median(unit_s[max(0, index - reach): index + reach + 1])
            for index in range(len(unit_s))
        ]

    def scale(self, clock: float) -> float:
        """Factor that turns a duration measured from ``clock`` on into reference time."""
        index = min(bisect_left(self._at, clock), len(self._at) - 1)
        return REFERENCE_UNIT_S / self._smoothed[index]

    def reference_seconds(self, began: float, ended: float) -> float:
        """Reference time of a wall interval, leaving out the samples taken inside it."""
        at, smoothed, last = self._at, self._smoothed, len(self._at) - 1
        index = bisect_left(at, began)
        total, cursor = 0.0, began
        while index <= last and at[index] <= ended:
            sample_began = at[index] - self._unit_s[index]
            if sample_began > cursor:
                total += (sample_began - cursor) / smoothed[index]
            cursor = at[index]
            index += 1
        total += (ended - cursor) / smoothed[min(index, last)]
        return total * REFERENCE_UNIT_S
