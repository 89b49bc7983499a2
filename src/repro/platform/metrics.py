"""Lightweight metrics used by the platform, servers and benchmarks.

The benchmark harness needs to report latencies and throughput per workflow
step (Figures 4.2/4.3) and per subsystem.  Rather than pulling in an external
metrics library, this module provides the three primitives the harness needs:
counters, gauges and timers with percentile summaries.

A :class:`Timer` keeps every sample, because the checked-in artifacts report
exact percentiles, but keeps them packed: ``samples`` is an ``array('d')``,
8 bytes a sample and no float object each.  It indexes, slices, compares
and sorts like the list it replaced, and :func:`summarize` of it (or of a
slice of it) is the same dict, digit for digit, as of a list of the same
floats.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence
import math

__all__ = ["Counter", "Gauge", "Timer", "MetricsRegistry", "summarize"]


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Return count/mean/min/max/p50/p95/p99 for a sequence of samples."""
    if not samples:
        return {
            "count": 0.0,
            "mean": 0.0,
            "min": 0.0,
            "max": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }
    ordered = sorted(samples)

    def percentile(fraction: float) -> float:
        if len(ordered) == 1:
            return ordered[0]
        rank = fraction * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        weight = rank - low
        # lerp as low + span*weight: unlike a*(1-w) + b*w, this form is
        # monotone in `weight` under float rounding (multiplication and
        # addition round monotonically), so p50 <= p95 <= p99 always holds
        # even when two percentiles interpolate inside the same bracket.
        value = ordered[low] + (ordered[high] - ordered[low]) * weight
        # Rounding can still drift one ulp past the bracket ends; clamp.
        return min(max(value, ordered[low]), ordered[high])

    return {
        "count": float(len(ordered)),
        "mean": sum(ordered) / len(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "p50": percentile(0.50),
        "p95": percentile(0.95),
        "p99": percentile(0.99),
    }


@dataclass
class Counter:
    """Monotonic counter."""

    name: str
    value: float = 0.0

    def increment(self, amount: float = 1.0) -> float:
        if amount < 0:
            raise ValueError("counters only move forward; use a Gauge instead")
        self.value += amount
        return self.value


@dataclass
class Gauge:
    """A value that can move in both directions (e.g. active sessions)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> float:
        self.value = float(value)
        return self.value

    def adjust(self, delta: float) -> float:
        self.value += delta
        return self.value


@dataclass
class Timer:
    """Collects duration samples (simulated milliseconds)."""

    name: str
    samples: array = field(default_factory=lambda: array("d"))

    def record(self, duration_ms: float) -> None:
        if duration_ms < 0:
            raise ValueError("durations must be non-negative")
        self.samples.append(duration_ms)

    @property
    def latest(self) -> Optional[float]:
        """The most recently recorded sample (None when empty)."""
        return self.samples[-1] if self.samples else None

    def summary(self) -> Dict[str, float]:
        return summarize(self.samples)


class MetricsRegistry:
    """Registry keyed by metric name; shared per platform instance."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def remove_gauge(self, name: str) -> bool:
        """Drop a gauge entirely (missing names are ignored).

        Gauges report *current* state; when the thing they describe stops
        existing (a retired replication stream, a promoted-away write-ahead
        log) the gauge must go with it, or snapshots keep reporting the last
        pre-retirement value forever.  Returns True when a gauge was removed.
        """
        return self._gauges.pop(name, None) is not None

    def remove_gauges_with_prefix(self, prefix: str) -> int:
        """Drop every gauge whose name starts with ``prefix``; return count."""
        doomed = [name for name in self._gauges if name.startswith(prefix)]
        for name in doomed:
            del self._gauges[name]
        return len(doomed)

    def timer(self, name: str) -> Timer:
        if name not in self._timers:
            self._timers[name] = Timer(name)
        return self._timers[name]

    def counters(self) -> Dict[str, float]:
        return {name: counter.value for name, counter in sorted(self._counters.items())}

    def gauges(self) -> Dict[str, float]:
        return {name: gauge.value for name, gauge in sorted(self._gauges.items())}

    def timer_summaries(self) -> Dict[str, Dict[str, float]]:
        return {name: timer.summary() for name, timer in sorted(self._timers.items())}

    def snapshot(self) -> Dict[str, object]:
        """Full snapshot used by the experiment harness reports."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "timers": self.timer_summaries(),
        }

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()
