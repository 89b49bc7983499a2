"""Simulated distributed platform substrate.

The paper runs its agents on a physical network of machines (IBM Aglets on a
Java VM per host).  This package provides the equivalent substrate as a
deterministic discrete-event simulation:

- :mod:`repro.platform.clock` — the simulation clock and event scheduler.
- :mod:`repro.platform.events` — event records and the priority queue.
- :mod:`repro.platform.network` — latency/bandwidth/loss model between hosts,
  with partitions and link failures.
- :mod:`repro.platform.host` — a simulated machine that owns an agent context.
- :mod:`repro.platform.transport` — message and agent-migration transfers.
- :mod:`repro.platform.failure` — failure injection (host crashes, link cuts).
- :mod:`repro.platform.metrics` — counters and timers used by the benchmarks.

Everything is deterministic given the seed passed to the network model, so
tests and benchmarks are reproducible run-to-run.
"""

from repro.platform.clock import SimulationClock, SessionClock, Scheduler
from repro.platform.events import Event
from repro.platform.network import NetworkConfig, SimulatedNetwork, Link
from repro.platform.host import Host, HostState
from repro.platform.transport import Transport, TransferReceipt
from repro.platform.failure import FailureInjector, FailurePlan
from repro.platform.metrics import MetricsRegistry, Counter, Timer

__all__ = [
    "SimulationClock",
    "SessionClock",
    "Scheduler",
    "Event",
    "NetworkConfig",
    "SimulatedNetwork",
    "Link",
    "Host",
    "HostState",
    "Transport",
    "TransferReceipt",
    "FailureInjector",
    "FailurePlan",
    "MetricsRegistry",
    "Counter",
    "Timer",
]
