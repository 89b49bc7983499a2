"""Concurrent scenario driver: thousands of overlapping gateway sessions.

Where :mod:`repro.workload.scenarios` issues one request at a time, this
module drives the gateway's submit path
(:meth:`~repro.api.gateway.PlatformGateway.submit` +
:class:`~repro.api.concurrency.SessionScheduler`): sessions arrive on an
open-loop :class:`~repro.workload.arrivals.PoissonArrivals` process (or all
at once, for a pure burst), each session is a closed-loop chain of requests
separated by :class:`~repro.workload.arrivals.ThinkTime` pauses, and the
scheduler interleaves everything by virtual arrival time.  This is the
first workload in the repo where admission shedding, per-server queueing
and retry backoff are exercised by *overlapping* load.

The driver is deterministic end to end: arrivals, consumer choice,
keywords and think times all come from seeded private RNGs, and the
session scheduler processes submissions in a total order — replaying the
same seeds yields a byte-identical envelope stream (the property test in
``tests/property/test_concurrent_equivalence.py`` holds this line).

Results come back as a :class:`ConcurrentScenarioReport`; it shares its
dict shape (``as_dict``) and ``simulated_duration_ms`` with every scenario
report in :mod:`repro.workload.scenarios` through :class:`_Report`.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.api.envelope import ApiStatus
from repro.api.requests import (
    FindSimilarRequest,
    LoginRequest,
    LogoutRequest,
    QueryRequest,
    RecommendationsRequest,
)
from repro.platform.metrics import summarize
from repro.workload.arrivals import PoissonArrivals, ThinkTime
from repro.workload.consumers import ConsumerPopulation, SyntheticConsumer

__all__ = [
    "ConcurrentScenarioReport",
    "ConcurrentDriver",
    "LATENCY_HISTOGRAM_BOUNDS_MS",
]

#: Default latency histogram bucket upper bounds (simulated milliseconds);
#: the final implicit bucket is unbounded.
LATENCY_HISTOGRAM_BOUNDS_MS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0,
)


def latency_histogram(
    samples: List[float],
    bounds: Tuple[float, ...] = LATENCY_HISTOGRAM_BOUNDS_MS,
) -> List[Dict[str, float]]:
    """Cumulative-bucket histogram as an ordered list of ``{le, count}``.

    Prometheus-style cumulative buckets: each ``count`` is the number of
    samples ``<= le`` — counts are monotone nondecreasing in ``le`` and
    the final ``le: -1`` bucket (the unbounded +Inf overflow, JSON-safe
    sentinel) always holds the total sample count.  A list (not a dict) so
    JSON serialisation with sorted keys keeps the buckets in bound order.
    """
    buckets = [{"le": bound, "count": 0.0} for bound in bounds]
    buckets.append({"le": -1.0, "count": 0.0})  # +Inf, JSON-safe sentinel
    for sample in samples:
        for bucket in buckets[:-1]:
            if sample <= bucket["le"]:
                bucket["count"] += 1.0
    buckets[-1]["count"] = float(len(samples))
    return buckets


@dataclass
class _Report:
    """What every scenario report has: a simulated span and one dict shape.

    :meth:`as_dict` holds a deep copy of every field but the two timestamps,
    in declaration order, then the ``_derived`` properties and
    ``simulated_duration_ms``.
    """

    started_at_ms: float = 0.0
    finished_at_ms: float = 0.0

    _derived: ClassVar[Tuple[str, ...]] = ()

    @property
    def simulated_duration_ms(self) -> float:
        return self.finished_at_ms - self.started_at_ms

    def as_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        del out["started_at_ms"], out["finished_at_ms"]
        for name in self._derived + ("simulated_duration_ms",):
            out[name] = getattr(self, name)
        return out


@dataclass
class ConcurrentScenarioReport(_Report):
    """What a concurrent run did, in virtual time.

    Latency is measured per request as *finish − virtual arrival*, so it
    includes queue wait, retry backoff and service time — what a client
    would experience — while ``queue_wait_ms`` isolates the contention
    component (sampled over *this run only* — the driver snapshots the
    platform timer so back-to-back runs on one platform never fold each
    other's waits into their reports).  Latency stats cover *dispatched*
    requests only: a shed request costs ~0 simulated ms, and under burst
    the rejections would drag every percentile toward zero (the same
    distortion the metrics middleware guards against).  ``shed`` counts
    admission rejections; they are also included in ``failed_operations``
    (a shed request failed, from the session's point of view), and
    ``completed`` counts only the *non-shed* resolutions — so
    ``requests == completed + shed`` always holds.  ``queue_dropped``
    counts requests shed in queue by the deadline-aware drop (they are
    ``completed`` — the platform answered, with ``unavailable`` — but
    never occupied a server).  ``servers`` reports this run's per-server
    occupancy: simulated ms busy, utilization against the run's duration,
    total queueing delay charged to sessions stuck behind it, and attempts
    served.
    """

    consumers: int = 0
    sessions: int = 0
    requests: int = 0
    completed: int = 0
    shed: int = 0
    queue_dropped: int = 0
    failed_operations: int = 0
    executed_events: int = 0
    statuses: Dict[str, int] = field(default_factory=dict)
    operations: Dict[str, int] = field(default_factory=dict)
    latency_ms: Dict[str, float] = field(default_factory=dict)
    queue_wait_ms: Dict[str, float] = field(default_factory=dict)
    histogram: List[Dict[str, float]] = field(default_factory=list)
    servers: Dict[str, Dict[str, float]] = field(default_factory=dict)

    _derived = ("shed_rate",)

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0


class _Session:
    """One consumer's closed-loop request chain, driven by done-callbacks.

    login → ``queries`` queries → (maybe) find-similar → (maybe)
    recommendations → logout, each follow-up submitted at the previous
    request's virtual finish plus a think-time pause.  A failed login ends
    the session immediately (there is no session to use); any later failure
    is counted and the chain continues — a browser does not stop browsing
    because one query shed.
    """

    def __init__(
        self,
        gateway,
        consumer: SyntheticConsumer,
        queries: int,
        think: ThinkTime,
        ask_recommendations: bool,
        rng: random.Random,
        futures: List[Any],
        ask_similar: bool = False,
    ) -> None:
        self._gateway = gateway
        self._consumer = consumer
        self._queries_left = queries
        self._think = think
        self._ask_recommendations = ask_recommendations
        self._ask_similar = ask_similar
        self._rng = rng
        self._futures = futures

    def start(self, at_ms: float) -> None:
        self._submit(LoginRequest(self._consumer.user_id), at_ms, self._after_login)

    def _submit(self, request, at_ms, callback) -> None:
        future = self._gateway.submit(
            request, at_ms=at_ms, session_id=self._consumer.user_id
        )
        self._futures.append(future)
        future.add_done_callback(callback)

    def _next_at(self, future) -> float:
        return future.finished_at_ms + self._think.next_ms()

    def _after_login(self, future) -> None:
        if future.response.failed:
            return  # no session was established; nothing to drive or tear down
        self._continue(future)

    def _continue(self, future) -> None:
        user_id = self._consumer.user_id
        if self._queries_left > 0:
            self._queries_left -= 1
            keyword = self._consumer.preferred_keyword(self._rng)
            self._submit(
                QueryRequest(user_id, keyword), self._next_at(future), self._continue
            )
        elif self._ask_similar:
            # The fleet fan-out path: a similar-consumer lookup hits every
            # shard at once, which is where hedged requests (when the fleet
            # is configured with a hedge delay) actually engage.
            self._ask_similar = False
            self._submit(
                FindSimilarRequest(user_id),
                self._next_at(future),
                self._continue,
            )
        elif self._ask_recommendations:
            self._ask_recommendations = False
            self._submit(
                RecommendationsRequest(user_id, 10),
                self._next_at(future),
                self._continue,
            )
        else:
            self._submit(
                LogoutRequest(user_id), self._next_at(future), lambda _f: None
            )


class ConcurrentDriver:
    """Runs a population of overlapping sessions against one platform.

    ``seed`` derives every RNG the driver uses (arrivals, consumer choice,
    keywords, think times); two drivers with the same seed against
    same-seed platforms produce byte-identical envelope streams.
    """

    def __init__(
        self,
        platform,
        population: ConsumerPopulation,
        seed: int = 0,
    ) -> None:
        self.platform = platform
        self.population = population
        self.gateway = platform.gateway()
        self.seed = seed

    def run(
        self,
        sessions: int = 200,
        queries_per_session: int = 2,
        arrival_rate_per_ms: Optional[float] = 0.05,
        think_time_ms: float = 250.0,
        recommendation_probability: float = 0.25,
        find_similar_probability: float = 0.0,
        max_events: int = 1_000_000,
    ) -> ConcurrentScenarioReport:
        """Drive ``sessions`` overlapping sessions to completion.

        ``arrival_rate_per_ms=None`` turns the open-loop arrivals into a
        simultaneous burst (every session arrives at the current horizon) —
        the harshest test of admission shedding.
        ``find_similar_probability`` adds a fleet-wide similar-consumer
        lookup to that fraction of sessions — the fan-out (and, when
        configured, hedged-request) hot path under concurrent load.  At the
        default ``0.0`` the extra RNG draw is skipped entirely, so existing
        seeded runs replay byte-identically.
        """
        if not 0.0 <= find_similar_probability <= 1.0:
            raise WorkloadError("find_similar_probability must be in [0, 1]")
        if sessions <= 0:
            raise WorkloadError("concurrent day needs at least one session")
        if queries_per_session < 0:
            raise WorkloadError("queries_per_session cannot be negative")
        pool = self.population.consumers()
        if not pool:
            raise WorkloadError("concurrent day needs a non-empty population")

        rng = random.Random(self.seed)
        think = ThinkTime(think_time_ms, seed=self.seed + 1)
        if arrival_rate_per_ms is None:
            offsets = [0.0] * sessions
        else:
            offsets = PoissonArrivals(
                arrival_rate_per_ms, seed=self.seed + 2
            ).offsets_ms(sessions)

        # Distinct consumers when the population allows it: two *overlapping*
        # sessions of the same account are a genuine conflict (the second
        # login fails), which is noise when the point is load, not accounts.
        # An under-sized population falls back to drawing with replacement
        # and the duplicate-login failures are counted like any other.
        if len(pool) >= sessions:
            chosen = rng.sample(pool, sessions)
        else:
            chosen = [rng.choice(pool) for _ in range(sessions)]

        scheduler = self.gateway.sessions
        base = scheduler.horizon
        # Snapshot the platform-global accumulators so the report covers
        # *this run only*: timers, counters and the per-server queue stats
        # all outlive a run, and a second drive on the same platform must
        # not fold the first drive's samples into its own numbers.
        metrics = self.platform.metrics
        queue_timer = metrics.timer("api.queue_wait_ms")
        waits_before = len(queue_timer.samples)
        dropped_before = metrics.counter("api.queue_dropped").value
        queues_before = scheduler.queues.stats()
        futures: List[Any] = []
        for consumer, offset in zip(chosen, offsets):
            session = _Session(
                gateway=self.gateway,
                consumer=consumer,
                queries=queries_per_session,
                think=think,
                ask_recommendations=rng.random() < recommendation_probability,
                rng=rng,
                futures=futures,
                # Guarded draw: at probability 0 the RNG is not consulted,
                # keeping pre-existing seeded runs byte-identical.
                ask_similar=(
                    find_similar_probability > 0.0
                    and rng.random() < find_similar_probability
                ),
            )
            session.start(base + offset)
        executed = scheduler.run_until_idle(max_events)

        report = ConcurrentScenarioReport(
            consumers=len(pool), sessions=sessions, executed_events=executed
        )
        latencies: List[float] = []
        for future in futures:
            response = future.response
            report.requests += 1
            report.statuses[response.status] = (
                report.statuses.get(response.status, 0) + 1
            )
            report.operations[response.operation] = (
                report.operations.get(response.operation, 0) + 1
            )
            if response.status == ApiStatus.REJECTED:
                report.shed += 1
            else:
                # "Completed" means the platform resolved the request with
                # an answer (ok, degraded, failed or unavailable) — a shed
                # request was turned away at the door and completed nothing.
                report.completed += 1
                latencies.append(future.finished_at_ms - future.submitted_at_ms)
            if response.failed:
                report.failed_operations += 1
        if futures:
            report.started_at_ms = min(f.submitted_at_ms for f in futures)
            report.finished_at_ms = max(f.finished_at_ms for f in futures)
        report.latency_ms = summarize(latencies)
        report.queue_wait_ms = summarize(queue_timer.samples[waits_before:])
        report.queue_dropped = int(
            metrics.counter("api.queue_dropped").value - dropped_before
        )
        report.histogram = latency_histogram(latencies)
        self._report_servers(report, queues_before, scheduler.queues.stats())
        return report

    def _report_servers(
        self,
        report: ConcurrentScenarioReport,
        before: Dict[str, Dict[str, float]],
        after: Dict[str, Dict[str, float]],
    ) -> None:
        """Fill ``report.servers`` and the per-server platform gauges.

        Utilization is this run's busy time over this run's duration;
        ``queue_wait_ms`` is the total queueing delay sessions spent stuck
        behind the server — the backlog signal an autoscaler would watch.
        Published as ``api.server.<name>.utilization`` / ``.backlog_ms``
        gauges too, so the saturation sweep (and a future control loop)
        can read them without holding the report.
        """
        duration = report.simulated_duration_ms
        zero = {"busy_ms": 0.0, "queued_ms": 0.0, "served": 0.0}
        for server in self.platform.buyer_servers:
            name = server.name
            delta = {
                key: after.get(name, zero).get(key, 0.0)
                - before.get(name, zero).get(key, 0.0)
                for key in zero
            }
            utilization = delta["busy_ms"] / duration if duration > 0 else 0.0
            report.servers[name] = {
                "busy_ms": delta["busy_ms"],
                "utilization": utilization,
                "queue_wait_ms": delta["queued_ms"],
                "served": delta["served"],
            }
            metrics = self.platform.metrics
            metrics.gauge(f"api.server.{name}.utilization").set(utilization)
            metrics.gauge(f"api.server.{name}.backlog_ms").set(delta["queued_ms"])
