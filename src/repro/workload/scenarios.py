"""Scenario drivers: replay consumer behaviour against a live platform.

The workflow-level experiments (Figures 3.1, 3.2, 4.2, 4.3 in DESIGN.md) need
consumers actually using the agent platform — logging in, querying, buying,
joining auctions — rather than an offline dataset.  :class:`ScenarioRunner`
drives a :class:`~repro.ecommerce.platform_builder.ECommercePlatform` with the
synthetic population and reports what happened.

Every client operation goes through the platform's
:class:`~repro.api.gateway.PlatformGateway` — the same versioned envelope
surface real clients use — so the scenarios exercise the middleware chain
(metrics, deadlines, retry/failover, admission control) for free.  A
non-``ok`` envelope counts as a failed operation; a ``degraded`` one is
still an answer and counts as success, exactly as a browser would treat it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import WorkloadError
from repro.ecommerce.elasticity import AutoscalerPolicy, FleetAutoscaler
from repro.ecommerce.platform_builder import ANTI_ENTROPY_INTERVAL_MS, ECommercePlatform
from repro.workload.consumers import ConsumerPopulation, SyntheticConsumer

__all__ = [
    "ChaosScenarioReport",
    "ElasticScenarioReport",
    "ScenarioReport",
    "ScenarioRunner",
]


@dataclass
class ScenarioReport:
    """What a scenario run did and how long (in simulated time) it took."""

    consumers: int = 0
    sessions: int = 0
    queries: int = 0
    purchases: int = 0
    auctions: int = 0
    negotiations: int = 0
    recommendations_requested: int = 0
    failed_operations: int = 0
    batch_refreshes: int = 0
    promoted_consumers: int = 0
    stale_shard_answers: int = 0
    lost_consumers: int = 0
    recovered_purged: int = 0
    started_at_ms: float = 0.0
    finished_at_ms: float = 0.0

    @property
    def simulated_duration_ms(self) -> float:
        return self.finished_at_ms - self.started_at_ms

    def as_dict(self) -> Dict[str, float]:
        return {
            "consumers": self.consumers,
            "sessions": self.sessions,
            "queries": self.queries,
            "purchases": self.purchases,
            "auctions": self.auctions,
            "negotiations": self.negotiations,
            "recommendations_requested": self.recommendations_requested,
            "failed_operations": self.failed_operations,
            "batch_refreshes": self.batch_refreshes,
            "promoted_consumers": self.promoted_consumers,
            "stale_shard_answers": self.stale_shard_answers,
            "lost_consumers": self.lost_consumers,
            "recovered_purged": self.recovered_purged,
            "simulated_duration_ms": self.simulated_duration_ms,
        }


@dataclass
class ElasticScenarioReport:
    """What an elastic-fleet scenario did: traffic, topology and safety.

    Shared by :meth:`ScenarioRunner.flash_crowd_day` (autoscaler-driven)
    and :meth:`ScenarioRunner.rolling_upgrade_day` (operator-driven): both
    run traffic in windows between topology changes, so the report carries
    the per-window traffic summaries, the trail of fleet sizes and
    shard-map epochs, and the safety counters the acceptance bars check —
    ``lost_consumers`` and ``missing_consumers`` must both be zero on a
    healthy run.
    """

    scenario: str = ""
    consumers: int = 0
    windows: List[Dict[str, Any]] = field(default_factory=list)
    decisions: List[Dict[str, Any]] = field(default_factory=list)
    fleet_sizes: List[int] = field(default_factory=list)
    epoch_trail: List[int] = field(default_factory=list)
    initial_servers: int = 0
    peak_servers: int = 0
    final_servers: int = 0
    requests: int = 0
    completed: int = 0
    shed: int = 0
    failed_operations: int = 0
    statuses: Dict[str, int] = field(default_factory=dict)
    handbacks: int = 0
    splits: int = 0
    transferred_consumers: int = 0
    lost_consumers: int = 0
    missing_consumers: int = 0
    started_at_ms: float = 0.0
    finished_at_ms: float = 0.0

    @property
    def simulated_duration_ms(self) -> float:
        return self.finished_at_ms - self.started_at_ms

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "consumers": self.consumers,
            "windows": [dict(window) for window in self.windows],
            "decisions": [dict(decision) for decision in self.decisions],
            "fleet_sizes": list(self.fleet_sizes),
            "epoch_trail": list(self.epoch_trail),
            "initial_servers": self.initial_servers,
            "peak_servers": self.peak_servers,
            "final_servers": self.final_servers,
            "requests": self.requests,
            "completed": self.completed,
            "shed": self.shed,
            "failed_operations": self.failed_operations,
            "statuses": dict(sorted(self.statuses.items())),
            "handbacks": self.handbacks,
            "splits": self.splits,
            "transferred_consumers": self.transferred_consumers,
            "lost_consumers": self.lost_consumers,
            "missing_consumers": self.missing_consumers,
            "simulated_duration_ms": self.simulated_duration_ms,
        }


@dataclass
class ChaosScenarioReport:
    """What a chaos-under-attack day did: traffic, faults, attacks, audit.

    Produced by :meth:`ScenarioRunner.chaos_marketplace_day`.  Three
    stories are folded together: the honest traffic windows (requests,
    statuses, goodput), the seeded chaos schedule and the fleet's
    reaction to it (promotions, purges, lost consumers), and the attack
    populations' fate (the embedded
    :class:`~repro.workload.adversary.AdversaryReport` dict plus the
    ``api.auth.rejected.*`` counter deltas).  ``audit`` is the
    end-of-run :class:`~repro.adversarial.audit.AuditReport` dict — the
    acceptance bars read ``audit["ok"]`` and ``attacker_success_rate``
    straight off this report.
    """

    scenario: str = "chaos_marketplace_day"
    consumers: int = 0
    windows: List[Dict[str, Any]] = field(default_factory=list)
    chaos_events: List[Dict[str, Any]] = field(default_factory=list)
    outages: int = 0
    victims: List[str] = field(default_factory=list)
    requests: int = 0
    completed: int = 0
    shed: int = 0
    failed_operations: int = 0
    statuses: Dict[str, int] = field(default_factory=dict)
    promoted_consumers: int = 0
    recovered_purged: int = 0
    lost_consumers: int = 0
    adversary: Dict[str, Any] = field(default_factory=dict)
    auth_rejections: Dict[str, int] = field(default_factory=dict)
    audit: Dict[str, Any] = field(default_factory=dict)
    started_at_ms: float = 0.0
    finished_at_ms: float = 0.0

    @property
    def simulated_duration_ms(self) -> float:
        return self.finished_at_ms - self.started_at_ms

    @property
    def honest_goodput(self) -> float:
        """Fraction of honest requests answered (``ok`` or ``degraded``)."""
        answered = self.statuses.get("ok", 0) + self.statuses.get("degraded", 0)
        return answered / self.requests if self.requests else 0.0

    @property
    def attacker_success_rate(self) -> float:
        return float(self.adversary.get("attacker_success_rate", 0.0))

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "consumers": self.consumers,
            "windows": [dict(window) for window in self.windows],
            "chaos_events": [dict(event) for event in self.chaos_events],
            "outages": self.outages,
            "victims": list(self.victims),
            "requests": self.requests,
            "completed": self.completed,
            "shed": self.shed,
            "failed_operations": self.failed_operations,
            "statuses": dict(sorted(self.statuses.items())),
            "honest_goodput": self.honest_goodput,
            "promoted_consumers": self.promoted_consumers,
            "recovered_purged": self.recovered_purged,
            "lost_consumers": self.lost_consumers,
            "adversary": dict(self.adversary),
            "attacker_success_rate": self.attacker_success_rate,
            "auth_rejections": dict(sorted(self.auth_rejections.items())),
            "audit": dict(self.audit),
            "simulated_duration_ms": self.simulated_duration_ms,
        }


class ScenarioRunner:
    """Drives consumer sessions against a live platform."""

    def __init__(
        self,
        platform: ECommercePlatform,
        population: ConsumerPopulation,
        seed: int = 0,
    ) -> None:
        self.platform = platform
        self.population = population
        self.gateway = platform.gateway()
        self._rng = random.Random(seed)

    # -- building blocks ----------------------------------------------------------

    def run_session(
        self,
        consumer: SyntheticConsumer,
        queries: int = 2,
        buy_probability: float = 0.5,
        auction_probability: float = 0.15,
        negotiate_probability: float = 0.15,
        ask_recommendations: bool = True,
        report: Optional[ScenarioReport] = None,
    ) -> ScenarioReport:
        """One consumer session: login, a few queries, maybe trades, logout.

        Drives the gateway exclusively: a non-``ok`` envelope is a failed
        operation (the legacy ``SessionError`` cases arrive as ``failed`` /
        ``unavailable`` statuses now), and the trade counters tick on any
        accepted request, successful trade or not — matching the behaviour
        of the direct-session driver this replaced byte for byte.
        """
        report = report if report is not None else ScenarioReport()
        gateway = self.gateway
        user_id = consumer.user_id
        login = gateway.login(user_id)
        if login.failed:
            report.failed_operations += 1
            return report
        report.sessions += 1
        try:
            for _ in range(queries):
                keyword = consumer.preferred_keyword(self._rng)
                response = gateway.query(user_id, keyword)
                if response.failed:
                    report.failed_operations += 1
                    continue
                report.queries += 1
                results = response.result.hits
                if not results:
                    continue

                ranked = sorted(
                    results, key=lambda hit: (-consumer.utility(hit.item), hit.item_id)
                )
                best = ranked[0]
                if consumer.finds_relevant(best.item):
                    roll = self._rng.random()
                    trade = None
                    if roll < auction_probability:
                        trade = gateway.join_auction(
                            user_id, best.item, max_price=best.price * 1.2,
                            marketplace=best.marketplace,
                        )
                        counter = "auctions"
                    elif roll < auction_probability + negotiate_probability:
                        trade = gateway.negotiate(
                            user_id, best.item, max_price=best.price * 0.95,
                            marketplace=best.marketplace,
                        )
                        counter = "negotiations"
                    elif roll < auction_probability + negotiate_probability + buy_probability:
                        trade = gateway.buy(
                            user_id, best.item, marketplace=best.marketplace
                        )
                        counter = "purchases"
                    if trade is not None:
                        if trade.failed:
                            report.failed_operations += 1
                        else:
                            setattr(report, counter, getattr(report, counter) + 1)

            if ask_recommendations:
                response = gateway.recommendations(user_id, k=10)
                if response.failed:
                    report.failed_operations += 1
                else:
                    report.recommendations_requested += 1
        finally:
            gateway.logout(user_id)
        return report

    # -- whole-population scenarios ---------------------------------------------------

    def warm_up(
        self,
        sessions_per_consumer: int = 1,
        queries_per_session: int = 2,
        consumers: Optional[int] = None,
    ) -> ScenarioReport:
        """Run sessions for (a prefix of) the population to populate UserDB."""
        if sessions_per_consumer <= 0:
            raise WorkloadError("sessions_per_consumer must be positive")
        selected = self.population.consumers()
        if consumers is not None:
            selected = selected[:consumers]
        report = ScenarioReport(started_at_ms=self.platform.now)
        report.consumers = len(selected)
        for _ in range(sessions_per_consumer):
            for consumer in selected:
                self.run_session(
                    consumer, queries=queries_per_session, report=report
                )
        report.finished_at_ms = self.platform.now
        return report

    def concurrent_day(
        self,
        sessions: int = 200,
        queries_per_session: int = 2,
        arrival_rate_per_ms: Optional[float] = 0.05,
        think_time_ms: float = 250.0,
        recommendation_probability: float = 0.25,
        seed: int = 0,
        max_events: int = 1_000_000,
    ):
        """A day of *overlapping* sessions through the gateway submit path.

        Sessions arrive open-loop (Poisson at ``arrival_rate_per_ms``;
        ``None`` = one simultaneous burst) and each runs closed-loop with
        ``think_time_ms`` pauses between its requests — see
        :class:`~repro.workload.concurrent.ConcurrentDriver`.  Returns a
        :class:`~repro.workload.concurrent.ConcurrentScenarioReport`; the
        sequential scenarios above are untouched by design (their output is
        byte-frozen).  Uses its own ``seed`` rather than the runner's RNG so
        running it never perturbs a sequential scenario issued afterwards.
        """
        from repro.workload.concurrent import ConcurrentDriver

        driver = ConcurrentDriver(self.platform, self.population, seed=seed)
        return driver.run(
            sessions=sessions,
            queries_per_session=queries_per_session,
            arrival_rate_per_ms=arrival_rate_per_ms,
            think_time_ms=think_time_ms,
            recommendation_probability=recommendation_probability,
            max_events=max_events,
        )

    def promotion_failover_day(
        self,
        sessions: int = 240,
        queries_per_session: int = 1,
        crash_shard: int = 0,
        buy_probability: float = 0.35,
        auction_probability: float = 0.2,
        negotiate_probability: float = 0.1,
        recommendation_probability: float = 0.3,
        refresh_interval_ms: float = 2000.0,
        batch_k: int = 5,
        stale_queries: int = 4,
        recover: bool = True,
    ) -> ScenarioReport:
        """A trafficked day surviving a crash through **replica promotion**.

        Requires a multi-server platform with replication wired
        (``PlatformConfig.num_buyer_servers > 1`` and
        ``replication_factor >= 1``).  The day runs in four phases:

        1. normal traffic while every server's write-ahead log streams to
           its replica peers (and is periodically snapshot-truncated);
        2. the ``crash_shard`` server is crashed; before any failover runs,
           ``stale_queries`` fleet-wide similar-consumer queries demonstrate
           the quorum-aware degraded path — the dead shard is answered from
           its freshest replica and reported in
           :attr:`~repro.ecommerce.buyer_server.FleetQueryResult.stale_shards`
           (counted in ``report.stale_shard_answers``);
        3. the freshest replica holder is **promoted**: it adopts the dead
           server's shard in place (``report.promoted_consumers`` /
           ``report.lost_consumers``) — no consumer re-registers, no state
           crosses the network — and traffic resumes for everyone;
        4. (with ``recover=True``) the host comes back, its stale copies are
           purged (``report.recovered_purged``) and it rejoins as replica
           capacity; shard ownership stays with the promoted server.

        Throughout, the fleet-wide scheduled recommendation refresh keeps
        firing (covering the adopted consumers from the first post-promotion
        tick) and anti-entropy keeps replicas converged and WALs truncated;
        the scenario loop pumps the scheduler after every session.  The
        phase arithmetic splits ``sessions`` three ways (later phases may be
        empty when the count is tiny, but the crash/recovery still happen).
        """
        if stale_queries < 0:
            raise WorkloadError("stale_queries cannot be negative")
        if sessions <= 0:
            raise WorkloadError("promotion failover day needs at least one session")
        if refresh_interval_ms <= 0:
            raise WorkloadError("refresh interval must be positive")
        platform = self.platform
        fleet = platform.fleet
        if fleet is None:
            raise WorkloadError(
                "promotion failover day needs a multi-server fleet "
                "(PlatformConfig.num_buyer_servers > 1)"
            )
        if not 0 <= crash_shard < fleet.num_shards:
            raise WorkloadError(f"crash_shard {crash_shard} is not a fleet shard")
        victim = fleet.servers[crash_shard]
        if victim.replication is None or not victim.replication.peers:
            raise WorkloadError(
                "promotion failover day needs replication wired "
                "(PlatformConfig.replication_factor >= 1)"
            )
        pool = self.population.consumers()
        if not pool:
            raise WorkloadError("promotion failover day needs a non-empty population")

        log = platform.event_log
        refreshes_before = log.count("recommendation.scheduled-refresh")
        fleet.start_periodic_refresh(refresh_interval_ms, k=batch_k)
        report = ScenarioReport(started_at_ms=platform.now)
        report.consumers = len(pool)
        lost_before = fleet.lost_consumers

        def run_phase(count: int) -> None:
            for _ in range(count):
                consumer = self._rng.choice(pool)
                self.run_session(
                    consumer,
                    queries=queries_per_session,
                    buy_probability=buy_probability,
                    auction_probability=auction_probability,
                    negotiate_probability=negotiate_probability,
                    ask_recommendations=self._rng.random() < recommendation_probability,
                    report=report,
                )
                if self._rng.random() < recommendation_probability:
                    # Fleet-wide similar-consumer lookup through the
                    # gateway: async fan-out over every live shard; during
                    # the outage window the envelope is degraded (dead
                    # shard unreachable, or — with live replicas — answered
                    # from one and marked stale in the provenance).
                    self.gateway.find_similar(consumer.user_id)
                # Pump the scheduler so the scheduled refresh and the
                # anti-entropy tasks fire as simulated time passes.
                platform.scheduler.run_until(platform.now)

        first = max(1, sessions // 3)
        second = min(first, sessions - first)
        third = sessions - first - second
        try:
            run_phase(first)
            platform.failures.crash_host(victim.name)
            if stale_queries:
                # Quorum window: the shard is down but not yet failed over —
                # fleet queries answer it from the freshest replica, marked
                # stale in the envelope's provenance.  Only consumers
                # registered in phase 1 can be queried.
                registered = [
                    consumer for consumer in pool
                    if fleet.is_registered(consumer.user_id)
                ]
                for index in range(min(stale_queries, len(registered))):
                    response = self.gateway.find_similar(registered[index].user_id)
                    if victim.name in response.provenance.stale_shards:
                        report.stale_shard_answers += 1
                    platform.scheduler.run_until(platform.now)
            report.promoted_consumers = fleet.handle_server_failure(crash_shard)
            report.lost_consumers = fleet.lost_consumers - lost_before
            run_phase(second)
            if recover:
                platform.failures.recover_host(victim.name)
                report.recovered_purged = fleet.recover_server(victim)
            run_phase(third)
        finally:
            fleet.stop_periodic_refresh()
        report.finished_at_ms = platform.now
        report.batch_refreshes = (
            log.count("recommendation.scheduled-refresh") - refreshes_before
        )
        return report

    # -- elastic-fleet scenarios -------------------------------------------------------

    def _elastic_window(
        self,
        report: ElasticScenarioReport,
        phase: str,
        seed: int,
        sessions: int,
        queries_per_session: int,
        arrival_rate_per_ms: Optional[float],
        think_time_ms: float,
        recommendation_probability: float,
        find_similar_probability: float,
    ) -> Dict[str, Any]:
        """One concurrent traffic window, folded into an elastic report.

        Each window gets its own seeded driver (``seed`` varies per
        window) so windows differ in traffic but the whole scenario
        replays byte-identically; the driver publishes the per-server
        utilization and backlog gauges as it finishes, which is exactly
        what the autoscaler tick that follows will read.
        """
        from repro.workload.concurrent import ConcurrentDriver

        driver = ConcurrentDriver(self.platform, self.population, seed=seed)
        window = driver.run(
            sessions=sessions,
            queries_per_session=queries_per_session,
            arrival_rate_per_ms=arrival_rate_per_ms,
            think_time_ms=think_time_ms,
            recommendation_probability=recommendation_probability,
            find_similar_probability=find_similar_probability,
        )
        report.requests += window.requests
        report.completed += window.completed
        report.shed += window.shed
        report.failed_operations += window.failed_operations
        for status, count in window.statuses.items():
            report.statuses[status] = report.statuses.get(status, 0) + count
        summary: Dict[str, Any] = {
            "phase": phase,
            "arrival_rate_per_ms": arrival_rate_per_ms,
            "sessions": window.sessions,
            "requests": window.requests,
            "completed": window.completed,
            "shed": window.shed,
            "failed_operations": window.failed_operations,
            "statuses": dict(sorted(window.statuses.items())),
            "latency_p50_ms": window.latency_ms.get("p50", 0.0),
            "latency_p99_ms": window.latency_ms.get("p99", 0.0),
        }
        report.windows.append(summary)
        return summary

    def _ensure_registered(self) -> List[str]:
        """Register any not-yet-registered consumers; returns the census."""
        fleet = self.platform.fleet
        users = [consumer.user_id for consumer in self.population.consumers()]
        for user_id in users:
            if not fleet.is_registered(user_id):
                self.gateway.register(user_id)
        return users

    def flash_crowd_day(
        self,
        sessions_per_window: int = 120,
        queries_per_session: int = 1,
        baseline_rate_per_ms: float = 0.01,
        spike_factor: float = 10.0,
        baseline_windows: int = 1,
        spike_windows: int = 2,
        drain_windows: int = 3,
        settle_ticks: int = 8,
        think_time_ms: float = 200.0,
        recommendation_probability: float = 0.25,
        find_similar_probability: float = 0.0,
        policy: Optional[AutoscalerPolicy] = None,
        seed: int = 0,
    ) -> ElasticScenarioReport:
        """A flash crowd: 10x arrival spike → scale out → drain back.

        Requires a multi-server fleet.  Traffic runs in concurrent windows
        — ``baseline_windows`` at ``baseline_rate_per_ms``, then
        ``spike_windows`` at ``spike_factor`` times that rate, then
        ``drain_windows`` back at baseline — with one
        :meth:`~repro.ecommerce.elasticity.FleetAutoscaler.tick` between
        windows reading the gauges the driver just published.  The spike
        drives utilization/backlog over the high-water marks, so the
        autoscaler joins servers and moves shards onto them (whole-shard
        handback or live split); the drain windows plus up to
        ``settle_ticks`` trailing quiet ticks shrink the fleet back to its
        founding floor, handing every borrowed shard back.  The report
        carries the full decision trail, the fleet-size and epoch history,
        and the safety counters (``lost_consumers`` and
        ``missing_consumers`` must be zero).
        """
        platform = self.platform
        fleet = platform.fleet
        if fleet is None:
            raise WorkloadError(
                "flash crowd day needs a multi-server fleet "
                "(PlatformConfig.num_buyer_servers > 1)"
            )
        for name, value in (
            ("sessions_per_window", sessions_per_window),
            ("baseline_windows", baseline_windows),
            ("spike_windows", spike_windows),
            ("drain_windows", drain_windows),
        ):
            if value <= 0:
                raise WorkloadError(f"{name} must be positive")
        if spike_factor <= 1.0:
            raise WorkloadError("spike_factor must exceed 1.0")
        if settle_ticks < 0:
            raise WorkloadError("settle_ticks cannot be negative")

        scaler = FleetAutoscaler(platform, policy)
        users = self._ensure_registered()
        report = ElasticScenarioReport(
            scenario="flash_crowd_day",
            consumers=len(users),
            started_at_ms=platform.now,
        )
        report.initial_servers = len(scaler.active_servers())
        lost_before = fleet.lost_consumers
        handbacks_before = fleet.handbacks
        splits_before = fleet.splits
        transferred_before = fleet.transferred_consumers

        spike_rate = baseline_rate_per_ms * spike_factor
        phases = (
            [("baseline", baseline_rate_per_ms)] * baseline_windows
            + [("spike", spike_rate)] * spike_windows
            + [("drain", baseline_rate_per_ms)] * drain_windows
        )
        for index, (phase, rate) in enumerate(phases):
            summary = self._elastic_window(
                report,
                phase,
                seed=seed + index,
                sessions=sessions_per_window,
                queries_per_session=queries_per_session,
                arrival_rate_per_ms=rate,
                think_time_ms=think_time_ms,
                recommendation_probability=recommendation_probability,
                find_similar_probability=find_similar_probability,
            )
            decision = scaler.tick()
            summary["decision"] = decision.action
            report.fleet_sizes.append(len(scaler.active_servers()))
            report.epoch_trail.append(fleet.shard_map.epoch)
        # Trailing quiet ticks: the gauges still read the last (baseline)
        # window, so the scaler keeps shrinking until the founding floor.
        for _ in range(settle_ticks):
            if len(scaler.active_servers()) <= scaler.floor:
                break
            scaler.tick()
            report.fleet_sizes.append(len(scaler.active_servers()))
            report.epoch_trail.append(fleet.shard_map.epoch)

        report.decisions = [decision.as_dict() for decision in scaler.decisions]
        report.peak_servers = max(report.fleet_sizes, default=0)
        report.final_servers = len(scaler.active_servers())
        report.handbacks = fleet.handbacks - handbacks_before
        report.splits = fleet.splits - splits_before
        report.transferred_consumers = (
            fleet.transferred_consumers - transferred_before
        )
        report.lost_consumers = fleet.lost_consumers - lost_before
        report.missing_consumers = sum(
            1 for user_id in users if not fleet.is_registered(user_id)
        )
        report.finished_at_ms = platform.now
        return report

    def rolling_upgrade_day(
        self,
        sessions_per_window: int = 40,
        queries_per_session: int = 1,
        arrival_rate_per_ms: float = 0.02,
        think_time_ms: float = 200.0,
        recommendation_probability: float = 0.25,
        find_similar_probability: float = 0.0,
        seed: int = 0,
    ) -> ElasticScenarioReport:
        """Restart every founding server, one at a time, under live traffic.

        Requires a multi-server fleet with replication wired.  For each
        founding server in turn: crash the host mid-day, promote the
        freshest replica holder (the PR-6 failover — consumers never
        re-register), run a traffic window against the degraded fleet,
        recover the host, purge its stale copies, and hand its original
        shards back
        (:meth:`~repro.ecommerce.buyer_server.BuyerServerFleet.transfer_shard`
        — the live replica-bootstrap + WAL catch-up path).  After the last
        server the shard map must match the founding assignment again —
        ``ownership_restored`` in each window dict, and zero
        ``lost_consumers`` / ``missing_consumers``, are the acceptance
        bars.
        """
        platform = self.platform
        fleet = platform.fleet
        if fleet is None:
            raise WorkloadError(
                "rolling upgrade day needs a multi-server fleet "
                "(PlatformConfig.num_buyer_servers > 1)"
            )
        if sessions_per_window <= 0:
            raise WorkloadError("sessions_per_window must be positive")
        founding = [
            server
            for server in list(fleet.servers)
            if server.name not in fleet.retired
        ]
        for server in founding:
            if server.replication is None or not server.replication.peers:
                raise WorkloadError(
                    "rolling upgrade day needs replication wired "
                    "(PlatformConfig.replication_factor >= 1)"
                )

        users = self._ensure_registered()
        report = ElasticScenarioReport(
            scenario="rolling_upgrade_day",
            consumers=len(users),
            started_at_ms=platform.now,
        )
        original = {
            server.name: list(fleet.shards_of(server)) for server in founding
        }
        report.initial_servers = len(founding)
        lost_before = fleet.lost_consumers
        handbacks_before = fleet.handbacks
        transferred_before = fleet.transferred_consumers

        window_seed = seed
        self._elastic_window(
            report,
            "warm",
            seed=window_seed,
            sessions=sessions_per_window,
            queries_per_session=queries_per_session,
            arrival_rate_per_ms=arrival_rate_per_ms,
            think_time_ms=think_time_ms,
            recommendation_probability=recommendation_probability,
            find_similar_probability=find_similar_probability,
        )
        report.fleet_sizes.append(len(founding))
        report.epoch_trail.append(fleet.shard_map.epoch)

        for server in founding:
            platform.failures.crash_host(server.name)
            promoted = fleet.handle_server_failure(original[server.name][0])
            window_seed += 1
            degraded = self._elastic_window(
                report,
                f"upgrade:{server.name}",
                seed=window_seed,
                sessions=sessions_per_window,
                queries_per_session=queries_per_session,
                arrival_rate_per_ms=arrival_rate_per_ms,
                think_time_ms=think_time_ms,
                recommendation_probability=recommendation_probability,
                find_similar_probability=find_similar_probability,
            )
            platform.failures.recover_host(server.name)
            purged = fleet.recover_server(server)
            restored = 0
            for shard in original[server.name]:
                owner = fleet.owner_of_shard(shard)
                if owner is not server:
                    restored += fleet.transfer_shard(
                        shard, server, kind="upgrade"
                    )
            degraded["server"] = server.name
            degraded["shards"] = list(original[server.name])
            degraded["promoted_consumers"] = promoted
            degraded["recovered_purged"] = purged
            degraded["restored_consumers"] = restored
            degraded["ownership_restored"] = all(
                fleet.shard_map.owner_of(shard) == server.name
                for shard in original[server.name]
            )
            report.fleet_sizes.append(
                sum(
                    1
                    for candidate in founding
                    if candidate.context.host.is_running
                )
            )
            report.epoch_trail.append(fleet.shard_map.epoch)

        window_seed += 1
        self._elastic_window(
            report,
            "restored",
            seed=window_seed,
            sessions=sessions_per_window,
            queries_per_session=queries_per_session,
            arrival_rate_per_ms=arrival_rate_per_ms,
            think_time_ms=think_time_ms,
            recommendation_probability=recommendation_probability,
            find_similar_probability=find_similar_probability,
        )
        report.fleet_sizes.append(len(founding))
        report.epoch_trail.append(fleet.shard_map.epoch)

        report.peak_servers = max(report.fleet_sizes, default=0)
        report.final_servers = len(founding)
        report.handbacks = fleet.handbacks - handbacks_before
        report.transferred_consumers = (
            fleet.transferred_consumers - transferred_before
        )
        report.lost_consumers = fleet.lost_consumers - lost_before
        report.missing_consumers = sum(
            1 for user_id in users if not fleet.is_registered(user_id)
        )
        report.finished_at_ms = platform.now
        return report

    # -- adversarial chaos scenario ------------------------------------------------

    def chaos_marketplace_day(
        self,
        windows: int = 5,
        sessions_per_window: int = 25,
        queries_per_session: int = 1,
        arrival_rate_per_ms: float = 0.05,
        think_time_ms: float = 150.0,
        recommendation_probability: float = 0.25,
        chaos_outages: int = 3,
        chaos_horizon_ms: float = 30_000.0,
        chaos_mean_gap_ms: float = 4_000.0,
        chaos_mean_outage_ms: float = 3_000.0,
        scalpers: int = 6,
        bids_per_scalper: int = 3,
        protocol_rounds: int = 2,
        flood_requests: int = 30,
        seed: int = 0,
    ) -> ChaosScenarioReport:
        """A marketplace day under simultaneous chaos and attack.

        The capstone adversarial scenario: honest concurrent sessions run
        in ``windows`` traffic windows while (a) a seeded
        :class:`~repro.adversarial.chaos.ChaosSchedule` — compiled onto
        the platform's :class:`~repro.platform.failure.FailureInjector`
        before traffic starts — crashes and partitions buyer servers,
        and (b) an :class:`~repro.workload.adversary.AdversaryDriver`
        interleaves scalper, protocol-bot and quota-flood futures into
        the *same* session-scheduler drains as the honest sessions.

        Between windows the platform scheduler is pumped so due chaos
        events fire, then the fleet is reconciled exactly as an operator
        would: a crashed owner's shards are promoted to the freshest
        replica holder, a recovered host is purged of stale copies and
        rejoins as replica capacity.  After the last window the run
        fast-forwards through any remaining scheduled events, settles
        anti-entropy, and hands the quiesced platform to the
        :class:`~repro.adversarial.audit.InvariantAuditor`; the returned
        report embeds the audit verbatim.

        Requires a replicated multi-server fleet *and* a platform built
        with ``handshake_trades=True`` (otherwise the handshake-backed
        invariant and the protocol-bot population would be vacuous).
        Fully deterministic for a given ``seed``.
        """
        from repro.adversarial.audit import InvariantAuditor
        from repro.adversarial.chaos import ChaosSchedule
        from repro.workload.adversary import AdversaryDriver
        from repro.workload.concurrent import ConcurrentDriver

        platform = self.platform
        fleet = platform.fleet
        if fleet is None:
            raise WorkloadError(
                "chaos marketplace day needs a multi-server fleet "
                "(PlatformConfig.num_buyer_servers > 1)"
            )
        if not platform.config.handshake_trades:
            raise WorkloadError(
                "chaos marketplace day needs handshake-secured trades "
                "(PlatformConfig.handshake_trades=True)"
            )
        if windows <= 0 or sessions_per_window <= 0:
            raise WorkloadError("windows and sessions_per_window must be positive")
        founding = [
            server
            for server in list(fleet.servers)
            if server.name not in fleet.retired
        ]
        for server in founding:
            if server.replication is None or not server.replication.peers:
                raise WorkloadError(
                    "chaos marketplace day needs replication wired "
                    "(PlatformConfig.replication_factor >= 1)"
                )

        users = self._ensure_registered()
        report = ChaosScenarioReport(
            consumers=len(users), started_at_ms=platform.now
        )
        lost_before = fleet.lost_consumers
        counters_before = dict(platform.metrics.snapshot()["counters"])

        # The settle gap must outlast anti-entropy so every window's writes
        # are replicated before the next fault can touch their primary —
        # the serialization that makes "no lost paid transaction" a claim
        # about failover, not luck (see repro.adversarial.chaos).
        settle_ms = 3 * ANTI_ENTROPY_INTERVAL_MS
        schedule = ChaosSchedule.generate(
            hosts=[server.name for server in founding],
            start_ms=platform.now,
            horizon_ms=chaos_horizon_ms,
            seed=seed,
            max_outages=chaos_outages,
            mean_gap_ms=chaos_mean_gap_ms,
            mean_outage_ms=chaos_mean_outage_ms,
            settle_ms=settle_ms,
        )
        chaos_deadline = platform.now + chaos_horizon_ms
        report.chaos_events = schedule.as_dicts()
        report.outages = schedule.outages
        report.victims = schedule.victims()
        platform.failures.apply_plan(schedule.compile(sorted(platform.hosts)))

        by_name = {server.name: server for server in founding}
        pending = list(schedule.events)

        def reconcile() -> None:
            """Fire due chaos events, then repair the fleet's view of them."""
            platform.scheduler.run_until(platform.now)
            # Snapshot the horizon: fleet surgery below ships replica
            # state over the simulated network and advances the clock, and
            # an event due *after* the snapshot but *before* the advanced
            # clock has not had its injector callback fired yet — popping
            # it here would reconcile a recovery whose host is still down.
            horizon = platform.now
            while pending and pending[0].at_ms <= horizon:
                event = pending.pop(0)
                server = by_name[event.host]
                if event.kind == "crash":
                    # The gateway's in-band healing may already have
                    # promoted the dead owner's shards mid-window; only
                    # shards still pointing at the corpse need the
                    # operator-style promotion.
                    shards = fleet.shards_of(server)
                    if shards and not server.context.host.is_running:
                        report.promoted_consumers += fleet.handle_server_failure(
                            shards[0]
                        )
                elif event.kind == "recover":
                    if server.context.host.is_running:
                        report.recovered_purged += fleet.recover_server(server)
                # partition/heal need no fleet surgery: routing heals
                # itself when the links come back.

        adversary = AdversaryDriver(platform, seed=seed)
        for index in range(windows):
            adversary.inject(
                scalpers=scalpers,
                bids_per_scalper=bids_per_scalper,
                protocol_rounds=protocol_rounds,
                flood_requests=flood_requests,
            )
            driver = ConcurrentDriver(
                self.platform, self.population, seed=seed + index
            )
            window = driver.run(
                sessions=sessions_per_window,
                queries_per_session=queries_per_session,
                arrival_rate_per_ms=arrival_rate_per_ms,
                think_time_ms=think_time_ms,
                recommendation_probability=recommendation_probability,
            )
            report.requests += window.requests
            report.completed += window.completed
            report.shed += window.shed
            report.failed_operations += window.failed_operations
            for status, count in window.statuses.items():
                report.statuses[status] = report.statuses.get(status, 0) + count
            report.windows.append(
                {
                    "window": index,
                    "requests": window.requests,
                    "completed": window.completed,
                    "shed": window.shed,
                    "failed_operations": window.failed_operations,
                    "statuses": dict(sorted(window.statuses.items())),
                    "clock_ms": round(platform.now, 3),
                    "hosts_down": sorted(
                        server.name
                        for server in founding
                        if not server.context.host.is_running
                    ),
                }
            )
            reconcile()
        attack_report = adversary.collect()
        report.adversary = attack_report.as_dict()

        # Quiesce: fire whatever the traffic never reached, repair it all,
        # then let anti-entropy settle before auditing convergence.
        platform.scheduler.run_until(max(platform.now, chaos_deadline))
        reconcile()
        platform.scheduler.run_until(platform.now + settle_ms)
        report.lost_consumers = fleet.lost_consumers - lost_before

        counters_after = platform.metrics.snapshot()["counters"]
        prefix = "api.auth.rejected."
        for name, value in sorted(counters_after.items()):
            if name.startswith(prefix):
                delta = int(value - counters_before.get(name, 0.0))
                if delta:
                    report.auth_rejections[name[len(prefix):]] = delta

        statuses = dict(report.statuses)
        for status, count in attack_report.statuses.items():
            statuses[status] = statuses.get(status, 0) + count
        audit = InvariantAuditor(platform).audit(
            statuses=statuses,
            error_codes=attack_report.error_codes,
            require_converged=True,
        )
        report.audit = audit.as_dict()
        report.finished_at_ms = platform.now
        return report
