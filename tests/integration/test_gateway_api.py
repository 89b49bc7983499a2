"""Integration coverage for the gateway redesign's acceptance criteria.

- **Byte-identity**: gateway query / recommendation / find-similar results on
  one platform equal the raw HttpA replies (and fleet lookups) on a second
  platform built from the same seed, driven through the same message
  sequence.
- **Crash during traffic**: with replication wired, a consumer whose primary
  crashes mid-session gets a ``degraded`` envelope (retry + promotion
  failover re-route), never an unhandled exception, with the failover and
  retry count in the provenance; fleet-wide lookups answer the dead shard
  from its freshest replica and report it stale (quorum fallback).
- **Deadline mid-fan-out**, **retry exhaustion against an all-down fleet**
  and **envelope byte-stability across seeds** — the middleware-chain test
  coverage the issue calls out.
- **Read-repair**: a stale-answered fleet query nudges an immediate
  anti-entropy catch-up for the answering replica and surfaces
  ``repaired`` provenance.
- **Fleet refresh reporting**: ``refresh_all`` reports consumers it could
  not refresh instead of silently dropping them.
"""

from __future__ import annotations

import pytest

from repro.agents.messages import MessageKinds
from repro.api.envelope import ApiStatus
from repro.api.gateway import MAX_RETRIES
from repro.ecommerce.platform_builder import build_platform
from repro.workload.consumers import ConsumerPopulation
from repro.workload.scenarios import ScenarioRunner

CONSUMERS = [f"consumer-{index}" for index in range(8)]


def _keyword(platform) -> str:
    return next(iter(platform.catalog_view())).terms[0][0]


def _fleet_platform(seed=11, **overrides):
    defaults = dict(num_buyer_servers=3, replication_factor=1)
    defaults.update(overrides)
    return build_platform(seed=seed, **defaults)


def _warm_gateway(platform, consumers=CONSUMERS, logout=False):
    """Drive one query per consumer through the gateway; keep sessions open."""
    gateway = platform.gateway()
    keyword = _keyword(platform)
    for user_id in consumers:
        assert gateway.login(user_id).ok
        assert gateway.query(user_id, keyword).ok
        if logout:
            gateway.logout(user_id)
    return gateway


def _httpa(platform, user_id, kind, **payload):
    """One raw request to the consumer's HttpA agent, below the gateway."""
    server = platform.buyer_server_for(user_id)
    reply = server.http_proxy().request(
        kind, sender=f"browser:{user_id}", user_id=user_id, **payload
    )
    assert reply.ok, reply.error
    return reply


class TestByteIdentityWithRawHttpA:
    """Gateway results must equal the HttpA replies they wrap, same seed."""

    def test_query_recommendations_and_similarity_match(self):
        seed = 23
        legacy = build_platform(seed=seed, num_buyer_servers=3)
        modern = build_platform(seed=seed, num_buyer_servers=3)
        keyword = _keyword(legacy)
        gateway = modern.gateway()

        for user_id in CONSUMERS:
            legacy.register_consumer(user_id)
            _httpa(legacy, user_id, MessageKinds.LOGIN)
            raw_query = _httpa(legacy, user_id, MessageKinds.QUERY, keyword=keyword)
            raw_recs = _httpa(
                legacy, user_id, MessageKinds.RECOMMENDATIONS, k=5, category=None
            )

            assert gateway.login(user_id).ok
            response = gateway.query(user_id, keyword)
            recs = gateway.recommendations(user_id, k=5)

            assert [
                (hit.item, hit.price, hit.marketplace, hit.stock)
                for hit in response.result.hits
            ] == [
                (entry["item"], entry["price"], entry["marketplace"], entry["stock"])
                for entry in raw_query.value("results")
            ]
            assert list(response.result.recommendations) == list(
                raw_query.value("recommendations")
            )
            assert list(recs.result.recommendations) == list(
                raw_recs.value("recommendations")
            )

        for user_id in CONSUMERS:
            legacy_neighbors = legacy.fleet.query_similar(user_id).neighbors
            response = gateway.find_similar(user_id)
            assert list(response.result.neighbors) == legacy_neighbors
            assert response.status == ApiStatus.OK

        # Identical traffic ⇒ identical simulated clocks: the gateway charges
        # nothing on the happy path.
        assert modern.now == legacy.now


class TestCrashDuringTraffic:
    """The acceptance scenario: crash mid-traffic, degrade, never raise."""

    def test_quorum_fallback_marks_dead_shard_stale(self):
        platform = _fleet_platform()
        gateway = _warm_gateway(platform)
        fleet = platform.fleet
        victim = fleet.server_for(CONSUMERS[0])
        survivor_consumer = next(
            user_id for user_id in CONSUMERS
            if fleet.server_for(user_id) is not victim
        )
        platform.failures.crash_host(victim.name)

        response = gateway.find_similar(survivor_consumer)
        assert response.status == ApiStatus.DEGRADED
        assert victim.name in response.provenance.stale_shards
        assert response.provenance.unreachable_shards == ()
        assert response.error is None
        # The quorum answer is exact on the replicated prefix: every shard
        # contributed, so the neighbor list is non-trivially populated.
        assert response.result.neighbors

    def test_session_op_against_dead_primary_retries_promotes_and_degrades(self):
        platform = _fleet_platform()
        gateway = _warm_gateway(platform)
        fleet = platform.fleet
        victim = fleet.server_for(CONSUMERS[0])
        platform.failures.crash_host(victim.name)

        response = gateway.query(CONSUMERS[0], _keyword(platform))
        assert response.status == ApiStatus.DEGRADED
        assert response.error is None
        assert response.provenance.failed_over
        assert response.provenance.retries >= 1
        assert fleet.promotions == 1
        promoted = fleet.server_for(CONSUMERS[0])
        assert promoted is not victim
        assert promoted.context.host.is_running
        assert response.provenance.served_by == promoted.name
        assert response.result.hits  # the re-routed query really ran

        # Follow-up requests land on the promoted owner directly: plain ok.
        follow_up = gateway.recommendations(CONSUMERS[0], k=5)
        assert follow_up.status == ApiStatus.OK
        assert follow_up.provenance.retries == 0

    def test_crash_without_replicas_degrades_to_unavailable_not_raise(self):
        platform = build_platform(seed=11, num_buyer_servers=3)  # no replication
        gateway = _warm_gateway(platform)
        victim = platform.fleet.server_for(CONSUMERS[0])
        platform.failures.crash_host(victim.name)
        response = gateway.query(CONSUMERS[0], _keyword(platform))
        assert response.status == ApiStatus.UNAVAILABLE
        assert response.error.code == "host-unreachable"
        # No replica ⇒ the retry middleware must NOT run a memory drain.
        assert platform.fleet.promotions == 0
        assert not response.provenance.failed_over


class TestRetryExhaustionAllDown:
    def test_all_down_fleet_returns_unavailable_never_raises(self):
        platform = _fleet_platform()
        gateway = _warm_gateway(platform)
        for server in platform.fleet.servers:
            if server.context.host.is_running:
                platform.failures.crash_host(server.name)

        response = gateway.query(CONSUMERS[0], _keyword(platform))
        assert response.status == ApiStatus.UNAVAILABLE
        assert response.error is not None and response.error.retryable
        assert response.provenance.retries == MAX_RETRIES
        assert not response.provenance.failed_over

        # A brand-new consumer cannot be routed anywhere either.
        newcomer = gateway.login("newcomer")
        assert newcomer.status == ApiStatus.UNAVAILABLE
        assert newcomer.error.code in ("fleet-unavailable", "host-unreachable")


class TestDeadlineMidFanOut:
    def test_fanout_overrunning_its_budget_returns_deadline_exceeded(self):
        platform = _fleet_platform()
        gateway = _warm_gateway(platform)
        response = gateway.find_similar(CONSUMERS[0], deadline_ms=0.0001)
        assert response.status == ApiStatus.UNAVAILABLE
        assert response.error.code == "deadline-exceeded"
        assert response.result is None
        # Provenance of the work that was done survives: every shard had
        # already answered by the time the deadline fired.
        assert len(response.provenance.shard_latencies_ms) == len(
            platform.fleet.servers
        )
        assert platform.metrics.counter("api.deadline_exceeded").value == 1.0


class TestEnvelopeByteStability:
    """Same seed + same request stream ⇒ byte-identical envelopes."""

    @staticmethod
    def _drive(seed):
        platform = _fleet_platform(seed=seed)
        gateway = platform.gateway()
        keyword = _keyword(platform)
        envelopes = []
        for user_id in CONSUMERS[:4]:
            envelopes.append(gateway.login(user_id))
            envelopes.append(gateway.query(user_id, keyword))
            envelopes.append(gateway.recommendations(user_id, k=5))
            envelopes.append(gateway.find_similar(user_id))
        envelopes.append(gateway.admin_stats())
        return [repr(envelope) for envelope in envelopes]

    @pytest.mark.parametrize("seed", [5, 17])
    def test_repeated_runs_are_byte_identical(self, seed):
        assert self._drive(seed) == self._drive(seed)

    def test_different_seeds_diverge(self):
        # Sanity check that the stability assertion is not vacuous.
        assert self._drive(5) != self._drive(17)


class TestReadRepair:
    def test_stale_answer_triggers_catch_up_and_repaired_provenance(self):
        platform = _fleet_platform(seed=31)
        gateway = _warm_gateway(platform)
        fleet = platform.fleet
        origin = fleet.server_for(CONSUMERS[0])
        # The shard we will make unreachable: a primary that replicates TO a
        # third server (its holder), which must stay reachable from origin.
        primary = next(s for s in fleet.servers if s is not origin)
        holder = primary.replication.peers[0]

        # Build up replication lag: cut the primary→holder stream and let
        # the primary's consumers generate WAL entries.
        platform.network.cut_link(primary.name, holder.name, both_ways=False)
        lagging = [u for u in CONSUMERS if fleet.server_for(u) is primary]
        assert lagging, "seed must place at least one consumer on the primary"
        gateway.recommendations(lagging[0], k=3)
        gateway.rate(lagging[0], next(iter(platform.catalog_view())), 4.0)
        assert primary.replication.lag_of(holder.name) > 0

        # Heal the stream but cut the query path origin→primary: the next
        # fan-out answers the primary's shard from the (lagging) holder.
        platform.network.restore_link(primary.name, holder.name, both_ways=False)
        platform.network.cut_link(origin.name, primary.name, both_ways=False)

        response = gateway.find_similar(CONSUMERS[0])
        assert response.status == ApiStatus.DEGRADED
        assert primary.name in response.provenance.stale_shards
        assert response.provenance.stale_shards[primary.name] > 0
        # The read-repair nudge shipped the missing suffix immediately.
        assert primary.name in response.provenance.repaired_shards
        assert response.provenance.repaired
        assert primary.replication.lag_of(holder.name) == 0
        assert platform.metrics.counter("fleet.fanout.read_repairs").value == 1.0
        payload = platform.event_log.last_payload("fleet.read-repair")
        assert payload["lag_before"] > 0
        assert payload["lag_after"] == 0

    def test_crashed_primary_cannot_be_repaired(self):
        platform = _fleet_platform(seed=31)
        gateway = _warm_gateway(platform)
        fleet = platform.fleet
        victim = next(
            s for s in fleet.servers
            if s is not fleet.server_for(CONSUMERS[0])
        )
        platform.failures.crash_host(victim.name)
        response = gateway.find_similar(CONSUMERS[0])
        assert victim.name in response.provenance.stale_shards
        assert response.provenance.repaired_shards == ()
        assert not response.provenance.repaired


class TestFleetRefreshReporting:
    def test_complete_refresh_reports_no_gaps(self):
        platform = _fleet_platform(seed=11)
        _warm_gateway(platform)
        report = platform.fleet.refresh_all(k=3)
        assert set(report.results) == set(CONSUMERS)
        assert report.complete
        assert report.skipped_servers == []

    def test_down_server_consumers_are_reported_skipped(self):
        platform = _fleet_platform(seed=11)
        _warm_gateway(platform)
        fleet = platform.fleet
        victim = fleet.server_for(CONSUMERS[0])
        expected_skipped = set(fleet.consumers_served_by(victim))
        platform.failures.crash_host(victim.name)

        report = fleet.refresh_all(k=3)
        assert not report.complete
        assert victim.name in report.skipped_servers
        assert set(report.skipped_consumers) == expected_skipped
        assert set(report.results) == set(CONSUMERS) - expected_skipped

    def test_consumers_lost_to_a_crash_are_reported_missing(self):
        """Assignment says a live server owns them; its UserDB disagrees."""
        platform = _fleet_platform(seed=11)
        _warm_gateway(platform)
        fleet = platform.fleet
        server = fleet.server_for(CONSUMERS[0])
        # Simulate state loss behind the fleet's back (the mid-refresh-crash
        # shape: the assignment survived, the durable record did not).
        server.user_db.unregister(CONSUMERS[0])

        report = fleet.refresh_all(k=3)
        assert CONSUMERS[0] in report.missing_consumers
        assert CONSUMERS[0] not in report.results
        assert not report.complete
        payload = platform.event_log.last_payload("fleet.refresh-consumer-missing")
        assert payload["user_id"] == CONSUMERS[0]
        assert platform.metrics.counter("fleet.refresh.missing").value == 1.0

    def test_scheduled_tick_reports_missing_consumers_too(self):
        """The scheduled fleet tick shares refresh_all's reporting path."""
        platform = _fleet_platform(seed=11)
        _warm_gateway(platform)
        fleet = platform.fleet
        server = fleet.server_for(CONSUMERS[0])
        server.user_db.unregister(CONSUMERS[0])

        fleet.start_periodic_refresh(100.0, k=3)
        try:
            platform.scheduler.clock.advance_by(150.0)
            platform.scheduler.run_until(platform.now)
        finally:
            fleet.stop_periodic_refresh()
        assert platform.event_log.count("fleet.refresh-consumer-missing") >= 1
        assert platform.metrics.counter("fleet.refresh.missing").value >= 1.0


class TestWritesAreNotReplayed:
    def test_trade_is_not_retried_after_mid_flight_loss(self):
        """A reply lost after the marketplace applied a trade must surface as
        an envelope error, never be silently re-executed (double purchase)."""
        platform = _fleet_platform(seed=11)
        gateway = _warm_gateway(platform)
        user = CONSUMERS[0]
        hit = gateway.query(user, _keyword(platform)).result.hits[0]
        owner = platform.fleet.server_for(user)
        # Sever the owner's link to the marketplace that holds the item: the
        # trade MBA cannot be dispatched, a mid-flight network failure.
        platform.network.cut_link(owner.name, hit.marketplace)

        response = gateway.buy(user, hit.item, marketplace=hit.marketplace)
        assert response.failed
        assert response.provenance.retries == 0, "writes must not auto-retry"

    def test_mid_flight_host_unreachable_does_not_replay_a_trade(self):
        """Same error *code* as the gateway's pre-dispatch check, different
        origin: a crashed marketplace fails the trade MBA mid-flight, and
        the write must not be replayed just because the code matches."""
        platform = _fleet_platform(seed=11)
        gateway = _warm_gateway(platform)
        user = CONSUMERS[0]
        hit = gateway.query(user, _keyword(platform)).result.hits[0]
        platform.failures.crash_host(hit.marketplace)

        response = gateway.buy(user, hit.item, marketplace=hit.marketplace)
        assert response.failed
        assert response.provenance.retries == 0, "writes must not auto-retry"

    def test_trade_is_retried_when_routing_failed_before_any_work(self):
        """The gateway's own pre-dispatch liveness failure is retry-safe even
        for writes: no marketplace saw the request, so promotion + replay
        cannot double-apply anything."""
        platform = _fleet_platform(seed=11)
        gateway = _warm_gateway(platform)
        user = CONSUMERS[0]
        hit = gateway.query(user, _keyword(platform)).result.hits[0]
        platform.failures.crash_host(platform.fleet.server_for(user).name)

        response = gateway.buy(user, hit.item, marketplace=hit.marketplace)
        assert response.ok
        assert response.status == ApiStatus.DEGRADED
        assert response.provenance.failed_over
        assert response.provenance.retries >= 1


class TestScenariosRideTheGateway:
    def test_warm_up_drives_every_operation_through_the_gateway(self):
        platform = _fleet_platform(seed=7)
        population = ConsumerPopulation(8, groups=2, seed=7)
        runner = ScenarioRunner(platform, population, seed=7)
        report = runner.warm_up(sessions_per_consumer=1, queries_per_session=2)
        assert report.sessions == 8
        assert report.failed_operations == 0
        requests = platform.metrics.counter("api.requests").value
        # login + 2 queries + recommendations + logout per consumer, plus trades.
        assert requests >= 8 * 5
        assert platform.metrics.counter("api.status.ok").value > 0
