"""Scheduler-driven recommendation refresh of a buyer server fleet.

The periodic batch refresh is a scheduled platform event
(:meth:`BuyerServerFleet.start_periodic_refresh`).  These tests pin down the
contract: the event fires at the configured simulated interval, re-arms
itself, survives a server failure/recovery cycle and never double-refreshes
a consumer that migrated shards mid-interval.
"""

import pytest

from repro.errors import ECommerceError
from repro.ecommerce.platform_builder import build_platform


def _refresh_events(platform):
    return platform.event_log.by_category("recommendation.scheduled-refresh")


def _skip_events(platform):
    return platform.event_log.by_category("recommendation.refresh-skipped")


class TestFleetScheduledRefresh:
    def _fleet_platform(self):
        platform = build_platform(seed=7, num_buyer_servers=3)
        gateway = platform.gateway()
        for index in range(9):
            assert gateway.login(f"user-{index}").ok
            assert gateway.logout(f"user-{index}").ok
        return platform

    def test_fires_at_interval_and_rearms(self):
        platform = self._fleet_platform()
        start = platform.now

        task = platform.fleet.start_periodic_refresh(500.0, k=5)
        platform.scheduler.run_until(start + 2250.0)

        assert task.fires == 4
        assert platform.fleet.scheduled_refreshes == 4
        timestamps = sorted({event.timestamp for event in _refresh_events(platform)})
        assert timestamps == pytest.approx(
            [start + 500.0, start + 1000.0, start + 1500.0, start + 2000.0]
        )
        # Every registered consumer was refreshed and is served from cache.
        for index in range(9):
            server = platform.fleet.server_for(f"user-{index}")
            assert server.recommendations.cached_recommendations(
                f"user-{index}"
            ) is not None

    def test_stop_cancels_and_double_start_rejected(self):
        platform = self._fleet_platform()
        fleet = platform.fleet
        start = platform.now
        fleet.start_periodic_refresh(100.0)
        with pytest.raises(ECommerceError):
            fleet.start_periodic_refresh(100.0)
        platform.scheduler.run_until(start + 250.0)
        fleet.stop_periodic_refresh()
        platform.scheduler.run_until(start + 1000.0)
        assert fleet.scheduled_refreshes == 2
        # A stopped refresh can be re-armed.
        task = fleet.start_periodic_refresh(100.0)
        platform.scheduler.run_until(start + 1150.0)
        assert task.fires == 1
        assert fleet.scheduled_refreshes == 3

    def test_non_positive_interval_rejected(self):
        platform = self._fleet_platform()
        with pytest.raises(ECommerceError):
            platform.fleet.start_periodic_refresh(0.0)
        with pytest.raises(ECommerceError):
            platform.fleet.start_periodic_refresh(-10.0)

    def test_survives_failure_and_recovery_cycle(self):
        """Ticks during the outage are skipped (and recorded), not fatal; the
        recurrence stays armed and refreshes resume after recovery."""
        platform = self._fleet_platform()
        server = platform.fleet.servers[1]
        start = platform.now

        platform.fleet.start_periodic_refresh(500.0, k=5)
        platform.scheduler.run_until(start + 750.0)       # one refresh at +500
        assert server.batch_refreshes == 1

        platform.failures.crash_host(server.context.host.name)
        platform.scheduler.run_until(start + 1750.0)      # +1000, +1500 skipped
        assert server.batch_refreshes == 1
        assert server.refresh_skips == 2
        skipped = _skip_events(platform)
        assert len(skipped) == 2
        assert skipped[0].payload["reason"] == "host-down"

        platform.failures.recover_host(server.context.host.name)
        platform.scheduler.run_until(start + 2750.0)      # +2000, +2500 refresh
        assert server.batch_refreshes == 3
        assert server.refresh_skips == 2

    def test_each_consumer_refreshed_exactly_once_per_tick(self):
        platform = self._fleet_platform()
        start = platform.now
        platform.fleet.start_periodic_refresh(400.0, k=5)
        platform.scheduler.run_until(start + 500.0)

        events = _refresh_events(platform)
        assert len(events) == 3  # one per live server for the single tick
        refreshed = [uid for event in events for uid in event.payload["user_ids"]]
        assert sorted(refreshed) == sorted(set(refreshed))
        assert sorted(refreshed) == [f"user-{index}" for index in range(9)]
        # Each server caches exactly its own consumers, nobody else's.
        for server in platform.fleet.servers:
            cached = [
                uid for uid in refreshed
                if server.recommendations.cached_recommendations(uid) is not None
            ]
            assert sorted(cached) == sorted(server.user_db.user_ids)

    def test_migrated_consumer_not_double_refreshed(self):
        """A consumer that changes shards between two ticks is refreshed once
        per tick — by its old owner before, by its new owner after, never by
        both within one tick."""
        platform = self._fleet_platform()
        fleet = platform.fleet
        start = platform.now
        fleet.start_periodic_refresh(400.0, k=5)
        platform.scheduler.run_until(start + 500.0)  # tick 1

        mover = "user-0"
        source = fleet.shard_of(mover)
        target = (source + 1) % fleet.num_shards
        fleet.migrate_consumer(mover, target)

        platform.scheduler.run_until(start + 900.0)  # tick 2
        events = _refresh_events(platform)
        tick2 = [e for e in events if e.timestamp > start + 500.0]
        owners = [
            e.source for e in tick2 if mover in e.payload["user_ids"]
        ]
        assert owners == [fleet.servers[target].name]
        # Across the whole tick the mover appears exactly once.
        refreshed = [uid for e in tick2 for uid in e.payload["user_ids"]]
        assert refreshed.count(mover) == 1
        assert sorted(refreshed) == [f"user-{index}" for index in range(9)]

    def test_failed_server_drained_and_refresh_flows_around_it(self):
        platform = self._fleet_platform()
        fleet = platform.fleet
        start = platform.now
        fleet.start_periodic_refresh(400.0, k=5)

        victim = 1
        victim_consumers = fleet.consumers_of(victim)
        platform.failures.crash_host(fleet.servers[victim].context.host.name)
        moved = fleet.handle_server_failure(victim)
        assert moved == len(victim_consumers)
        assert fleet.shard_sizes()[victim] == 0

        platform.scheduler.run_until(start + 500.0)
        events = _refresh_events(platform)
        assert len(events) == 2  # the crashed server skipped its slice
        refreshed = sorted(
            uid for event in events for uid in event.payload["user_ids"]
        )
        assert refreshed == [f"user-{index}" for index in range(9)]
        assert fleet.servers[victim].refresh_skips == 1
