"""Integration tests for the elastic fleet (PR 9).

Live shard handback (:meth:`BuyerServerFleet.transfer_shard`), live shard
splitting (:meth:`BuyerServerFleet.split_shard`), server join/decommission
/resurrection through the platform facade, the coordinator's shard-map
sync, and the two elastic scenarios end to end.
"""

import pytest

from repro.ecommerce import AutoscalerPolicy, build_platform
from repro.errors import ECommerceError
from repro.workload import ConsumerPopulation, ScenarioRunner


def make_platform(**overrides):
    defaults = dict(num_buyer_servers=3, replication_factor=1, seed=9)
    defaults.update(overrides)
    return build_platform(**defaults)


def profile_snapshot(user_db, user_id):
    profile = user_db.profile(user_id)
    return {
        name: category.flattened_terms().as_dict()
        for name, category in profile.categories.items()
    }


def populate(platform, count=30, queries=2):
    gateway = platform.gateway()
    users = [f"user-{index}" for index in range(count)]
    for user_id in users:
        gateway.register(user_id)
        gateway.login(user_id)
        for _ in range(queries):
            gateway.query(user_id, "book")
        gateway.buy(user_id, "book-1")
        gateway.logout(user_id)
    return users


class TestTransferShard:
    def test_handback_moves_every_consumer_with_full_state(self):
        platform = make_platform()
        fleet = platform.fleet
        users = populate(platform)
        source = fleet.owner_of_shard(0)
        target = fleet.owner_of_shard(1)
        moved_users = fleet.consumers_of(0)
        before = {
            user_id: (
                source.user_db.user(user_id).logins,
                len(source.user_db.transactions_of(user_id)),
                profile_snapshot(source.user_db, user_id),
            )
            for user_id in moved_users
        }

        moved = fleet.transfer_shard(0, target)

        assert moved == len(moved_users) > 0
        assert fleet.owner_of_shard(0) is target
        for user_id in moved_users:
            assert not source.user_db.is_registered(user_id)
            logins, transactions, profile = before[user_id]
            assert target.user_db.user(user_id).logins == logins
            assert len(target.user_db.transactions_of(user_id)) == transactions
            assert profile_snapshot(target.user_db, user_id) == profile
        assert fleet.handbacks == 1
        assert fleet.transferred_consumers == moved
        assert fleet.lost_consumers == 0
        # Every user still answers through the fleet.
        for user_id in users:
            assert fleet.query_similar(user_id) is not None

    def test_transfer_syncs_the_coordinator(self):
        platform = make_platform()
        fleet = platform.fleet
        populate(platform, count=12)
        target = fleet.owner_of_shard(1)
        epoch_before = platform.coordinator.topology()["shard_map_epoch"]
        fleet.transfer_shard(0, target)
        topology = platform.coordinator.topology()
        assert topology["shard_map_epoch"] == fleet.shard_map.epoch
        assert topology["shard_map_epoch"] > epoch_before
        assert 0 in topology["shard_map"][target.name]

    def test_transfer_to_self_is_a_noop(self):
        platform = make_platform()
        fleet = platform.fleet
        populate(platform, count=12)
        owner = fleet.owner_of_shard(0)
        epoch = fleet.shard_map.epoch
        assert fleet.transfer_shard(0, owner) == 0
        assert fleet.shard_map.epoch == epoch

    def test_transfer_validates_target_and_source(self):
        platform = make_platform()
        fleet = platform.fleet
        populate(platform, count=12)
        other = build_platform(num_buyer_servers=2, seed=1)
        with pytest.raises(ECommerceError):
            fleet.transfer_shard(0, other.fleet.servers[0])
        victim = fleet.owner_of_shard(0)
        platform.failures.crash_host(victim.name)
        with pytest.raises(ECommerceError):
            fleet.transfer_shard(0, fleet.owner_of_shard(1))

    def test_gateway_follows_the_consumer_across_topology_changes(self):
        """After a promote, a hand-back and a split step, the next gateway
        request for every consumer is served by ``fleet.server_for``."""
        platform = make_platform()
        fleet = platform.fleet
        users = populate(platform, count=20)
        gateway = platform.gateway()

        def assert_routed(moved):
            for user_id in users:
                assert gateway.login(user_id).ok
                response = gateway.recommendations(user_id, k=3)
                assert response.ok
                assert response.provenance.served_by == fleet.server_for(user_id).name
                assert gateway.logout(user_id).ok
            assert moved

        def owners():
            return {user_id: fleet.server_for(user_id) for user_id in users}

        assert_routed(users)
        before = owners()
        victim = fleet.owner_of_shard(0)
        platform.failures.crash_host(victim.name)
        fleet.handle_server_failure(0)
        assert_routed([u for u, server in owners().items() if server is not before[u]])

        before = owners()
        platform.failures.recover_host(victim.name)
        fleet.recover_server(victim)
        fleet.transfer_shard(0, victim)
        assert_routed([u for u, server in owners().items() if server is not before[u]])

        before = owners()
        split = fleet.split_shard(0, target=fleet.owner_of_shard(1))
        split.step()
        assert_routed([u for u, server in owners().items() if server is not before[u]])
        split.run()
        assert_routed(users)


class TestSplitShard:
    def test_stepwise_split_keeps_the_fleet_serving(self):
        platform = make_platform()
        fleet = platform.fleet
        users = populate(platform)
        target = fleet.owner_of_shard(1)
        split = fleet.split_shard(0, target=target)
        assert split.child == fleet.num_shards - 1
        assert fleet.shard_map.state_of(split.child) == "migrating"
        while not split.done:
            split.step()
            for user_id in users[:8]:
                assert fleet.query_similar(user_id) is not None
        split.finalize()
        assert fleet.shard_map.state_of(split.child) == "steady"
        assert fleet.owner_of_shard(split.child) is target
        assert fleet.splits == 1
        assert fleet.lost_consumers == 0
        # The split sends roughly half of the parent's consumers away.
        movers = fleet.consumers_of(split.child)
        assert movers
        assert fleet.consumers_of(0)

    def test_split_in_place_relabels_without_moving_state(self):
        platform = make_platform()
        fleet = platform.fleet
        populate(platform)
        owner = fleet.owner_of_shard(0)
        consumers_before = set(owner.user_db.user_ids)
        split = fleet.split_shard(0)  # target defaults to the owner
        split.run()
        assert fleet.owner_of_shard(split.child) is owner
        assert set(owner.user_db.user_ids) == consumers_before
        assert fleet.consumers_of(split.child)

    def test_finalize_before_done_is_rejected(self):
        platform = make_platform()
        fleet = platform.fleet
        populate(platform)
        split = fleet.split_shard(0, target=fleet.owner_of_shard(1))
        if split.pending:
            with pytest.raises(ECommerceError):
                split.finalize()
            split.run()


class TestServerLifecycle:
    def test_add_buyer_server_joins_routing_and_replication(self):
        platform = make_platform()
        fleet = platform.fleet
        populate(platform, count=12)
        newcomer = platform.add_buyer_server()
        assert newcomer in fleet.servers
        assert not fleet.shards_of(newcomer)
        assert newcomer.replication is not None
        assert newcomer.replication.peers
        fleet.transfer_shard(0, newcomer)
        assert fleet.owner_of_shard(0) is newcomer

    def test_decommission_requires_empty_shards(self):
        platform = make_platform()
        fleet = platform.fleet
        populate(platform, count=12)
        with pytest.raises(ECommerceError):
            platform.remove_buyer_server(fleet.servers[0])

    def test_decommission_and_resurrect(self):
        platform = make_platform()
        fleet = platform.fleet
        populate(platform, count=18)
        newcomer = platform.add_buyer_server()
        fleet.transfer_shard(0, newcomer)
        fleet.transfer_shard(0, fleet.owner_of_shard(1))
        platform.remove_buyer_server(newcomer)
        assert newcomer.name in fleet.retired
        assert not newcomer.context.host.is_running
        # No survivor should still be streaming to or hosting the retiree.
        for server in fleet.servers:
            if server is newcomer or server.replication is None:
                continue
            assert newcomer.name not in server.replication.peers
            assert newcomer.name not in server.replication.hosted
        # Re-adding resurrects the same server instead of growing the list.
        back = platform.add_buyer_server()
        assert back is newcomer
        assert back.name not in fleet.retired
        assert back.context.host.is_running
        assert back.replication.peers

    def test_stats_carry_the_shard_map_and_fleet_summary(self):
        platform = make_platform()
        fleet = platform.fleet
        populate(platform, count=12)
        payload = platform.stats()
        assert payload["shard_map"]["epoch"] == fleet.shard_map.epoch
        assert payload["fleet"]["servers"] == 3
        assert payload["fleet"]["retired"] == []
        newcomer = platform.add_buyer_server()
        fleet.transfer_shard(0, newcomer)
        payload = platform.stats()
        assert payload["fleet"]["servers"] == 4
        assert payload["fleet"]["handbacks"] == 1
        assert payload["shard_map"]["assignments"][str(0) if isinstance(
            next(iter(payload["shard_map"]["assignments"])), str) else 0
        ] == newcomer.name


class TestElasticScenarios:
    def test_flash_crowd_scales_out_and_drains_back(self):
        platform = make_platform(seed=5)
        population = ConsumerPopulation(size=120, seed=5)
        runner = ScenarioRunner(platform, population, seed=5)
        report = runner.flash_crowd_day(
            sessions_per_window=60,
            policy=AutoscalerPolicy(cooldown_ticks=1),
        )
        assert report.peak_servers > report.initial_servers
        assert report.final_servers == report.initial_servers
        assert report.lost_consumers == 0
        assert report.missing_consumers == 0
        assert any(d["action"] == "scale-out" for d in report.decisions)
        assert any(d["action"] == "scale-in" for d in report.decisions)
        assert report.splits + report.handbacks > 0
        # The envelope taxonomy stays closed under elasticity.
        assert set(report.statuses) <= {
            "ok", "degraded", "failed", "unavailable", "rejected",
        }
        # The epoch only ever moves forward.
        assert report.epoch_trail == sorted(report.epoch_trail)

    def test_rolling_upgrade_restores_the_founding_topology(self):
        platform = make_platform(seed=5)
        population = ConsumerPopulation(size=100, seed=5)
        runner = ScenarioRunner(platform, population, seed=5)
        fleet = platform.fleet
        founding = {
            shard: fleet.shard_map.owner_of(shard)
            for shard in fleet.shard_map.shard_ids()
        }
        report = runner.rolling_upgrade_day(sessions_per_window=25)
        assert report.lost_consumers == 0
        assert report.missing_consumers == 0
        upgrades = [w for w in report.windows if "server" in w]
        assert len(upgrades) == 3
        assert all(w["ownership_restored"] for w in upgrades)
        assert {
            shard: fleet.shard_map.owner_of(shard)
            for shard in founding
        } == founding
        assert set(report.statuses) <= {
            "ok", "degraded", "failed", "unavailable", "rejected",
        }

    def test_rolling_upgrade_requires_replication(self):
        platform = make_platform(replication_factor=0)
        population = ConsumerPopulation(size=20, seed=5)
        runner = ScenarioRunner(platform, population, seed=5)
        with pytest.raises(Exception):
            runner.rolling_upgrade_day(sessions_per_window=5)
