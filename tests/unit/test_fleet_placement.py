"""Fleet consumer placement, fan-out exactness and per-consumer migration.

The golden placement test pins the stable consumer hash the fleet routes by:
a consumer's server must never depend on the process, the hash seed or which
module computes the hash.  The fleet is the only partitioning of the
community, so its fan-out must answer exactly like one index over everyone,
whatever the placement — even when every consumer lands on one server.
"""

import dataclasses
import zlib

import pytest

from repro.errors import ECommerceError
from repro.core.neighbors import ProfileNeighborIndex
from repro.core.shard_map import ShardMap
from repro.core.similarity import find_similar_users
from repro.ecommerce.platform_builder import build_platform


#: ``fleet.shard_of(f"consumer-{n:02d}")`` for n = 0..49, one digit per id.
GOLDEN_PLACEMENT = {
    2: "11110000110000111100111100001100001111001111000011",
    3: "00210110101112021021001001210200112101001011011011",
    4: "31312020132020313102131302023102021313203131202013",
    5: "20333302420001104431220420113433443320333144031041",
}


@pytest.mark.parametrize("num_buyer_servers", sorted(GOLDEN_PLACEMENT))
def test_placement_is_the_golden_stable_hash(num_buyer_servers):
    fleet = build_platform(seed=3, num_buyer_servers=num_buyer_servers).fleet
    placement = "".join(
        str(fleet.shard_of(f"consumer-{number:02d}")) for number in range(50)
    )
    assert placement == GOLDEN_PLACEMENT[num_buyer_servers]


def test_base_shard_is_crc32_modulo_the_founding_count():
    user_ids = [f"consumer-{number:02d}" for number in range(50)] + ["", "zoë", "ann"]
    for founding in range(1, 9):
        shard_map = ShardMap([f"server-{number}" for number in range(founding)])
        for user_id in user_ids:
            expected = zlib.crc32(user_id.encode("utf-8")) % founding
            assert shard_map.base_shard(user_id) == expected


def _visit(gateway, user_id, keyword, buy=False):
    """Login, one query (and optionally a buy of the first hit), logout."""
    assert gateway.login(user_id).ok
    hits = gateway.query(user_id, keyword).result.hits
    if buy and hits:
        assert gateway.buy(user_id, hits[0].item, marketplace=hits[0].marketplace).ok
    gateway.logout(user_id)


def _community(num_buyer_servers, user_ids, seed=11, **config):
    """A fleet platform where ``user_ids`` learned profiles from varied visits."""
    platform = build_platform(seed=seed, num_buyer_servers=num_buyer_servers, **config)
    gateway = platform.gateway()
    items = list(platform.catalog_view())
    for number, user_id in enumerate(user_ids):
        item = items[(7 * number) % len(items)]
        _visit(gateway, user_id, item.terms[0][0], buy=number % 3 == 0)
    return platform


def _every_profile(fleet):
    return [
        server.user_db.profile(user_id)
        for server in fleet.servers
        for user_id in server.user_db.user_ids
    ]


CONSUMERS = [f"consumer-{number}" for number in range(10)]


class TestFanoutExactness:
    @pytest.mark.parametrize("num_buyer_servers", [2, 3, 4, 5])
    @pytest.mark.parametrize("by_category", [False, True], ids=["all", "category"])
    def test_fanout_equals_one_index_over_the_community(
        self, num_buyer_servers, by_category
    ):
        platform = _community(num_buyer_servers, CONSUMERS)
        fleet = platform.fleet
        profiles = _every_profile(fleet)
        assert sorted(profile.user_id for profile in profiles) == sorted(CONSUMERS)
        config = fleet.servers[0].recommendations.similarity_config
        category = next(iter(platform.catalog_view())).category if by_category else None
        single = ProfileNeighborIndex(profiles=profiles, config=config)
        answered = 0
        for target in profiles:
            result = fleet.query_similar(target.user_id, category=category)
            assert not result.degraded
            brute = find_similar_users(target, profiles, config, category=category)
            assert result.neighbors == brute
            assert single.find_similar(target, category=category) == brute
            answered += bool(brute)
        assert answered

    def test_replicas_never_answer_a_healthy_fanout(self):
        """With replication on, each consumer still counts once: replicas
        stand in only for unreachable servers."""
        platform = _community(3, CONSUMERS, replication_factor=1)
        fleet = platform.fleet
        assert all(fleet.replica_holders(server) for server in fleet.servers)
        profiles = _every_profile(fleet)
        config = fleet.servers[0].recommendations.similarity_config
        for target in profiles:
            result = fleet.query_similar(target.user_id)
            assert not result.degraded and not result.stale_shards
            assert result.neighbors == find_similar_users(target, profiles, config)

    @pytest.mark.parametrize("num_buyer_servers", [3, 5])
    def test_every_consumer_lives_on_exactly_one_server(self, num_buyer_servers):
        platform = _community(num_buyer_servers, CONSUMERS)
        fleet = platform.fleet
        assert sum(fleet.shard_sizes()) == len(CONSUMERS)
        for server in fleet.servers:
            index = server.recommendations.neighbor_index
            index.sync()
            assert sorted(server.user_db.user_ids) == fleet.consumers_served_by(server)
            assert sorted(
                profile.user_id for profile in index.indexed_profiles()
            ) == fleet.consumers_served_by(server)
        for user_id in CONSUMERS:
            holders = [
                server for server in fleet.servers
                if server.user_db.is_registered(user_id)
            ]
            assert holders == [fleet.server_for(user_id)]

    def test_placement_skewed_onto_one_server_changes_no_answer(self):
        """Worst-case skew changes balance only: the empty servers answer
        the fan-out with nothing and the merge is still exact."""
        probe = ShardMap(["a", "b", "c", "d"])
        skewed = []
        number = 0
        while len(skewed) < 6:
            if probe.base_shard(f"user-{number}") == 2:
                skewed.append(f"user-{number}")
            number += 1
        platform = _community(4, skewed)
        fleet = platform.fleet
        assert fleet.shard_sizes() == [0, 0, len(skewed), 0]
        profiles = _every_profile(fleet)
        config = fleet.servers[0].recommendations.similarity_config
        for target in profiles:
            result = fleet.query_similar(target.user_id)
            assert len(result.shard_latencies_ms) == 4
            assert result.neighbors == find_similar_users(target, profiles, config)

    def test_learning_and_registration_reach_the_next_fanout(self):
        """Each server's index follows its own UserDB: a consumer learning
        more and a newcomer registering both show in the next fan-out."""
        platform = _community(3, CONSUMERS)
        fleet = platform.fleet
        for user_id in CONSUMERS:
            fleet.query_similar(user_id)  # warm every server's index
        items = list(platform.catalog_view())
        gateway = platform.gateway()
        _visit(gateway, CONSUMERS[1], items[3].terms[0][0], buy=True)
        _visit(gateway, "newcomer", items[0].terms[0][0])

        profiles = _every_profile(fleet)
        assert "newcomer" in {profile.user_id for profile in profiles}
        config = fleet.servers[0].recommendations.similarity_config
        for target in profiles:
            assert fleet.query_similar(target.user_id).neighbors == (
                find_similar_users(target, profiles, config)
            )

    def test_a_migrated_consumer_changes_no_answer(self):
        platform = _community(3, CONSUMERS)
        fleet = platform.fleet
        before = {
            user_id: fleet.query_similar(user_id).neighbors for user_id in CONSUMERS
        }
        assert any(before.values())
        mover = CONSUMERS[0]
        target_shard = (fleet.shard_of(mover) + 1) % fleet.num_shards
        fleet.migrate_consumer(mover, target_shard)
        assert fleet.shard_of(mover) == target_shard
        for user_id in CONSUMERS:
            assert fleet.query_similar(user_id).neighbors == before[user_id]


class TestFleetRebalanceEdgeCases:
    def test_register_into_an_empty_fleet_shard(self):
        platform = build_platform(seed=11, num_buyer_servers=3)
        fleet = platform.fleet
        # Find a consumer routed to each server; the first registration into
        # a server with zero consumers is the empty-shard case.
        seen = set()
        index = 0
        while len(seen) < 3:
            user_id = f"consumer-{index}"
            shard = fleet.shard_map.base_shard(user_id)
            if shard not in seen:
                assert len(fleet.servers[shard].user_db) == 0
                fleet.register_consumer(user_id)
                assert fleet.servers[shard].user_db.is_registered(user_id)
                seen.add(shard)
            index += 1
        assert all(size > 0 for size in fleet.shard_sizes())

    def test_draining_a_live_server_is_refused(self):
        platform = build_platform(seed=11, num_buyer_servers=2)
        assert platform.gateway().login("ann").ok
        assert platform.gateway().logout("ann").ok
        with pytest.raises(ECommerceError):
            platform.fleet.handle_server_failure(0)

    @pytest.mark.parametrize(
        "selectors",
        [(True,), (False,), (None, "drain"), (None, "memory"), (True, "promote")],
    )
    def test_failover_path_is_not_selectable(self, selectors):
        """The path is picked from live replicas, never by the caller; the
        two legacy parameters only accept the frozen benchmark's
        ``(None, "promote")``."""
        platform = build_platform(seed=11, num_buyer_servers=2)
        fleet = platform.fleet
        assert platform.gateway().login("ann").ok
        assert platform.gateway().logout("ann").ok
        shard = fleet.shard_of("ann")
        platform.failures.crash_host(fleet.servers[shard].name)
        with pytest.raises(ECommerceError, match="no longer selectable"):
            fleet.handle_server_failure(shard, *selectors)
        assert fleet.shard_of("ann") == shard  # nothing moved
        assert fleet.handle_server_failure(shard, None, "promote") == 1
        assert fleet.server_for("ann").context.host.is_running

    def test_migration_moves_profile_and_ratings(self):
        platform = build_platform(seed=11, num_buyer_servers=2)
        fleet = platform.fleet
        _visit(platform.gateway(), "ann", "book")
        source = fleet.shard_of("ann")
        target = 1 - source
        source_db = fleet.servers[source].user_db
        target_db = fleet.servers[target].user_db
        profile_before = source_db.profile("ann").to_dict()
        interactions_before = len(source_db.ratings.interactions_of("ann"))
        record_before = dataclasses.asdict(source_db.user("ann"))
        assert record_before["logins"] == 1

        fleet.migrate_consumer("ann", target)

        assert not source_db.is_registered("ann")
        assert target_db.is_registered("ann")
        assert dataclasses.asdict(target_db.user("ann")) == record_before
        assert target_db.profile("ann").to_dict() == profile_before
        assert len(target_db.ratings.interactions_of("ann")) == interactions_before
        assert fleet.shard_of("ann") == target
        # The source server forgets the consumer completely: registration,
        # ratings (no ghost collaborative neighbour) and provider-backed index.
        assert source_db.ratings.interactions_of("ann") == []
        assert "ann" not in source_db.ratings.users
        source_index = fleet.servers[source].recommendations.neighbor_index
        source_index.sync()
        assert "ann" not in source_index

    def test_migration_round_trip_does_not_double_count(self):
        """Migrating a consumer away and back must not duplicate their
        ratings, transactions or profile signal on either server."""
        platform = build_platform(seed=11, num_buyer_servers=2)
        fleet = platform.fleet
        keyword = next(iter(platform.catalog_view())).terms[0][0]
        _visit(platform.gateway(), "ann", keyword, buy=True)

        home = fleet.shard_of("ann")
        home_db = fleet.servers[home].user_db
        away = 1 - home
        interactions = len(home_db.ratings.interactions_of("ann"))
        transactions = len(home_db.transactions_of("ann"))
        profile = home_db.profile("ann").to_dict()
        record = dataclasses.asdict(home_db.user("ann"))

        fleet.migrate_consumer("ann", away)
        fleet.migrate_consumer("ann", home)

        assert dataclasses.asdict(home_db.user("ann")) == record
        assert record["logins"] == 1 and record["last_login_at"] > 0.0
        assert len(home_db.ratings.interactions_of("ann")) == interactions
        assert len(home_db.transactions_of("ann")) == transactions
        assert home_db.profile("ann").to_dict() == profile
        away_db = fleet.servers[away].user_db
        assert not away_db.is_registered("ann")
        assert away_db.ratings.interactions_of("ann") == []
