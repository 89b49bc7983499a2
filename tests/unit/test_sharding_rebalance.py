"""Shard routing and rebalancing edge cases.

The equivalence property suite (tests/property/test_sharding.py) covers the
happy paths; these tests pin the corners: registering into an empty shard,
every consumer collapsing onto one shard, category-routed profiles with no
category preferences (must fall back to hash placement, not crash), and
explicit rebalances that grow or shrink the shard count.
"""

import dataclasses
import zlib

import pytest

from repro.errors import ECommerceError, SimilarityError
from repro.core.profile import Profile
from repro.core.profile_learning import FeedbackEvent
from repro.core.ratings import InteractionKind
from repro.core.sharding import ShardRouter, ShardedNeighborIndex
from repro.core.similarity import SimilarityConfig, find_similar_users
from repro.ecommerce.platform_builder import build_platform


def _profile(user_id, category=None, preference=5.0, terms=()):
    profile = Profile(user_id)
    if category is not None:
        entry = profile.category(category)
        entry.preference = preference
        for term, weight in terms:
            entry.terms.set(term, weight)
    return profile


def _ids_hashing_to_same_shard(count, num_shards, shard=0):
    """User ids whose stable hash all lands on one shard (worst-case skew)."""
    found = []
    index = 0
    while len(found) < count:
        candidate = f"user-{index}"
        if zlib.crc32(candidate.encode("utf-8")) % num_shards == shard:
            found.append(candidate)
        index += 1
    return found


class TestShardRouter:
    def test_invalid_configuration_rejected(self):
        with pytest.raises(SimilarityError):
            ShardRouter(0)
        with pytest.raises(SimilarityError):
            ShardRouter(4, strategy="round-robin")

    def test_category_profile_without_preferences_falls_back_to_hash(self):
        router = ShardRouter(4, strategy="category")
        empty = Profile("nobody")
        assert router.shard_for(empty) == router.shard_for_user("nobody")

    def test_category_routing_colocates_same_dominant_category(self):
        router = ShardRouter(4, strategy="category")
        first = _profile("a", "books")
        second = _profile("b", "books")
        assert router.shard_for(first) == router.shard_for(second)


class TestLazyInvalidation:
    """Counter-pinned: hook bursts cost one re-index per *touched* consumer.

    The PR-8 fix — ``ShardedNeighborIndex.on_profile_update`` used to place
    migrating/unplaced consumers eagerly (one full re-index per feedback
    event); now every hook is deferred into a dirty set / pending queue and
    flushed by the next sync, so batch refreshes never recompute untouched
    consumers.
    """

    @staticmethod
    def _population(count=12):
        categories = ["books", "toys", "fashion"]
        return [
            _profile(
                f"user-{index}",
                categories[index % len(categories)],
                preference=3.0 + index,
                terms=[("ab", 1.0 + index)],
            )
            for index in range(count)
        ]

    @staticmethod
    def _rebuilds(index):
        return sum(shard.rebuilds for shard in index.shards)

    def test_same_shard_update_burst_costs_one_rebuild(self):
        profiles = self._population()
        config = SimilarityConfig(min_similarity=0.0)
        index = ShardedNeighborIndex(
            profiles=profiles, config=config, num_shards=3, routing="hash"
        )
        index.find_similar(profiles[0])  # warm every per-consumer cache
        rebuilds_before = self._rebuilds(index)
        mutations_before = index.mutations

        victim = profiles[3]
        for step in range(5):
            victim.category("books").terms.set("ab", 2.0 + step)
            index.on_profile_update(victim)
        # Nothing recomputed yet — the burst only marked state dirty.
        assert self._rebuilds(index) == rebuilds_before
        assert index.mutations == mutations_before

        index.find_similar(profiles[0])
        # The flush re-indexed exactly the touched consumer, nobody else.
        assert self._rebuilds(index) == rebuilds_before + 1
        assert index.mutations == mutations_before + 1

    def test_migrating_update_burst_is_deferred_until_sync(self):
        profiles = self._population()
        config = SimilarityConfig(min_similarity=0.0)
        index = ShardedNeighborIndex(
            profiles=profiles, config=config, num_shards=3, routing="category"
        )
        index.find_similar(profiles[0])
        rebuilds_before = self._rebuilds(index)

        # Shift one consumer's dominant category so the router wants them on
        # a different shard; every event in the burst re-reports the move.
        mover = profiles[0]
        source = index.shard_of(mover.user_id)
        # Pick a dominant category deterministically guaranteed to route the
        # mover onto a different shard (category hashing is stable).
        for candidate in (f"moved-{suffix}" for suffix in range(100)):
            entry = mover.category(candidate)
            entry.preference = 99.0
            entry.terms.set("zz", 5.0)
            if index.router.shard_for(mover) != source:
                break
            mover.categories.pop(candidate, None)
        assert index.router.shard_for(mover) != source
        for _ in range(4):
            index.on_profile_update(mover)
        # Deferred: still on the old shard, nothing re-indexed.
        assert index.shard_of(mover.user_id) == source
        assert self._rebuilds(index) == rebuilds_before

        answers = index.find_similar(mover)
        # One placement happened at sync, and the answer is still exact.
        assert index.shard_of(mover.user_id) == index.router.shard_for(mover)
        assert self._rebuilds(index) == rebuilds_before + 1
        assert answers == find_similar_users(mover, profiles, config)

    def test_batch_refresh_skips_untouched_consumers(self):
        """Service-level: a second batch refresh after one consumer's write
        re-indexes only that consumer."""
        platform = build_platform(seed=7)
        server = platform.buyer_server
        keyword = next(iter(platform.catalog_view())).terms[0][0]
        users = [f"lazy-{index}" for index in range(6)]
        for user_id in users:
            session = platform.login(user_id)
            with pytest.warns(DeprecationWarning):
                results = session.query(keyword)
            session.logout()
        service = server.recommendations
        service.batch_refresh(users, k=5)
        index = service.neighbor_index
        rebuilds_before = index.rebuilds

        # A burst of learning updates, all for one consumer.
        item = next(iter(platform.catalog_view()))
        profile = server.user_db.profile(users[0])
        for step in range(3):
            server.profile_learner.apply(
                profile,
                FeedbackEvent(
                    user_id=users[0],
                    item=item,
                    kind=InteractionKind.VIEW,
                    timestamp=float(step),
                    rating=None,
                ),
            )
        assert index.dirty_users() == {users[0]}

        service.batch_refresh(users, k=5)
        # Only the updated consumer's cache was rebuilt — once for the whole
        # burst; the five untouched consumers were never recomputed.
        assert index.rebuilds == rebuilds_before + 1


class TestShardedIndexEdgeCases:
    def test_registering_into_an_empty_shard(self):
        """A consumer routed to a shard nobody lives in yet indexes fine and
        shows up in queries immediately."""
        config = SimilarityConfig(min_similarity=0.0)
        alice = _profile("alice", "books", terms=[("ab", 1.0)])
        index = ShardedNeighborIndex(config=config, num_shards=4, routing="category")
        index.add(alice)
        assert sum(1 for size in index.shard_sizes() if size == 0) >= 2

        # "fashion" hashes to a different (currently empty) shard than
        # "books"; if not, the router would co-locate and this test would
        # silently weaken, so assert the premise.
        nina = _profile("nina", "fashion", terms=[("ab", 1.0)])
        target_shard = index.router.shard_for(nina)
        assert index.shard_sizes()[target_shard] == 0
        index.add(nina)
        assert index.shard_sizes()[target_shard] == 1

        target = _profile("query", "books", terms=[("ab", 2.0)])
        assert index.find_similar(target) == find_similar_users(
            target, [alice, nina], config
        )

    def test_all_consumers_hashing_to_one_shard(self):
        """Worst-case placement skew must not change results — only balance."""
        num_shards = 4
        user_ids = _ids_hashing_to_same_shard(6, num_shards, shard=2)
        profiles = [
            _profile(uid, "books", preference=float(i + 1), terms=[("ab", 1.0 + i)])
            for i, uid in enumerate(user_ids)
        ]
        config = SimilarityConfig(min_similarity=0.0, discard_tolerance=10.0)
        index = ShardedNeighborIndex(
            profiles=profiles, config=config, num_shards=num_shards, routing="hash"
        )
        sizes = index.shard_sizes()
        assert sizes[2] == len(profiles)
        assert sum(sizes) == len(profiles)
        for target in profiles:
            assert index.find_similar(target, category="books") == find_similar_users(
                target, profiles, config, category="books"
            )

    def test_category_routed_profile_with_no_preferences_is_queryable(self):
        config = SimilarityConfig(min_similarity=0.0)
        cold = Profile("cold-start")
        warm = _profile("warm", "books", terms=[("ab", 1.0)])
        index = ShardedNeighborIndex(
            profiles=[cold, warm], config=config, num_shards=8, routing="category"
        )
        assert index.shard_of("cold-start") == index.router.shard_for_user("cold-start")
        # Querying *for* the cold profile and *about* it both work.
        assert index.find_similar(cold) == find_similar_users(cold, [cold, warm], config)
        assert index.find_similar(warm) == find_similar_users(warm, [cold, warm], config)

    def test_removal_can_empty_a_shard(self):
        index = ShardedNeighborIndex(num_shards=2, routing="hash")
        index.add(_profile("alice", "books"))
        owner = index.shard_of("alice")
        index.remove("alice")
        assert index.shard_sizes()[owner] == 0
        assert "alice" not in index
        index.remove("alice")  # idempotent

    def test_rebalance_grow_and_shrink(self):
        profiles = [
            _profile(f"user-{i}", "books", preference=float(i), terms=[("ab", 1.0)])
            for i in range(10)
        ]
        config = SimilarityConfig(min_similarity=0.0)
        index = ShardedNeighborIndex(profiles=profiles, config=config, num_shards=2)
        expected = find_similar_users(profiles[0], profiles, config)

        index.rebalance(num_shards=16)  # more shards than consumers
        assert index.num_shards == 16
        assert sum(index.shard_sizes()) == len(profiles)
        assert index.find_similar(profiles[0]) == expected

        index.rebalance(num_shards=1)
        assert index.shard_sizes() == [len(profiles)]
        assert index.find_similar(profiles[0]) == expected

    def test_rebalance_can_switch_routing_strategy(self):
        profiles = [_profile(f"user-{i}", "books") for i in range(5)]
        index = ShardedNeighborIndex(profiles=profiles, num_shards=4, routing="hash")
        index.rebalance(routing="category")
        # All profiles share a dominant category, so they all co-locate now.
        assert sorted(index.shard_sizes(), reverse=True)[0] == len(profiles)


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
            shard = fleet.router.shard_for_user(user_id)
            if shard not in seen:
                assert len(fleet.servers[shard].user_db) == 0
                fleet.register_consumer(user_id)
                assert fleet.servers[shard].user_db.is_registered(user_id)
                seen.add(shard)
            index += 1
        assert all(size > 0 for size in fleet.shard_sizes())

    def test_draining_a_live_server_is_refused(self):
        platform = build_platform(seed=11, num_buyer_servers=2)
        platform.login("ann").logout()
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
        platform.login("ann").logout()
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
        session = platform.login("ann")
        session.query("book")
        session.logout()
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
        session = platform.login("ann")
        results = session.query(
            next(iter(platform.catalog_view())).terms[0][0]
        )
        if results:
            session.buy(results[0].item, marketplace=results[0].marketplace)
        session.logout()

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
