"""Fleet fan-out accounting: max-of-shards clock charging and degraded mode.

PR 2's fleet visited shards sequentially and charged the simulated network
nothing for the fan-out; these tests pin the new contract: all shard RPCs are
dispatched at once, the clock pays ``max`` of the per-shard round trips plus
the merge cost (never the sum), per-shard timings land in platform metrics,
and shards that cannot answer are *reported* — not silently skipped.
"""

import itertools

import pytest

from repro.core.neighbors import ProfileNeighborIndex
from repro.core.profile import Profile
from repro.core.shard_map import merge_topk
from repro.core.similarity import SimilarityConfig, find_similar_users
from repro.ecommerce.platform_builder import build_platform


def _query_keyword(platform):
    return next(iter(platform.catalog_view())).terms[0][0]


def _warmed_fleet_platform(num_buyer_servers=3, seed=11):
    """A fleet platform where several consumers have learned profiles."""
    platform = build_platform(seed=seed, num_buyer_servers=num_buyer_servers)
    keyword = _query_keyword(platform)
    gateway = platform.gateway()
    for index in range(8):
        user_id = f"consumer-{index}"
        assert gateway.login(user_id).ok
        assert gateway.query(user_id, keyword).ok
        assert gateway.logout(user_id).ok
    return platform


def _tied_profile(user_id, preference=3.0, term_weight=1.5):
    """Profiles that are exact clones except for their id: guaranteed score ties."""
    profile = Profile(user_id)
    profile.category("books").preference = preference
    profile.category("books").terms.set("fantasy", term_weight)
    return profile


class TestMergeTopkTieBreaking:
    """Regression for the tie-break satellite: equal-score candidates must
    order deterministically by user id, independent of shard count and of
    the order the per-shard responses arrive in."""

    def test_ties_order_by_user_id_for_every_arrival_order(self):
        lists = [
            [("delta", 0.5), ("alpha", 0.25)],
            [("bravo", 0.5), ("echo", 0.25)],
            [("charlie", 0.5)],
        ]
        expected = [("bravo", 0.5), ("charlie", 0.5), ("delta", 0.5), ("alpha", 0.25)]
        for permutation in itertools.permutations(lists):
            assert merge_topk(list(permutation), 4) == expected

    def test_tie_at_the_topk_boundary_keeps_the_smallest_ids(self):
        lists = [[("zed", 0.5)], [("amy", 0.5)], [("moe", 0.5)]]
        for permutation in itertools.permutations(lists):
            assert merge_topk(list(permutation), 2) == [("amy", 0.5), ("moe", 0.5)]

    def test_duplicate_user_across_lists_is_scored_once_with_its_best_score(self):
        """A stale replica answering for an unreachable shard can report a
        consumer their new owner also reported: the duplicate must collapse
        instead of occupying two top-k slots."""
        lists = [
            [("ann", 0.9), ("bob", 0.4)],
            [("ann", 0.7), ("cat", 0.6)],  # stale copy of ann, lower score
        ]
        merged = merge_topk(lists, 3)
        assert merged == [("ann", 0.9), ("cat", 0.6), ("bob", 0.4)]
        assert merge_topk(list(reversed(lists)), 3) == merged

    @pytest.mark.parametrize("num_shards", range(1, 9))
    def test_sharded_queries_with_deliberate_ties_match_brute_force(self, num_shards):
        """Partition counts 1-8 over a population full of exact clones: the
        merge of per-partition top-k lists must equal brute force byte for
        byte even though every clone ties."""
        config = SimilarityConfig(top_k=6)
        # Three tie groups of five clones each; ids interleaved so the
        # round-robin partitions scatter each group.
        profiles = [
            _tied_profile(f"user-{group}-{index}", preference=2.0 + group)
            for index in range(5)
            for group in range(3)
        ]
        target = _tied_profile("target", preference=3.0)
        partitions = [
            ProfileNeighborIndex(profiles=profiles[shard::num_shards], config=config)
            for shard in range(num_shards)
        ]
        merged = merge_topk(
            [partition.find_similar(target) for partition in partitions], config.top_k
        )
        assert merged == find_similar_users(target, profiles, config)


class TestClockAccounting:
    def test_charged_latency_is_max_of_shards_plus_merge_not_sum(self):
        platform = _warmed_fleet_platform()
        fleet = platform.fleet
        owner = fleet.server_for("consumer-0")
        peers = [server for server in fleet.servers if server is not owner]
        # Distinct, asymmetric link latencies so max != mean != sum.
        for latency, peer in zip((10.0, 40.0), peers):
            platform.network.set_latency(owner.name, peer.name, latency)
            platform.network.set_latency(peer.name, owner.name, latency)

        before = platform.now
        result = fleet.query_similar("consumer-0")
        charged = platform.now - before

        assert charged == pytest.approx(result.latency_ms)
        assert len(result.shard_latencies_ms) == len(fleet.servers)
        slowest = max(result.shard_latencies_ms.values())
        assert result.latency_ms == pytest.approx(slowest + result.merge_ms)
        # The slowest round trip rides on the 40ms links (2 x 40 + transfer).
        assert slowest >= 80.0
        # Emphatically NOT the sequential sum of all shard round trips.
        assert charged < sum(result.shard_latencies_ms.values())

    def test_per_shard_timings_are_in_platform_metrics(self):
        platform = _warmed_fleet_platform()
        fleet = platform.fleet
        result = fleet.query_similar("consumer-0")
        for server in fleet.servers:
            timer = platform.metrics.timer(
                f"fleet.fanout.shard.{server.name}.latency_ms"
            )
            assert timer.latest == pytest.approx(
                result.shard_latencies_ms[server.name]
            )
        total = platform.metrics.timer("fleet.fanout.latency_ms")
        assert total.latest == pytest.approx(result.latency_ms)
        assert platform.metrics.counter("fleet.fanout.queries").value == 1.0

    def test_fanout_event_records_per_shard_latencies(self):
        platform = _warmed_fleet_platform()
        fleet = platform.fleet
        result = fleet.query_similar("consumer-0")
        payload = platform.event_log.last_payload("fleet.fanout-query")
        assert payload is not None
        assert payload["user_id"] == "consumer-0"
        assert payload["shard_latencies"] == result.shard_latencies_ms
        assert payload["unreachable"] == []


class TestDegradedMode:
    def test_partitioned_shard_is_reported_not_silently_skipped(self):
        platform = _warmed_fleet_platform()
        fleet = platform.fleet
        owner = fleet.server_for("consumer-0")
        peer = next(server for server in fleet.servers if server is not owner)
        full = fleet.query_similar("consumer-0")
        assert not full.degraded

        platform.failures.partition([owner.name], [peer.name])
        result = fleet.query_similar("consumer-0")

        assert result.degraded
        assert len(result.unreachable_shards) == 1
        assert result.unreachable_shards == (peer.name,)
        # The merge ran over the reachable community only: no consumer owned
        # by the partitioned server can appear in the answer.
        partitioned_users = set(peer.user_db.user_ids)
        assert not partitioned_users & {uid for uid, _ in result.neighbors}
        assert (
            platform.metrics.counter("fleet.fanout.unreachable_shards").value == 1.0
        )

        platform.failures.heal()
        healed = fleet.query_similar("consumer-0")
        assert not healed.degraded
        assert healed.neighbors == full.neighbors

    def test_crashed_shard_is_reported_unreachable(self):
        platform = _warmed_fleet_platform()
        fleet = platform.fleet
        owner = fleet.server_for("consumer-0")
        peer = next(server for server in fleet.servers if server is not owner)
        platform.failures.crash_host(peer.name)

        result = fleet.query_similar("consumer-0")
        assert result.degraded
        assert peer.name in result.unreachable_shards
        assert peer.name not in result.shard_latencies_ms

    def test_cut_response_link_counts_as_timeout(self):
        """A shard whose response leg is down did the work but never answered."""
        platform = _warmed_fleet_platform()
        fleet = platform.fleet
        owner = fleet.server_for("consumer-0")
        peer = next(server for server in fleet.servers if server is not owner)
        platform.network.cut_link(peer.name, owner.name, both_ways=False)

        result = fleet.query_similar("consumer-0")
        assert result.unreachable_shards == (peer.name,)

    def test_degraded_query_never_raises_even_with_all_peers_gone(self):
        platform = _warmed_fleet_platform()
        fleet = platform.fleet
        owner = fleet.server_for("consumer-0")
        for server in fleet.servers:
            if server is not owner:
                platform.failures.crash_host(server.name)
        result = fleet.query_similar("consumer-0")
        assert len(result.unreachable_shards) == len(fleet.servers) - 1
        # The owner's own shard still answers.
        assert owner.name in result.shard_latencies_ms


def _warmed_replicated_platform(hedge=None, seed=11):
    """A replicated fleet platform with learned profiles, hedging optional."""
    platform = build_platform(
        seed=seed,
        num_buyer_servers=3,
        replication_factor=1,
        fleet_hedge_delay_percentile=hedge,
    )
    keyword = _query_keyword(platform)
    gateway = platform.gateway()
    for index in range(8):
        user_id = f"consumer-{index}"
        assert gateway.login(user_id).ok
        assert gateway.query(user_id, keyword).ok
        assert gateway.logout(user_id).ok
    return platform


def _slow_peer(platform, latency=40.0):
    """Make one non-owner shard's links slow; returns (owner, slow peer)."""
    fleet = platform.fleet
    owner = fleet.server_for("consumer-0")
    peer = next(server for server in fleet.servers if server is not owner)
    platform.network.set_latency(owner.name, peer.name, latency)
    platform.network.set_latency(peer.name, owner.name, latency)
    return owner, peer


class TestHedgedFanout:
    """Tail-at-scale hedging: the slowest shard races its freshest replica.

    The contract: ``None`` never hedges (byte-identical to the unhedged
    fan-out), ``p=1.0`` arms the machinery but can never fire, and a
    winning hedge charges the clock ``min(primary, delay + hedge)`` while
    keeping the answer exact when the replica is caught up.
    """

    def test_hedge_beats_a_slow_shard(self):
        baseline_platform = _warmed_replicated_platform(hedge=None)
        _slow_peer(baseline_platform)
        baseline = baseline_platform.fleet.query_similar("consumer-0")

        platform = _warmed_replicated_platform(hedge=0.5)
        _owner, peer = _slow_peer(platform)
        result = platform.fleet.query_similar("consumer-0")

        assert result.hedged_shards == (peer.name,)
        assert result.hedge_won_shards == (peer.name,)
        # The slow shard was charged delay + hedge instead of its own RTT.
        assert result.shard_latencies_ms[peer.name] < (
            baseline.shard_latencies_ms[peer.name]
        )
        assert result.latency_ms < baseline.latency_ms
        # Synchronous replication keeps the replica caught up, so the
        # hedged answer is exact — same neighbors, nothing degraded.
        assert result.neighbors == baseline.neighbors
        assert not result.degraded
        metrics = platform.metrics
        assert metrics.counter("fleet.fanout.hedges").value == 1
        assert metrics.counter("fleet.fanout.hedge_wins").value == 1

    def test_clock_charged_min_of_primary_and_hedge(self):
        platform = _warmed_replicated_platform(hedge=0.5)
        _slow_peer(platform)
        before = platform.now
        result = platform.fleet.query_similar("consumer-0")
        charged = platform.now - before
        assert charged == pytest.approx(result.latency_ms)
        assert result.latency_ms == pytest.approx(
            max(result.shard_latencies_ms.values()) + result.merge_ms
        )

    def test_percentile_one_arms_but_never_fires(self):
        off = _warmed_replicated_platform(hedge=None)
        _slow_peer(off)
        armed = _warmed_replicated_platform(hedge=1.0)
        _slow_peer(armed)

        result_off = off.fleet.query_similar("consumer-0")
        result_armed = armed.fleet.query_similar("consumer-0")

        assert result_armed.hedged_shards == ()
        assert result_armed.hedge_won_shards == ()
        # No latency can exceed the max-latency delay, so the armed fleet
        # behaves byte-identically to the disabled one.
        assert repr(result_armed) == repr(result_off)
        assert armed.metrics.counter("fleet.fanout.hedges").value == 0

    def test_losing_hedge_changes_nothing_but_the_provenance(self):
        """A hedge whose replica round trip cannot beat the primary loses:
        launched (counted, reported) but the primary answer stands."""
        def configure(platform):
            fleet = platform.fleet
            owner = fleet.server_for("consumer-0")
            # The peer whose replica holder is NOT the owner, so the hedge
            # has to cross a (similarly slow) real link and lose the race.
            peer = next(
                server
                for server in fleet.servers
                if server is not owner
                and fleet.replica_holders(server)
                and fleet.replica_holders(server)[0][0] is not owner
            )
            other = next(
                server
                for server in fleet.servers
                if server is not owner and server is not peer
            )
            for a, b, latency in (
                (owner, peer, 22.0),
                (owner, other, 20.0),
            ):
                platform.network.set_latency(a.name, b.name, latency)
                platform.network.set_latency(b.name, a.name, latency)
            return peer

        baseline_platform = _warmed_replicated_platform(hedge=None)
        configure(baseline_platform)
        baseline = baseline_platform.fleet.query_similar("consumer-0")

        platform = _warmed_replicated_platform(hedge=0.5)
        peer = configure(platform)
        result = platform.fleet.query_similar("consumer-0")

        assert result.hedged_shards == (peer.name,)
        assert result.hedge_won_shards == ()
        assert result.shard_latencies_ms == baseline.shard_latencies_ms
        assert result.latency_ms == pytest.approx(baseline.latency_ms)
        assert result.neighbors == baseline.neighbors
        metrics = platform.metrics
        assert metrics.counter("fleet.fanout.hedges").value == 1
        assert metrics.counter("fleet.fanout.hedge_wins").value == 0

    def test_event_payload_carries_hedge_fields_only_when_armed(self):
        off = _warmed_replicated_platform(hedge=None)
        off.fleet.query_similar("consumer-0")
        payload = off.event_log.last_payload("fleet.fanout-query")
        assert "hedged" not in payload and "hedge_won" not in payload

        platform = _warmed_replicated_platform(hedge=0.5)
        _owner, peer = _slow_peer(platform)
        platform.fleet.query_similar("consumer-0")
        payload = platform.event_log.last_payload("fleet.fanout-query")
        assert payload["hedged"] == [peer.name]
        assert payload["hedge_won"] == [peer.name]

    def test_gateway_provenance_reports_hedging(self):
        platform = _warmed_replicated_platform(hedge=0.5)
        _owner, peer = _slow_peer(platform)
        response = platform.gateway().find_similar("consumer-0")
        assert response.ok
        assert response.provenance.hedged_shards == (peer.name,)
        assert response.provenance.hedge_won_shards == (peer.name,)
        # Hedging alone never degrades the envelope.
        assert response.status == "ok"

    def test_no_replica_means_no_hedge(self):
        platform = build_platform(
            seed=11, num_buyer_servers=3, replication_factor=0,
            fleet_hedge_delay_percentile=0.5,
        )
        keyword = _query_keyword(platform)
        gateway = platform.gateway()
        for index in range(4):
            user_id = f"consumer-{index}"
            assert gateway.login(user_id).ok
            assert gateway.query(user_id, keyword).ok
            assert gateway.logout(user_id).ok
        _slow_peer(platform)
        result = platform.fleet.query_similar("consumer-0")
        assert result.hedged_shards == ()
        assert platform.metrics.counter("fleet.fanout.hedges").value == 0
