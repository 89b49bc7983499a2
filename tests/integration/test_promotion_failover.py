"""Integration tests for replica *promotion* failover and quorum reads.

The failover contract, pinned end to end:

- promotion performs **zero reads** against the crashed host's in-memory
  stores (enforced by poisoning every accessor of the dead server's UserDB
  before failing over);
- **no consumer re-registration**: the shard→owner map is updated in place —
  assignments, shard ids and registration timestamps are untouched, and the
  fleet's migration counter never moves;
- post-promotion fleet queries are byte-identical to a single server holding
  the whole community, for every consumer whose state reached the promoted
  replica;
- the dead primary's replication stream is retired: consumed replica
  discarded, frozen lag gauges removed, survivors that replicated to the
  dead host retargeted to a new live ring successor;
- the freshest live replica wins: a lagging or dead holder never shadows a
  caught-up one, and consumers whose state never reached a live replica are
  reported lost, never silently resurrected empty;
- a recovered server is reconciled: stale copies purged, no consumer ever
  owned (or scored) twice;
- the quorum-aware degraded read answers an unreachable shard from its
  freshest replica, marked stale.
"""

import pytest

from repro.errors import ECommerceError, FleetUnavailableError, WorkloadError
from repro.core.similarity import find_similar_users
from repro.ecommerce.platform_builder import ANTI_ENTROPY_INTERVAL_MS, build_platform
from repro.workload.consumers import ConsumerPopulation
from repro.workload.scenarios import ScenarioRunner

CONSUMERS = [f"consumer-{index}" for index in range(10)]


def _build(num_buyer_servers=3, **overrides):
    return build_platform(seed=11, num_buyer_servers=num_buyer_servers, **overrides)


def _drive_workload(platform, consumers=CONSUMERS):
    keyword = next(iter(platform.catalog_view())).terms[0][0]
    gateway = platform.gateway()
    for index, user_id in enumerate(consumers):
        assert gateway.login(user_id).ok
        results = gateway.query(user_id, keyword).result.hits
        if results and index % 2 == 0:
            assert gateway.buy(user_id, results[0].item, marketplace=results[0].marketplace).ok
        assert gateway.logout(user_id).ok


def _consumer_state(user_db, user_id):
    return (
        user_db.profile(user_id).to_dict(),
        user_db.ratings.interactions_of(user_id),
        user_db.transactions_of(user_id),
    )


def _poison(user_db):
    """Make every UserDB (and ratings) accessor raise on touch."""

    def boom(*args, **kwargs):
        raise AssertionError("promotion failover read the crashed server's memory")

    for name in (
        "register", "unregister", "is_registered", "user", "record_login",
        "profile", "store_profile", "profiles", "profiles_version",
        "record_transaction", "transactions_of", "all_transactions",
        "record_interaction",
    ):
        setattr(user_db, name, boom)
    for name in ("add", "remove_user", "interactions_of", "user_vector", "items_of"):
        setattr(user_db.ratings, name, boom)


def _victim_shard(fleet):
    sizes = fleet.shard_sizes()
    return max(range(len(sizes)), key=lambda shard: (sizes[shard], -shard))


class TestPromotion:
    def test_promotion_is_in_place_and_byte_identical(self):
        """Zero dead reads, zero re-registration, single-server-identical."""
        platform = _build(replication_factor=1)
        reference = _build(num_buyer_servers=1)
        fleet = platform.fleet
        _drive_workload(platform)
        _drive_workload(reference)

        victim = _victim_shard(fleet)
        dead = fleet.servers[victim]
        doomed = fleet.consumers_of(victim)
        assert doomed, "the victim shard must own consumers for this test"
        expected_promoted = dead.replication.peers[0]

        reference_state = {
            user_id: _consumer_state(dead.user_db, user_id) for user_id in doomed
        }
        registered_at = {
            user_id: dead.user_db.user(user_id).registered_at for user_id in doomed
        }
        assignment_before = {user_id: fleet.shard_of(user_id) for user_id in CONSUMERS}
        migrations_before = fleet.migrated_consumers
        # The no-failure answers, captured on the same run before the crash.
        neighbors_before = {
            user_id: fleet.query_similar(user_id).neighbors for user_id in CONSUMERS
        }

        platform.failures.crash_host(dead.name)
        _poison(dead.user_db)
        moved = fleet.handle_server_failure(victim)

        assert moved == len(doomed)
        assert fleet.lost_consumers == 0
        assert fleet.promotions == 1
        assert fleet.promoted_consumers == len(doomed)
        # In-place ownership update: no re-registration, no assignment churn.
        assert fleet.migrated_consumers == migrations_before
        for user_id in CONSUMERS:
            assert fleet.shard_of(user_id) == assignment_before[user_id]
        for user_id in doomed:
            owner = fleet.server_for(user_id)
            assert owner is expected_promoted
            assert _consumer_state(owner.user_db, user_id) == reference_state[user_id]
            # The registration record survived verbatim — nobody re-registered.
            assert owner.user_db.user(user_id).registered_at == registered_at[user_id]
        events = platform.event_log.by_category("fleet.failover-promotion")
        assert len(events) == 1
        assert events[0].payload["adopted"] == len(doomed)
        # Post-promotion fleet answers are byte-identical to the no-failure
        # run and to one server holding the whole community.
        reference_db = reference.buyer_server.user_db
        config = reference.buyer_server.recommendations.similarity_config
        for user_id in CONSUMERS:
            brute = find_similar_users(
                reference_db.profile(user_id), reference_db.profiles(), config
            )
            neighbors = fleet.query_similar(user_id).neighbors
            assert neighbors == neighbors_before[user_id] == brute

    def test_promotion_updates_coordinator_shard_map(self):
        platform = _build(replication_factor=1)
        fleet = platform.fleet
        _drive_workload(platform)
        victim = _victim_shard(fleet)
        dead = fleet.servers[victim]
        promoted = dead.replication.peers[0]

        platform.failures.crash_host(dead.name)
        fleet.handle_server_failure(victim)

        topology = platform.coordinator.topology()
        shard_map = topology["shard_map"]
        assert dead.name not in shard_map
        assert victim in shard_map[promoted.name]
        assert dead.name not in topology["replica_map"]

    def test_promotion_retires_the_dead_wal_and_retargets_survivors(self):
        """Gauges of the retired stream vanish; survivors that replicated to
        the dead host pick a new live ring successor and converge onto it."""
        platform = _build(replication_factor=1)
        fleet = platform.fleet
        _drive_workload(platform)
        victim = _victim_shard(fleet)
        dead = fleet.servers[victim]
        upstream = next(
            server for server in fleet.servers
            if any(peer is dead for peer in server.replication.peers)
        )

        platform.failures.crash_host(dead.name)
        fleet.handle_server_failure(victim)

        # The dead primary's lag gauges are gone, not frozen at a stale value.
        prefix = f"replication.lag.{dead.name}->"
        assert not any(
            name.startswith(prefix) for name in platform.metrics.gauges()
        )
        # The survivor that streamed to the dead host no longer does...
        assert not any(peer is dead for peer in upstream.replication.peers)
        assert upstream.replication.peers, "the survivor must have a new peer"
        # ...its old gauge went with the peer...
        assert (
            f"replication.lag.{upstream.name}->{dead.name}"
            not in platform.metrics.gauges()
        )
        # ...and the new replica has fully caught up with the survivor's log.
        replacement = upstream.replication.peers[0]
        state = replacement.replication.hosted[upstream.name]
        assert state.applied_seq == upstream.replication.log.last_seq
        assert upstream.replication.lag_of(replacement.name) == 0

    def test_second_failure_promotes_the_promoted_servers_shards_onward(self):
        """A promoted server owns several shards; when it dies too, its own
        freshest replica adopts all of them — including the adopted ones,
        whose history reached it through the promoted server's WAL."""
        platform = _build(replication_factor=1)
        fleet = platform.fleet
        _drive_workload(platform)
        victim = _victim_shard(fleet)
        dead = fleet.servers[victim]
        promoted = dead.replication.peers[0]

        reference_neighbors = {
            user_id: fleet.query_similar(user_id).neighbors for user_id in CONSUMERS
        }
        platform.failures.crash_host(dead.name)
        fleet.handle_server_failure(victim)
        assert (
            fleet.query_similar(CONSUMERS[0]).neighbors
            == reference_neighbors[CONSUMERS[0]]
        )

        promoted_shard = fleet.servers.index(promoted)
        served_before = fleet.consumers_served_by(promoted)
        assert served_before  # owns its own shard plus the adopted one
        platform.failures.crash_host(promoted.name)
        _poison(promoted.user_db)
        moved = fleet.handle_server_failure(promoted_shard)

        assert moved == len(served_before)
        assert fleet.lost_consumers == 0
        survivor = next(
            server for server in fleet.servers
            if server.context.host.is_running
        )
        for user_id in CONSUMERS:
            assert fleet.server_for(user_id) is survivor
            assert (
                fleet.query_similar(user_id).neighbors == reference_neighbors[user_id]
            )


class TestAdoptedStateIsDurable:
    def test_adopted_login_history_reaches_the_promoted_servers_replicas(self):
        """The adopted consumers' aggregate login history is durable state:
        it must flow through the promoted server's WAL to its own replicas,
        not just be patched into its live UserDB."""
        platform = _build(replication_factor=1)
        fleet = platform.fleet
        _drive_workload(platform)
        victim = _victim_shard(fleet)
        dead = fleet.servers[victim]
        doomed = fleet.consumers_of(victim)
        expected = {
            user_id: (
                dead.user_db.user(user_id).logins,
                dead.user_db.user(user_id).last_login_at,
            )
            for user_id in doomed
        }
        assert any(logins > 0 for logins, _ in expected.values())

        platform.failures.crash_host(dead.name)
        _poison(dead.user_db)
        fleet.handle_server_failure(victim)
        promoted = fleet.server_for(doomed[0])
        platform.scheduler.run_for(
            ANTI_ENTROPY_INTERVAL_MS
        )

        peer = promoted.replication.peers[0]
        replica = peer.replication.hosted[promoted.name]
        assert promoted.replication.lag_of(peer.name) == 0
        for user_id in doomed:
            live = promoted.user_db.user(user_id)
            assert (live.logins, live.last_login_at) == expected[user_id]
            shadow = replica.db.user(user_id)
            assert (shadow.logins, shadow.last_login_at) == expected[user_id]


class TestDoubleFailure:
    def test_falls_back_to_next_freshest_replica(self):
        """Primary and its freshest replica both down: the next-freshest
        holder is promoted and every replicated consumer survives."""
        platform = _build(num_buyer_servers=4, replication_factor=2)
        fleet = platform.fleet
        _drive_workload(platform)
        victim = _victim_shard(fleet)
        dead = fleet.servers[victim]
        doomed = fleet.consumers_of(victim)
        assert doomed
        first_peer, second_peer = dead.replication.peers
        reference_state = {
            user_id: _consumer_state(dead.user_db, user_id) for user_id in doomed
        }

        platform.failures.crash_host(dead.name)
        platform.failures.crash_host(first_peer.name)
        _poison(dead.user_db)
        _poison(first_peer.user_db)
        moved = fleet.handle_server_failure(victim)

        assert moved == len(doomed)
        assert fleet.lost_consumers == 0
        for user_id in doomed:
            owner = fleet.server_for(user_id)
            assert owner is second_peer
            assert _consumer_state(owner.user_db, user_id) == reference_state[user_id]

    @pytest.mark.parametrize(
        "num_buyer_servers, replication_factor", [(3, 1), (4, 2)]
    )
    def test_consumers_beyond_every_live_replica_are_lost(
        self, num_buyer_servers, replication_factor
    ):
        """State that never reached a live replica is reported lost, never
        resurrected empty — whether the only replica was cut off when the
        consumer registered (factor 1) or every replica that knew the
        consumer died with the primary (factor 2)."""
        platform = _build(
            num_buyer_servers=num_buyer_servers,
            replication_factor=replication_factor,
        )
        fleet = platform.fleet
        _drive_workload(platform)
        victim = _victim_shard(fleet)
        dead = fleet.servers[victim]
        *doomed_peers, cut_off_peer = dead.replication.peers
        survivors_before = fleet.consumers_of(victim)

        # The last peer stops receiving anything; an orphan registers whose
        # state therefore only reaches the other peers (if any).
        platform.network.cut_link(dead.name, cut_off_peer.name, both_ways=False)
        orphan = next(
            f"orphan-{index}"
            for index in range(1000)
            if fleet.shard_map.base_shard(f"orphan-{index}") == victim
        )
        assert platform.gateway().login(orphan).ok
        assert platform.gateway().logout(orphan).ok
        assert fleet.shard_of(orphan) == victim
        assert dead.replication.lag_of(cut_off_peer.name) > 0

        # Now the primary and every replica that knew the orphan die.
        for server in (dead, *doomed_peers):
            platform.failures.crash_host(server.name)
            _poison(server.user_db)
        moved = fleet.handle_server_failure(victim)

        assert moved == len(survivors_before)
        assert fleet.lost_consumers == 1
        assert not fleet.is_registered(orphan)
        lost_events = platform.event_log.by_category("fleet.consumer-lost")
        assert [event.payload["user_id"] for event in lost_events] == [orphan]
        # The lost consumer can register afresh on a live server.
        assert platform.gateway().login(orphan).ok
        assert platform.gateway().logout(orphan).ok
        assert fleet.server_for(orphan).context.host.is_running


class TestFreshestReplicaWins:
    def test_promotion_prefers_the_caught_up_replica_over_a_lagging_one(self):
        """With factor >= 2 a lagging replica must never shadow a fresh one:
        the holder with the longest applied prefix is the one promoted."""
        platform = _build(replication_factor=2)
        fleet = platform.fleet
        _drive_workload(platform, CONSUMERS[:4])

        victim = _victim_shard(fleet)
        dead = fleet.servers[victim]
        # Lag the peer that comes FIRST in fleet server order — exactly the
        # one a naive "first holder wins" failover would promote.
        first_holder = next(
            server for server in fleet.servers
            if server is not dead and any(p is server for p in dead.replication.peers)
        )
        caught_up = next(
            peer for peer in dead.replication.peers if peer is not first_holder
        )

        # Cut only the link to that peer: its replica lags while the other
        # peer keeps acknowledging everything.  Re-driving every consumer
        # gives the already-replicated ones fresh post-cut mutations that
        # only the healthy replica sees.
        platform.network.cut_link(dead.name, first_holder.name, both_ways=False)
        _drive_workload(platform, CONSUMERS)
        # Heal the link but do NOT pump the scheduler: anti-entropy never
        # fires, so the lagging replica stays a stale prefix while the
        # no-failure reference below sees the full (unpartitioned) fleet.
        platform.network.restore_link(dead.name, first_holder.name, both_ways=False)
        doomed = fleet.consumers_of(victim)
        assert doomed
        assert dead.replication.lag_of(first_holder.name) > 0
        assert dead.replication.lag_of(caught_up.name) == 0
        reference_neighbors = {
            user_id: fleet.query_similar(user_id).neighbors for user_id in CONSUMERS
        }
        reference_state = {
            user_id: _consumer_state(dead.user_db, user_id) for user_id in doomed
        }

        platform.failures.crash_host(dead.name)
        _poison(dead.user_db)
        moved = fleet.handle_server_failure(victim)

        assert moved == len(doomed)
        assert fleet.lost_consumers == 0
        for user_id in doomed:
            owner = fleet.server_for(user_id)
            assert owner is caught_up
            assert _consumer_state(owner.user_db, user_id) == reference_state[user_id]
        for user_id in CONSUMERS:
            assert (
                fleet.query_similar(user_id).neighbors == reference_neighbors[user_id]
            )


class TestPromotionRecovery:
    @pytest.mark.parametrize("replication_factor", [1, 0])
    def test_recovered_host_is_purged_and_shard_ownership_is_stable(
        self, replication_factor
    ):
        """Promotion never touches the dead host, so recovery purges its
        stale copies and the shard stays with the promoted server.  The
        no-replica hand-off (factor 0) already emptied the dead host's
        memory and never changed the shard's owner, so nothing is purged
        and the recovered host takes new registrations again."""
        platform = _build(replication_factor=replication_factor)
        fleet = platform.fleet
        _drive_workload(platform)
        victim = _victim_shard(fleet)
        dead = fleet.servers[victim]
        doomed = fleet.consumers_of(victim)

        platform.failures.crash_host(dead.name)
        fleet.handle_server_failure(victim)
        handed_off = replication_factor == 0
        shard_owner = fleet.owner_of_shard(victim)
        assert (shard_owner is dead) == handed_off
        platform.failures.recover_host(dead.name)
        purged = fleet.recover_server(dead)

        assert purged == (0 if handed_off else len(doomed))
        for user_id in doomed:
            assert not dead.user_db.is_registered(user_id)
        purges = platform.event_log.by_category("fleet.recovery-purge")
        assert [event.payload["purged"] for event in purges] == (
            [] if handed_off else [doomed]
        )
        # Ownership is stable: a new consumer hashing to the victim shard is
        # served by whoever owned it after the failover, never clawed back.
        rejoiner = next(
            f"rejoin-{index}"
            for index in range(1000)
            if fleet.shard_map.base_shard(f"rejoin-{index}") == victim
        )
        assert platform.gateway().login(rejoiner).ok
        assert platform.gateway().logout(rejoiner).ok
        assert fleet.server_for(rejoiner) is shard_owner
        # Nobody is scored twice after recovery.
        for user_id in CONSUMERS:
            neighbors = fleet.query_similar(user_id).neighbors
            ids = [uid for uid, _ in neighbors]
            assert len(ids) == len(set(ids))
        # The recovered host dropped replicas for primaries that no longer
        # stream to it (they retargeted while it was down).
        for primary in fleet.servers:
            if handed_off or primary is dead:
                continue
            if dead.name in {peer.name for peer in primary.replication.peers}:
                continue
            assert primary.name not in dead.replication.hosted

    def test_recovery_of_a_down_host_is_refused(self):
        platform = _build(replication_factor=1)
        fleet = platform.fleet
        platform.failures.crash_host(fleet.servers[0].name)
        with pytest.raises(ECommerceError):
            fleet.recover_server(fleet.servers[0])

    def test_recovered_host_rejoins_the_replication_ring(self):
        """Recovery is not dead weight: primaries whose ideal ring successor
        is the recovered host swap their stand-in peer back for it, the new
        replica converges, and the host is a viable promotion target for the
        next failure."""
        platform = _build(replication_factor=1)
        fleet = platform.fleet
        _drive_workload(platform)
        victim = _victim_shard(fleet)
        dead = fleet.servers[victim]
        # With factor 1 and ring wiring, the dead host's predecessor ideally
        # streams to it.
        predecessor = next(
            server for server in fleet.servers
            if any(peer is dead for peer in server.replication.peers)
        )

        platform.failures.crash_host(dead.name)
        fleet.handle_server_failure(victim)
        # While down, the predecessor streams to a stand-in, not the dead host.
        assert not any(peer is dead for peer in predecessor.replication.peers)

        platform.failures.recover_host(dead.name)
        fleet.recover_server(dead)

        # The predecessor swapped back, the CA agrees, and the new replica
        # has fully caught up (snapshot/full-log bootstrap on rewire).
        assert any(peer is dead for peer in predecessor.replication.peers)
        assert predecessor.replication.lag_of(dead.name) == 0
        # The stand-in's replica of the predecessor was discarded at swap
        # time — no orphaned frozen shadow state accumulates.
        for stand_in in fleet.servers:
            if stand_in in (dead, predecessor):
                continue
            if any(peer is stand_in for peer in predecessor.replication.peers):
                continue
            assert predecessor.name not in stand_in.replication.hosted
        topology = platform.coordinator.topology()
        assert dead.name in topology["replica_map"][predecessor.name]
        state = dead.replication.hosted[predecessor.name]
        assert state.applied_seq == predecessor.replication.log.last_seq
        assert set(state.db.user_ids) == set(predecessor.user_db.user_ids)

        # And the recovered host really can be promoted when its primary dies.
        platform.failures.crash_host(predecessor.name)
        _poison(predecessor.user_db)
        moved = fleet.handle_server_failure(fleet.servers.index(predecessor))
        assert moved > 0
        for user_id in fleet.consumers_served_by(dead):
            assert fleet.server_for(user_id) is dead


class TestQuorumReads:
    def test_crashed_shard_is_answered_from_its_freshest_replica(self):
        """Before any failover runs, a fleet query answers the dead shard
        from its replica — byte-identical when the replica was caught up —
        and reports it stale instead of unreachable."""
        platform = _build(replication_factor=1)
        fleet = platform.fleet
        _drive_workload(platform)
        victim = _victim_shard(fleet)
        dead = fleet.servers[victim]

        target = next(
            user_id for user_id in CONSUMERS if fleet.shard_of(user_id) != victim
        )
        full = fleet.query_similar(target)
        assert not full.degraded

        platform.failures.crash_host(dead.name)
        _poison(dead.user_db)
        result = fleet.query_similar(target)

        assert result.degraded
        assert result.unreachable_shards == ()
        assert result.stale_shards == {dead.name: 0}  # replica was caught up
        assert result.neighbors == full.neighbors  # nothing was actually stale

    def test_target_on_a_crashed_shard_is_resolved_from_the_replica(self):
        platform = _build(replication_factor=1)
        fleet = platform.fleet
        _drive_workload(platform)
        victim = _victim_shard(fleet)
        dead = fleet.servers[victim]
        target = fleet.consumers_of(victim)[0]
        full = fleet.query_similar(target)

        platform.failures.crash_host(dead.name)
        _poison(dead.user_db)
        result = fleet.query_similar(target)

        assert result.degraded
        assert dead.name in result.stale_shards
        assert result.neighbors == full.neighbors

    def test_partitioned_shard_reports_its_exact_lag(self):
        """A partitioned (but running) primary's log is readable, so the
        stale answer carries the exact replica lag."""
        platform = _build(replication_factor=1)
        fleet = platform.fleet
        _drive_workload(platform)
        victim = _victim_shard(fleet)
        isolated = fleet.servers[victim]
        peer = isolated.replication.peers[0]
        target = next(
            user_id for user_id in CONSUMERS if fleet.shard_of(user_id) != victim
        )

        # Cut replication first so the replica lags, then partition the
        # primary away from everyone: queries must fall back to the replica.
        platform.network.cut_link(isolated.name, peer.name, both_ways=False)
        _drive_workload(platform)
        expected_lag = isolated.replication.lag_of(peer.name)
        assert expected_lag > 0
        others = [s.name for s in fleet.servers if s is not isolated]
        platform.failures.partition([isolated.name], others)

        result = fleet.query_similar(target)
        assert result.stale_shards == {isolated.name: expected_lag}

    def test_handed_off_shard_is_not_answered_from_a_returning_replica(self):
        """With no live replica at failover time the dead shard's community
        is handed to survivors' live shards; when the replica holder comes
        back, answering from its frozen replica would score everyone twice.
        The emptied shard is skipped and the query is not marked stale."""
        platform = _build(replication_factor=1)
        fleet = platform.fleet
        _drive_workload(platform)
        victim = _victim_shard(fleet)
        dead = fleet.servers[victim]
        holder = dead.replication.peers[0]
        reference = {
            user_id: fleet.query_similar(user_id).neighbors for user_id in CONSUMERS
        }

        platform.failures.crash_host(dead.name)
        platform.failures.crash_host(holder.name)
        assert fleet.replica_holders(dead) == []
        fleet.handle_server_failure(victim)
        assert fleet.promotions == 0 and fleet.consumers_of(victim) == []
        platform.failures.recover_host(holder.name)
        assert [server for server, _ in fleet.replica_holders(dead)] == [holder]
        result = fleet.query_similar(CONSUMERS[0])

        assert result.stale_shards == {}
        assert result.unreachable_shards == (dead.name,)
        # Every consumer is scored exactly once, from their live owner.
        for user_id in CONSUMERS:
            assert fleet.query_similar(user_id).neighbors == reference[user_id]

    def test_is_registered_never_reads_the_dead_hosts_memory(self):
        platform = _build(replication_factor=1)
        fleet = platform.fleet
        _drive_workload(platform)
        victim = _victim_shard(fleet)
        dead = fleet.servers[victim]
        doomed = fleet.consumers_of(victim)

        platform.failures.crash_host(dead.name)
        _poison(dead.user_db)
        # Resolved from the live replica, not the poisoned dead UserDB.
        for user_id in doomed:
            assert fleet.is_registered(user_id)
        assert not fleet.is_registered("never-registered")

    def test_unreplicated_crashed_shard_stays_unreachable(self):
        platform = _build()  # no replication wired
        fleet = platform.fleet
        _drive_workload(platform)
        victim = _victim_shard(fleet)
        dead = fleet.servers[victim]
        target = next(
            user_id for user_id in CONSUMERS if fleet.shard_of(user_id) != victim
        )
        platform.failures.crash_host(dead.name)

        result = fleet.query_similar(target)
        assert result.unreachable_shards == (dead.name,)
        assert result.stale_shards == {}


class TestReplicaIndexEquivalence:
    """Degraded/hedged reads answer from a per-replica neighbor index.

    :meth:`~repro.ecommerce.replication.ReplicaState.neighbor_index` must be
    a pure accelerator: byte-identical to brute-forcing the replica's shadow
    profiles at any lag (and hence to the primary's own answer at zero lag),
    re-indexing only the consumers the WAL touched in between, and — like
    every other failover read — never touching the dead primary's memory.
    """

    def _catch_up(self, platform):
        platform.scheduler.run_for(
            ANTI_ENTROPY_INTERVAL_MS
        )

    def _replica_of(self, server):
        peer = server.replication.peers[0]
        return peer.replication.hosted[server.name]

    def test_zero_lag_answers_are_byte_identical_to_primary(self):
        platform = _build(replication_factor=1)
        fleet = platform.fleet
        _drive_workload(platform)
        self._catch_up(platform)

        for server in fleet.servers:
            state = self._replica_of(server)
            assert server.replication.lag_of(
                server.replication.peers[0].name
            ) == 0
            config = server.recommendations.similarity_config
            index = state.neighbor_index()
            for user_id in state.db.user_ids:
                target = state.db.profile(user_id)
                primary_answer = find_similar_users(
                    server.user_db.profile(user_id),
                    server.user_db.profiles(),
                    config,
                )
                assert index.find_similar(target, config=config) == primary_answer

    def test_lagging_replica_matches_brute_forced_shadow_profiles(self):
        platform = _build(replication_factor=1)
        fleet = platform.fleet
        _drive_workload(platform)
        victim = _victim_shard(fleet)
        isolated = fleet.servers[victim]
        peer = isolated.replication.peers[0]

        # Cut the replication link and keep writing: the replica now lags.
        platform.network.cut_link(isolated.name, peer.name, both_ways=False)
        _drive_workload(platform)
        assert isolated.replication.lag_of(peer.name) > 0

        state = peer.replication.hosted[isolated.name]
        config = isolated.recommendations.similarity_config
        index = state.neighbor_index()
        for user_id in state.db.user_ids:
            target = state.db.profile(user_id)
            assert index.find_similar(target, config=config) == find_similar_users(
                target, state.db.profiles(), config
            )

    def test_replica_index_reindexes_only_wal_touched_consumers(self):
        """Lazy by counter: K WAL applies touching one consumer cost one
        per-consumer rebuild at the next query, not a population sweep."""
        platform = _build(replication_factor=1)
        fleet = platform.fleet
        _drive_workload(platform)
        self._catch_up(platform)
        server = fleet.servers[0]
        state = self._replica_of(server)
        config = server.recommendations.similarity_config
        index = state.neighbor_index()
        # Same accessor, same cached index — the WAL-applied deltas must
        # land in this object, not a rebuilt-from-scratch replacement.
        assert state.neighbor_index() is index

        user_id = state.db.user_ids[0]
        index.find_similar(state.db.profile(user_id), config=config)
        rebuilds_before = index.rebuilds

        # Several durable writes, all for the same single consumer.
        keyword = next(iter(platform.catalog_view())).terms[0][0]
        gateway = platform.gateway()
        assert gateway.login(user_id).ok
        results = gateway.query(user_id, keyword).result.hits
        assert results
        assert gateway.rate(user_id, results[0].item, 4.0).ok
        assert gateway.rate(user_id, results[0].item, 4.5).ok
        assert gateway.logout(user_id).ok
        self._catch_up(platform)

        answer = index.find_similar(state.db.profile(user_id), config=config)
        assert index.rebuilds == rebuilds_before + 1
        assert answer == find_similar_users(
            state.db.profile(user_id), state.db.profiles(), config
        )

    def test_degraded_read_equivalence_survives_a_poisoned_primary(self):
        """The replica-index answer for a crashed shard is produced without
        a single read against the dead host's memory (same poisoned-accessor
        discipline as promotion), and still equals the pre-crash answer."""
        platform = _build(replication_factor=1)
        fleet = platform.fleet
        _drive_workload(platform)
        self._catch_up(platform)
        victim = _victim_shard(fleet)
        dead = fleet.servers[victim]
        target = next(
            user_id for user_id in CONSUMERS if fleet.shard_of(user_id) != victim
        )
        full = fleet.query_similar(target)

        platform.failures.crash_host(dead.name)
        _poison(dead.user_db)
        result = fleet.query_similar(target)
        assert result.stale_shards == {dead.name: 0}
        assert result.neighbors == full.neighbors


class TestFleetUnavailable:
    def test_routing_with_every_server_down_raises_clearly(self):
        platform = _build()
        fleet = platform.fleet
        for server in fleet.servers:
            platform.failures.crash_host(server.name)
        with pytest.raises(FleetUnavailableError):
            fleet.register_consumer("nobody-home")
        with pytest.raises(FleetUnavailableError):
            fleet.shard_of("still-nobody-home")

    def test_failover_with_all_survivors_down_raises_clearly(self):
        platform = _build(replication_factor=1)
        fleet = platform.fleet
        _drive_workload(platform)
        victim = _victim_shard(fleet)
        assert fleet.consumers_of(victim)
        for server in fleet.servers:
            platform.failures.crash_host(server.name)
        with pytest.raises(FleetUnavailableError):
            fleet.handle_server_failure(victim)


class TestPromotionScenario:
    @pytest.mark.parametrize("seed, refresh_interval_ms", [(11, 1000.0), (5, 1500.0)])
    def test_promotion_failover_day_end_to_end(self, seed, refresh_interval_ms):
        platform = build_platform(
            seed=seed,
            num_buyer_servers=3,
            replication_factor=1,
            replication_wal_truncate_threshold=32,
        )
        runner = ScenarioRunner(
            platform, ConsumerPopulation(12, groups=3, seed=seed), seed=seed
        )
        report = runner.promotion_failover_day(
            sessions=24, refresh_interval_ms=refresh_interval_ms
        )
        assert report.sessions == 24
        assert report.lost_consumers == 0
        assert report.promoted_consumers > 0
        assert report.stale_shard_answers > 0
        assert report.recovered_purged == report.promoted_consumers
        assert report.batch_refreshes > 0
        assert platform.metrics.counter("replication.entries_shipped").value > 0
        events = platform.event_log.by_category("fleet.failover-promotion")
        assert len(events) == 1
        assert events[0].payload["adopted"] == report.promoted_consumers
        assert events[0].payload["lost"] == []
        victim = platform.fleet.servers[0]
        assert victim.context.host.is_running  # recovered by the scenario
        # Bounded WAL: snapshot + truncate was observed and every retained
        # log stays below a fixed entry bound (threshold + one anti-entropy
        # interval of tail), even though far more entries were appended
        # over the whole day.
        assert platform.event_log.count("replication.wal-truncated") > 0
        logs = [server.replication.log for server in platform.buyer_servers]
        assert all(len(log) <= 96 for log in logs), [len(log) for log in logs]
        assert sum(len(log) for log in logs) < sum(log.last_seq for log in logs)

    def test_scenario_requires_fleet_and_replication(self):
        single = build_platform(seed=3)
        runner = ScenarioRunner(single, ConsumerPopulation(4, seed=3), seed=3)
        with pytest.raises(WorkloadError):
            runner.promotion_failover_day(sessions=3)

        unreplicated = build_platform(seed=3, num_buyer_servers=2)
        runner = ScenarioRunner(
            unreplicated, ConsumerPopulation(4, seed=3), seed=3
        )
        with pytest.raises(WorkloadError):
            runner.promotion_failover_day(sessions=3)


class TestDegradedReadLatencyParity:
    """Satellite (PR 9): replica answers must cost like primary answers.

    The degraded read serves a dead shard from its replica's incremental
    index — the same indexed path the primary uses — so a replica answer
    must stay within a small constant factor of a healthy answer, in both
    simulated charged latency and real compute time.  A regression that
    sent replica reads through the brute-force scan (or rebuilt the index
    per query) would blow well past the factor.
    """

    PARITY_FACTOR = 10.0

    def test_replica_answer_charges_simulated_latency_on_par(self):
        platform = _build(replication_factor=1)
        fleet = platform.fleet
        _drive_workload(platform)
        victim = _victim_shard(fleet)
        dead = fleet.servers[victim]
        target = next(
            user_id for user_id in CONSUMERS if fleet.shard_of(user_id) != victim
        )

        healthy = fleet.query_similar(target)
        healthy_ms = healthy.shard_latencies_ms[dead.name]
        assert healthy_ms > 0

        platform.failures.crash_host(dead.name)
        degraded = fleet.query_similar(target)
        assert degraded.degraded
        degraded_ms = degraded.shard_latencies_ms[dead.name]
        assert degraded_ms > 0
        assert degraded_ms <= healthy_ms * self.PARITY_FACTOR

    def test_replica_answer_wall_clock_within_factor_of_healthy(self):
        import statistics
        import time

        platform = _build(replication_factor=1)
        fleet = platform.fleet
        _drive_workload(platform)
        victim = _victim_shard(fleet)
        dead = fleet.servers[victim]
        target = next(
            user_id for user_id in CONSUMERS if fleet.shard_of(user_id) != victim
        )

        def sample(repeats=40):
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                fleet.query_similar(target)
                samples.append(time.perf_counter() - start)
            return statistics.median(samples)

        fleet.query_similar(target)  # warm both indexes
        healthy_s = sample()
        platform.failures.crash_host(dead.name)
        assert fleet.query_similar(target).degraded  # warm the replica path
        degraded_s = sample()
        assert degraded_s <= healthy_s * self.PARITY_FACTOR
