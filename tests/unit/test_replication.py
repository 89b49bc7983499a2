"""Unit tests for the cross-server replication subsystem.

The write-ahead log, the replica state machine (strict sequence order,
idempotent duplicates, gap stalls), streaming over the simulated network and
the anti-entropy catch-up after outages.
"""

from types import SimpleNamespace

import pytest

from repro.errors import ECommerceError, ReplicationError
from repro.core.profile import Profile
from repro.core.ratings import Interaction, InteractionKind
from repro.ecommerce.platform_builder import (
    ANTI_ENTROPY_INTERVAL_MS,
    PlatformConfig,
    build_platform,
)
from repro.ecommerce.replication import (
    ReplicaState,
    ReplicationLog,
    ReplicationRing,
)
from repro.ecommerce.transactions import TransactionKind, TransactionRecord


def _profile_dicts(db):
    return {profile.user_id: profile.to_dict() for profile in db.profiles()}


def _durable_state(db):
    """Every consumer's durable record, read through the public accessors."""
    return {
        user_id: (
            db.user(user_id),
            db.profile(user_id).to_dict(),
            db.ratings.interactions_of(user_id),
            db.transactions_of(user_id),
        )
        for user_id in db.user_ids
    }


def _entry_payloads(user_id="ann"):
    """An ordered, applicable mutation history for one consumer."""
    profile = Profile(user_id)
    profile.category("books").preference = 3.0
    profile.category("books").terms.set("fantasy", 1.5)
    interaction = Interaction(
        user_id=user_id, item_id="item-1", kind=InteractionKind.BUY, timestamp=4.0
    )
    transaction = TransactionRecord(
        transaction_id="txn-marketplace-1-1",
        user_id=user_id, item_id="item-1", marketplace="marketplace-1",
        kind=TransactionKind.DIRECT_PURCHASE, price=9.0, list_price=10.0,
        timestamp=5.0,
    )
    return [
        ("register", {"user_id": user_id, "display_name": "Ann", "timestamp": 1.0}),
        ("store-profile", {"profile": profile.to_dict()}),
        ("interaction", {"interaction": interaction}),
        ("transaction", {"transaction": transaction}),
        ("login", {"user_id": user_id, "timestamp": 6.0}),
    ]


class TestReplicationLog:
    def test_sequence_numbers_are_monotonic_from_one(self):
        log = ReplicationLog()
        entries = [
            log.append(op, payload, timestamp=float(i))
            for i, (op, payload) in enumerate(_entry_payloads())
        ]
        assert [entry.seq for entry in entries] == [1, 2, 3, 4, 5]
        assert log.last_seq == 5

    def test_entries_since_returns_the_suffix(self):
        log = ReplicationLog()
        for op, payload in _entry_payloads():
            log.append(op, payload, timestamp=0.0)
        assert [e.seq for e in log.entries_since(0)] == [1, 2, 3, 4, 5]
        assert [e.seq for e in log.entries_since(3)] == [4, 5]
        assert log.entries_since(5) == []
        with pytest.raises(ReplicationError):
            log.entries_since(-1)


class TestReplicaState:
    def _filled_log(self):
        log = ReplicationLog()
        for op, payload in _entry_payloads():
            log.append(op, payload, timestamp=0.0)
        return log

    def test_applies_full_history_in_order(self):
        log = self._filled_log()
        state = ReplicaState("primary")
        assert state.apply_entries(log.entries_since(0)) == 5
        assert state.applied_seq == 5
        assert state.db.is_registered("ann")
        assert state.db.profile("ann").category("books", create=False).preference == 3.0
        assert len(state.db.ratings.interactions_of("ann")) == 1
        assert len(state.db.transactions_of("ann")) == 1
        assert state.db.user("ann").logins == 1

    def test_duplicate_entries_are_idempotent(self):
        log = self._filled_log()
        state = ReplicaState("primary")
        state.apply_entries(log.entries_since(0))
        assert state.apply_entries(log.entries_since(0)) == 0
        assert state.applied_seq == 5
        assert len(state.db.ratings.interactions_of("ann")) == 1

    def test_gap_stalls_until_the_suffix_is_shipped(self):
        log = self._filled_log()
        state = ReplicaState("primary")
        entries = log.entries_since(0)
        state.apply_entries(entries[:1])
        # Entries 3..5 without 2: nothing applies, the replica waits.
        assert state.apply_entries(entries[2:]) == 0
        assert state.applied_seq == 1
        # Anti-entropy ships the full suffix: everything applies.
        assert state.apply_entries(entries[1:]) == 4
        assert state.applied_seq == 5

    def test_unknown_op_is_rejected(self):
        log = ReplicationLog()
        log.append("format-disk", {}, timestamp=0.0)
        state = ReplicaState("primary")
        with pytest.raises(ReplicationError):
            state.apply_entries(log.entries_since(0))

    def test_login_stats_restore_applies(self):
        """The promotion path replicates adopted login aggregates as a
        durable ``login-stats`` op."""
        log = self._filled_log()
        log.append(
            "login-stats",
            {"user_id": "ann", "logins": 7, "last_login_at": 42.0},
            timestamp=8.0,
        )
        state = ReplicaState("primary")
        state.apply_entries(log.entries_since(0))
        record = state.db.user("ann")
        assert record.logins == 7
        assert record.last_login_at == 42.0

    def test_unregister_round_trips(self):
        log = self._filled_log()
        log.append("unregister", {"user_id": "ann"}, timestamp=7.0)
        state = ReplicaState("primary")
        state.apply_entries(log.entries_since(0))
        assert not state.db.is_registered("ann")
        assert state.db.ratings.interactions_of("ann") == []


@pytest.fixture
def replicated_platform():
    return build_platform(seed=11, num_buyer_servers=3, replication_factor=1)


class TestStreamingReplication:
    def test_mutations_stream_to_the_replica_synchronously(self, replicated_platform):
        platform = replicated_platform
        fleet = platform.fleet
        gateway = platform.gateway()
        assert gateway.login("ann").ok
        assert gateway.query("ann", "book").ok
        assert gateway.logout("ann").ok

        owner = fleet.server_for("ann")
        peer = owner.replication.peers[0]
        replica = peer.replication.hosted[owner.name]
        assert owner.replication.lag_of(peer.name) == 0
        assert replica.db.is_registered("ann")
        assert (
            replica.db.profile("ann").to_dict()
            == owner.user_db.profile("ann").to_dict()
        )
        assert (
            replica.db.ratings.interactions_of("ann")
            == owner.user_db.ratings.interactions_of("ann")
        )

    def test_replication_traffic_is_charged_to_the_network(self, replicated_platform):
        platform = replicated_platform
        before = platform.network.total_bytes
        gateway = platform.gateway()
        assert gateway.login("ann").ok
        assert gateway.logout("ann").ok
        replication_transfers = [
            event for event in platform.event_log.by_category("transfer.replication")
        ]
        assert replication_transfers
        assert platform.network.total_bytes > before

    def test_partition_defers_then_anti_entropy_catches_up(self, replicated_platform):
        platform = replicated_platform
        fleet = platform.fleet
        gateway = platform.gateway()
        assert gateway.login("ann").ok
        assert gateway.logout("ann").ok
        owner = fleet.server_for("ann")
        peer = owner.replication.peers[0]

        platform.failures.partition([owner.name], [peer.name])
        gateway = platform.gateway()
        assert gateway.login("ann").ok
        assert gateway.query("ann", "book").ok
        assert gateway.logout("ann").ok
        assert owner.replication.lag_of(peer.name) > 0
        assert platform.metrics.counter("replication.deferred").value > 0

        platform.failures.heal()
        # One anti-entropy interval later the replica has converged.
        platform.scheduler.run_for(
            ANTI_ENTROPY_INTERVAL_MS
        )
        assert owner.replication.lag_of(peer.name) == 0
        replica = peer.replication.hosted[owner.name]
        assert (
            replica.db.profile("ann").to_dict()
            == owner.user_db.profile("ann").to_dict()
        )
        assert platform.event_log.count("replication.catch-up") >= 1

    def test_lag_is_visible_in_metrics(self, replicated_platform):
        platform = replicated_platform
        fleet = platform.fleet
        gateway = platform.gateway()
        assert gateway.login("ann").ok
        assert gateway.logout("ann").ok
        owner = fleet.server_for("ann")
        peer = owner.replication.peers[0]
        gauge = platform.metrics.gauge(
            f"replication.lag.{owner.name}->{peer.name}"
        )
        assert gauge.value == 0.0

        platform.failures.partition([owner.name], [peer.name])
        gateway = platform.gateway()
        assert gateway.login("ann").ok
        assert gateway.logout("ann").ok
        platform.failures.heal()
        platform.scheduler.run_for(
            ANTI_ENTROPY_INTERVAL_MS
        )
        assert gauge.value == 0.0  # converged again, and the gauge says so

    def test_wiring_misuse_raises(self, replicated_platform):
        platform = replicated_platform
        first, second = platform.buyer_servers[0], platform.buyer_servers[1]
        with pytest.raises(ECommerceError):
            first.enable_replication()  # already enabled by the builder
        with pytest.raises(ReplicationError):
            first.replication.replicate_to(first)  # self-replication
        with pytest.raises(ReplicationError):
            first.replication.replicate_to(second)  # already a peer
        with pytest.raises(ReplicationError):
            first.replication.lag_of("no-such-peer")
        with pytest.raises(ReplicationError):
            first.replication.start_anti_entropy(500.0)  # already scheduled


class TestLogTruncation:
    def _filled_log(self):
        log = ReplicationLog()
        for op, payload in _entry_payloads():
            log.append(op, payload, timestamp=0.0)
        return log

    def test_truncate_keeps_sequence_numbers_and_drops_storage(self):
        log = self._filled_log()
        assert log.truncate_through(3) == 3
        assert log.truncated_seq == 3
        assert log.last_seq == 5
        assert len(log) == 2
        assert [e.seq for e in log.entries_since(3)] == [4, 5]
        # Appending continues the original numbering.
        entry = log.append("login", {"user_id": "ann", "timestamp": 9.0}, 9.0)
        assert entry.seq == 6

    def test_entries_below_the_truncation_point_are_refused(self):
        log = self._filled_log()
        log.truncate_through(3)
        with pytest.raises(ReplicationError):
            log.entries_since(2)

    def test_truncating_past_the_log_or_backwards_is_refused(self):
        log = self._filled_log()
        with pytest.raises(ReplicationError):
            log.truncate_through(6)
        log.truncate_through(4)
        assert log.truncate_through(4) == 0  # idempotent no-op
        assert log.truncate_through(2) == 0  # never regress


class TestBoundedWal:
    def _busy_platform(self, threshold=5, sessions=6):
        platform = build_platform(
            seed=11, num_buyer_servers=3, replication_factor=1,
            replication_wal_truncate_threshold=threshold,
        )
        keyword = next(iter(platform.catalog_view())).terms[0][0]
        gateway = platform.gateway()
        for _ in range(sessions):
            assert gateway.login("ann").ok
            results = gateway.query("ann", keyword).result.hits
            if results:
                assert gateway.buy("ann", results[0].item, marketplace=results[0].marketplace).ok
            assert gateway.logout("ann").ok
        return platform

    def test_anti_entropy_truncates_the_acknowledged_prefix(self):
        platform = self._busy_platform(threshold=5)
        fleet = platform.fleet
        owner = fleet.server_for("ann")
        manager = owner.replication
        appended = manager.log.last_seq
        assert appended > 5  # enough traffic to cross the threshold
        assert manager.lag_of(manager.peers[0].name) == 0

        platform.scheduler.run_for(
            ANTI_ENTROPY_INTERVAL_MS
        )

        assert manager.log.truncated_seq == appended
        assert len(manager.log) == 0
        assert manager.snapshot is not None
        assert manager.snapshot.seq >= appended
        assert platform.event_log.count("replication.wal-truncated") >= 1
        assert (
            platform.metrics.counter("replication.wal.truncated_entries").value
            >= appended
        )

    def test_truncation_never_drops_unacknowledged_entries(self):
        """The satellite invariant: a lagging peer holds truncation back."""
        platform = self._busy_platform(threshold=3)
        fleet = platform.fleet
        owner = fleet.server_for("ann")
        manager = owner.replication
        peer = manager.peers[0]

        # Flush what is already acknowledged, then lag the peer.
        platform.scheduler.run_for(
            ANTI_ENTROPY_INTERVAL_MS
        )
        acked_before = manager.acked_seq(peer.name)
        platform.failures.partition([owner.name], [peer.name])
        gateway = platform.gateway()
        assert gateway.login("ann").ok
        assert gateway.query("ann", "book").ok
        assert gateway.logout("ann").ok
        assert manager.lag_of(peer.name) > 0

        # Anti-entropy keeps running but must not truncate past the lagging
        # peer's acknowledgement — those entries are its only way back.
        platform.scheduler.run_for(
            3 * ANTI_ENTROPY_INTERVAL_MS
        )
        assert manager.log.truncated_seq <= acked_before
        assert [e.seq for e in manager.log.entries_since(manager.log.truncated_seq)]

        # Heal: the peer catches up from the retained suffix, byte for byte,
        # and truncation resumes.
        platform.failures.heal()
        platform.scheduler.run_for(
            2 * ANTI_ENTROPY_INTERVAL_MS
        )
        assert manager.lag_of(peer.name) == 0
        replica = peer.replication.hosted[owner.name]
        assert _profile_dicts(replica.db) == _profile_dicts(owner.user_db)
        # Truncation resumed: at most one sub-threshold tail is retained.
        assert manager.log.truncated_seq > acked_before or len(manager.log) < 3
        assert len(manager.log) < 3

    def test_peer_crash_during_catch_up_defers_and_preserves_entries(self):
        """A peer that dies mid-catch-up loses nothing: shipments defer, the
        suffix stays in the log, and recovery converges byte-identically."""
        platform = self._busy_platform(threshold=3)
        fleet = platform.fleet
        owner = fleet.server_for("ann")
        manager = owner.replication
        peer = manager.peers[0]

        platform.failures.partition([owner.name], [peer.name])
        gateway = platform.gateway()
        assert gateway.login("ann").ok
        assert gateway.query("ann", "book").ok
        assert gateway.logout("ann").ok
        platform.failures.heal()
        # Mid-catch-up the peer crashes outright.
        platform.failures.crash_host(peer.name)
        deferred_before = platform.metrics.counter("replication.deferred").value
        platform.scheduler.run_for(
            2 * ANTI_ENTROPY_INTERVAL_MS
        )
        assert platform.metrics.counter("replication.deferred").value > deferred_before
        assert manager.lag_of(peer.name) > 0
        acked = manager.acked_seq(peer.name)
        assert manager.log.truncated_seq <= acked

        platform.failures.recover_host(peer.name)
        platform.scheduler.run_for(
            2 * ANTI_ENTROPY_INTERVAL_MS
        )
        assert manager.lag_of(peer.name) == 0
        replica = peer.replication.hosted[owner.name]
        assert _profile_dicts(replica.db) == _profile_dicts(owner.user_db)

    def test_new_peer_after_truncation_bootstraps_from_the_snapshot(self):
        """A peer wired after the acknowledged prefix was truncated cannot
        replay from seq 1 — it receives the snapshot, then the tail."""
        platform = self._busy_platform(threshold=3)
        fleet = platform.fleet
        owner = fleet.server_for("ann")
        manager = owner.replication
        platform.scheduler.run_for(
            ANTI_ENTROPY_INTERVAL_MS
        )
        assert manager.log.truncated_seq > 0

        newcomer = next(
            server for server in fleet.servers
            if server is not owner
            and all(peer is not server for peer in manager.peers)
        )
        state = manager.replicate_to(newcomer)

        assert state.applied_seq == manager.log.last_seq
        assert manager.lag_of(newcomer.name) == 0
        assert _profile_dicts(state.db) == _profile_dicts(owner.user_db)
        assert (
            platform.metrics.counter("replication.snapshots_shipped").value >= 1
        )
        assert platform.event_log.count("replication.snapshot-bootstrap") >= 1

    def test_snapshot_bootstrap_equals_entry_replay(self):
        """Replaying entries 1..n and bootstrapping from a snapshot at n
        produce byte-identical replicas."""
        platform = self._busy_platform(threshold=0)  # keep the full log
        fleet = platform.fleet
        owner = fleet.server_for("ann")
        manager = owner.replication

        replayed = ReplicaState(owner.name)
        replayed.apply_entries(manager.log.entries_since(0))
        bootstrapped = ReplicaState(owner.name)
        bootstrapped.bootstrap(manager._capture_snapshot())

        assert bootstrapped.applied_seq == replayed.applied_seq
        assert _profile_dicts(bootstrapped.db) == _profile_dicts(replayed.db)
        assert bootstrapped.db.user_ids == replayed.db.user_ids
        for user_id in replayed.db.user_ids:
            assert (
                bootstrapped.db.ratings.interactions_of(user_id)
                == replayed.db.ratings.interactions_of(user_id)
            )
            assert (
                bootstrapped.db.transactions_of(user_id)
                == replayed.db.transactions_of(user_id)
            )
            boot_record = bootstrapped.db.user(user_id)
            replay_record = replayed.db.user(user_id)
            assert boot_record.logins == replay_record.logins
            assert boot_record.last_login_at == replay_record.last_login_at

    def test_replica_never_regresses_to_an_older_snapshot(self):
        platform = self._busy_platform(threshold=0)
        owner = platform.fleet.server_for("ann")
        manager = owner.replication
        snapshot = manager._capture_snapshot()
        state = ReplicaState(owner.name)
        state.apply_entries(manager.log.entries_since(0))
        gateway = platform.gateway()
        assert gateway.login("ann").ok
        assert gateway.logout("ann").ok
        state.apply_entries(manager.log.entries_since(state.applied_seq))
        with pytest.raises(ReplicationError):
            state.bootstrap(snapshot)

    def _populated_primary(self, population):
        """A primary holding ``population`` consumers written straight into
        its UserDB (every write still streams to the one peer)."""
        platform = build_platform(
            seed=11, num_buyer_servers=2, replication_factor=1,
            replication_wal_truncate_threshold=4,
        )
        owner = platform.fleet.servers[0]
        users = [f"consumer-{index}" for index in range(population)]
        for index, user_id in enumerate(users):
            owner.user_db.register(user_id, timestamp=float(index))
            owner.user_db.record_interaction(
                Interaction(user_id, "item-1", InteractionKind.VIEW)
            )
        return owner, users

    def test_discarded_capture_leaves_the_next_truncation_complete(self):
        """Capture is a pure read: a snapshot captured and thrown away must
        not use up the record of who changed since the installed one, or the
        next real truncation would ship those consumers' stale dumps."""
        owner, users = self._populated_primary(6)
        manager = owner.replication
        assert manager.maybe_truncate() > 0
        installed = manager.snapshot

        for user_id in users[:4]:  # they change after the snapshot
            owner.user_db.record_login(user_id, 1000.0)
        manager._capture_snapshot()  # captured, never installed
        assert manager.maybe_truncate() > 0
        assert manager.snapshot is not installed

        replayed = manager.peers[0].replication.hosted[owner.name]
        bootstrapped = ReplicaState(owner.name)
        bootstrapped.bootstrap(manager.snapshot)
        assert bootstrapped.applied_seq == replayed.applied_seq
        assert _durable_state(bootstrapped.db) == _durable_state(replayed.db)
        assert _durable_state(bootstrapped.db) == _durable_state(owner.user_db)

    @pytest.mark.parametrize("population", [50, 500])
    def test_truncation_dumps_only_the_consumers_written_since(
        self, population, monkeypatch
    ):
        """Cost shape, counted not timed: after the first truncation, one
        that follows writes by k consumers dumps k consumers — whatever the
        population of the server."""
        owner, users = self._populated_primary(population)
        manager = owner.replication
        dumps = []
        to_dict = Profile.to_dict
        monkeypatch.setattr(
            Profile, "to_dict",
            lambda profile: dumps.append(profile.user_id) or to_dict(profile),
        )
        assert manager.maybe_truncate() > 0
        assert sorted(dumps) == sorted(users)  # the first capture is everyone

        writers = users[3:8]
        for user_id in writers:
            owner.user_db.record_login(user_id, 1000.0)
            owner.user_db.record_interaction(
                Interaction(user_id, "item-2", InteractionKind.BUY, timestamp=1000.0)
            )
        del dumps[:]
        assert manager.maybe_truncate() > 0
        assert sorted(dumps) == writers
        assert len(manager.snapshot.state) == population

    def test_zero_threshold_disables_truncation(self):
        platform = self._busy_platform(threshold=0)
        owner = platform.fleet.server_for("ann")
        platform.scheduler.run_for(
            5 * ANTI_ENTROPY_INTERVAL_MS
        )
        assert owner.replication.log.truncated_seq == 0
        assert len(owner.replication.log) == owner.replication.log.last_seq


def _ring_server(name, running=True, replicating=True):
    """The three things the successor walk reads off a server."""
    return SimpleNamespace(
        name=name,
        replication=object() if replicating else None,
        context=SimpleNamespace(host=SimpleNamespace(is_running=running)),
    )


class TestRingSuccessorWalk:
    def _names(self, ring, start, **kwargs):
        return [server.name for server in ring.successors(start, **kwargs)]

    def test_walks_ring_order_from_the_primary_and_wraps(self):
        servers = [_ring_server(name) for name in "abcd"]
        ring = ReplicationRing(servers, retired=set())
        assert self._names(ring, servers[0]) == ["b", "c", "d"]
        assert self._names(ring, servers[2]) == ["d", "a", "b"]
        assert self._names(ring, servers[3]) == ["a", "b", "c"]

    def test_skips_dead_retired_non_replicating_and_already_peered(self):
        a, b, c, d, e, f = servers = [
            _ring_server("a"),
            _ring_server("b", running=False),
            _ring_server("c"),
            _ring_server("d", replicating=False),
            _ring_server("e"),
            _ring_server("f"),
        ]
        ring = ReplicationRing(servers, retired={"c"})
        assert self._names(ring, a) == ["e", "f"]
        assert self._names(ring, a, skip=[e]) == ["f"]
        # Wrapping from the far end applies the same filters.
        assert self._names(ring, f) == ["a", "e"]
        assert self._names(ring, f, skip=[a, e]) == []

    def test_membership_changes_are_seen_through_the_shared_collections(self):
        servers = [_ring_server(name) for name in "ab"]
        retired = set()
        ring = ReplicationRing(servers, retired)
        servers.append(_ring_server("c"))
        assert self._names(ring, servers[0]) == ["b", "c"]
        retired.add("b")
        assert self._names(ring, servers[0]) == ["c"]

    def test_one_server_ring_has_no_successor(self):
        only = _ring_server("only")
        assert list(ReplicationRing([only], retired=set()).successors(only)) == []


class TestPlatformConfigValidation:
    def test_replication_factor_needs_enough_servers(self):
        config = PlatformConfig(num_buyer_servers=2, replication_factor=2)
        with pytest.raises(ECommerceError):
            config.validate()

    def test_negative_factor_rejected(self):
        config = PlatformConfig(replication_factor=-1)
        with pytest.raises(ECommerceError):
            config.validate()

    def test_negative_truncate_threshold_rejected(self):
        config = PlatformConfig(replication_wal_truncate_threshold=-1)
        with pytest.raises(ECommerceError):
            config.validate()

    @pytest.mark.parametrize(
        "option",
        [
            "replication_anti_entropy_interval_ms",
            "api_max_retries",
            "api_retry_backoff_ms",
            "learning",
        ],
    )
    def test_options_no_entry_point_set_are_refused(self, option):
        # Module constants now (or the learner's own defaults); an old
        # caller's override must fail loudly instead of being ignored.
        with pytest.raises(ECommerceError, match=option):
            build_platform(seed=3, **{option: None})

    def test_every_replicating_server_arms_anti_entropy_at_the_constant(self):
        platform = build_platform(seed=3, num_buyer_servers=3, replication_factor=1)
        for server in platform.buyer_servers:
            task = server.replication._anti_entropy_task
            assert task is not None and task.interval == ANTI_ENTROPY_INTERVAL_MS

    def test_topology_reports_the_replica_map(self):
        platform = build_platform(seed=3, num_buyer_servers=2, replication_factor=1)
        topology = platform.coordinator.topology()
        names = [server.name for server in platform.buyer_servers]
        assert topology["replica_map"] == {
            names[0]: [names[1]],
            names[1]: [names[0]],
        }
