"""Property test: a profile dump is shipped once and shared, never written.

A ``store-profile`` WAL entry carries ``Profile.to_dict()``.  That dict is
the only copy of the profile outside the primary's live ``Profile``: the
replica's shadow UserDB keeps it as shipped and builds a ``Profile`` on the
first read, and a snapshot reuses the dict of each consumer's latest
``store-profile`` entry.  The sequences below drive a replicated three-server
fleet through registrations, ratings, learning, unregistrations and
re-registrations, WAL truncations, replica bootstraps, promotion failovers
and shard transfers, and after every step check that

- every caught-up replica reads, profile by profile, what its primary reads;
- no dump held by a WAL, a snapshot or a replica was written after it was
  appended (compared with a deep copy taken then, insertion order included);
- a snapshot's dump for a consumer *is* that consumer's latest
  ``store-profile`` payload, and equals a fresh dump while the log has not
  moved past the snapshot;
- a re-registered consumer is never handed a dump from before it left.
"""

import copy

from hypothesis import example, given, settings, strategies as st

from repro.ecommerce import build_platform

from tests.property.test_incremental_snapshot import ITEMS, USERS, apply_step


CONSUMER_OPS = ("register", "rate", "learn", "store-profile", "buy", "unregister", "adopt")
FLEET_OPS = ("truncate", "bootstrap", "promote", "transfer")

#: (op, consumer, item, amount)
steps = st.lists(
    st.tuples(
        st.sampled_from(CONSUMER_OPS + FLEET_OPS),
        st.sampled_from(USERS),
        st.sampled_from(ITEMS),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=8,
    max_size=40,
)


class DumpLedger:
    """Every WAL append of every server, with a deep copy of each dump."""

    def __init__(self, servers):
        #: server name → [(seq, op, user id, dump or None)] in append order
        self.history = {server.name: [] for server in servers}
        #: id(dump) → (dump, deep copy taken when it was first held)
        self.frozen = {}
        for server in servers:
            self._watch(server.name, server.replication.log)

    def _watch(self, name, log):
        append = log.append

        def recording(op, payload, timestamp):
            entry = append(op, payload, timestamp)
            if op == "store-profile":
                dump = entry.payload["profile"]
                self.hold(dump)
                self.history[name].append((entry.seq, op, dump["user_id"], dump))
            elif op in ("register", "unregister"):
                self.history[name].append((entry.seq, op, entry.payload["user_id"], None))
            return entry

        log.append = recording

    def hold(self, dump):
        if id(dump) not in self.frozen:
            self.frozen[id(dump)] = (dump, copy.deepcopy(dump))

    def latest_store(self, name, user_id, seq):
        """The dump of ``user_id``'s latest store-profile entry at ``seq``
        (None when a register / unregister came after it, or none exists)."""
        latest = None
        for entry_seq, op, entry_user, dump in self.history[name]:
            if entry_seq > seq:
                break
            if entry_user == user_id:
                latest = dump
        return latest

    def earlier_dumps(self, name, user_id):
        return {
            id(dump) for _, op, entry_user, dump in self.history[name]
            if entry_user == user_id and dump is not None
        }


def held_dumps(servers):
    """Every profile dump a WAL, a snapshot or a replica holds right now."""
    for server in servers:
        manager = server.replication
        for entry in manager.log.entries_since(manager.log.truncated_seq):
            if entry.op == "store-profile":
                yield entry.payload["profile"]
        if manager.snapshot is not None:
            for record in manager.snapshot.state.values():
                yield record["profile"]
        for state in manager.hosted.values():
            yield from state.db._dumps.values()


def run_fleet_op(platform, op, user_id, amount):
    fleet = platform.fleet
    servers = fleet.servers
    live = [server for server in servers if server.context.host.is_running]
    other = servers[USERS.index(user_id) % len(servers)]
    if op == "truncate":
        for server in live:
            server.replication.maybe_truncate()
    elif op == "bootstrap":
        # The peer loses its replica; the next shipment rebuilds it from the
        # snapshot (or from sequence 1 while nothing was truncated).
        primary = servers[amount % len(servers)]
        manager = primary.replication
        if primary in live and manager.peers:
            peer = manager.peers[0]
            peer.replication.discard_replica(primary.name)
            manager.catch_up(peer.name)
    elif op == "promote":
        victim = servers[amount % len(servers)]
        if len(live) == len(servers) and fleet.shards_of(victim):
            platform.failures.crash_host(victim.name)
            fleet.handle_server_failure(fleet.shards_of(victim)[0])
            platform.failures.recover_host(victim.name)
            fleet.recover_server(victim)
    elif op == "transfer":
        # A consumer unregistered here stays assigned to its shard, and a
        # transfer moves every assigned consumer: skip such shards.
        shard = amount % fleet.num_shards
        source, target = fleet.owner_of_shard(shard), other
        if target in live and source in live and all(
            source.user_db.is_registered(consumer) for consumer in fleet.consumers_of(shard)
        ):
            fleet.transfer_shard(shard, target)


def check(platform, ledger):
    servers = platform.fleet.servers
    for dump in held_dumps(servers):
        ledger.hold(dump)
    for dump, frozen in ledger.frozen.values():
        assert repr(dump) == repr(frozen), "a shipped profile dump was written"

    for primary in servers:
        if not primary.context.host.is_running:
            continue
        db, manager = primary.user_db, primary.replication
        for peer in list(manager.peers):
            # A no-op unless a promotion discarded the peer's replica.
            assert manager.catch_up(peer.name) == 0
            state = peer.replication.hosted[primary.name]
            assert state.applied_seq == manager.log.last_seq
            assert state.db.user_ids == db.user_ids
            for user_id in db.user_ids:
                assert state.db.profile(user_id).to_dict() == db.profile(user_id).to_dict()

        snapshot = manager.snapshot
        if snapshot is None:
            continue
        for user_id, record in snapshot.state.items():
            dump = record["profile"]
            shipped = ledger.latest_store(primary.name, user_id, snapshot.seq)
            if shipped is not None:
                assert dump is shipped
            else:  # registered since, or never stored: never an old dump
                assert id(dump) not in ledger.earlier_dumps(primary.name, user_id)
            if snapshot.seq == manager.log.last_seq:
                assert repr(dump) == repr(db.profile(user_id).to_dict())


@settings(max_examples=60, deadline=None)
@given(steps=steps, threshold=st.integers(min_value=1, max_value=6))
@example(  # learned, left, came back empty: the snapshot must not revive the old dump
    steps=[(op, USERS[0], ITEMS[0], 0)
           for op in ("register", "learn", "unregister", "register", "truncate")],
    threshold=1,
)
def test_one_dump_per_profile_state_is_shared_and_never_written(steps, threshold):
    platform = build_platform(
        seed=3, num_buyer_servers=3, replication_factor=1,
        replication_wal_truncate_threshold=threshold,
    )
    ledger = DumpLedger(platform.fleet.servers)
    for index, (op, user_id, item, amount) in enumerate(steps):
        if op in FLEET_OPS:
            run_fleet_op(platform, op, user_id, amount)
        elif op in ("register", "adopt") or platform.fleet.is_registered(user_id):
            # Only a registration assigns a consumer a shard.
            owner = platform.fleet.server_for(user_id)
            apply_step(owner, op, user_id, item, amount, now=float(index))
        check(platform, ledger)


def test_a_replica_builds_a_shipped_profile_only_when_read():
    platform = build_platform(seed=3, num_buyer_servers=2, replication_factor=1)
    primary, peer = platform.fleet.servers
    for index, op in enumerate(("register", "learn", "learn")):
        apply_step(primary, op, USERS[0], ITEMS[index], 1, now=float(index))
    shipped = primary.replication.log.entries_since(0)[-1].payload["profile"]
    shadow = peer.replication.hosted[primary.name].db
    assert shadow._dumps[USERS[0]] is shipped
    assert USERS[0] not in shadow._profiles
    profile = shadow.profile(USERS[0])
    assert shadow.profile(USERS[0]) is profile and profile.to_dict() == shipped
    assert shadow._dumps[USERS[0]] is shipped
