"""Property test: a WAL that keeps one profile version per consumer ships
exactly what the historic log would.

``ReplicationManager`` lets a consumer's superseded ``store-profile`` rows
read its latest dump, after fixing each row's wire size from its own dump.
The sequences below drive a primary through learning updates, profile
stores, ratings, registrations and unregistrations while its peer crashes
and recovers or leaves the stream and rejoins it, anti-entropy ticks run
and the WAL truncates.  After every
shipment the peer's replica is held to a replica fed the historic entries
(each the entry ``ReplicationLog.append`` returned around the mutation's
own payload), and the charged ``transfer.replication`` bytes to the sum of
those entries' ``payload_bytes()``.
"""

from hypothesis import example, given, settings, strategies as st

from repro.ecommerce import build_platform
from repro.ecommerce.platform_builder import ANTI_ENTROPY_INTERVAL_MS
from repro.ecommerce.replication import ReplicaState

from tests.property.test_incremental_snapshot import ITEMS, USERS, apply_step, scratch_dump


CONSUMER_OPS = ("register", "learn", "store-profile", "rate", "unregister")
#: ``detach-peer`` stops the stream as a ring retarget with no stand-in does,
#: so no failed shipment sizes the rows appended until ``attach-peer``.
FLEET_OPS = (
    "crash-peer", "recover-peer", "detach-peer", "attach-peer", "anti-entropy", "truncate",
)

#: (op, consumer, item, amount)
steps = st.lists(
    st.tuples(
        st.sampled_from(CONSUMER_OPS + ("learn",) * 3 + FLEET_OPS),
        st.sampled_from(USERS[:3]),
        st.sampled_from(ITEMS),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=8,
    max_size=48,
)


def assert_same_replica(replica, reference):
    assert replica.applied_seq == reference.applied_seq
    assert replica.db.profiles_version() == reference.db.profiles_version()
    assert scratch_dump(replica.db) == scratch_dump(reference.db)
    for user_id in reference.db.user_ids:  # the very dump, not an equal one
        assert replica.db._dumps.get(user_id) is reference.db._dumps.get(user_id)


@settings(max_examples=60, deadline=None)
@given(steps=steps, threshold=st.integers(min_value=1, max_value=6))
@example(  # a down peer misses three versions of one consumer, then catches up
    steps=[("register", USERS[0], ITEMS[0], 0), ("crash-peer", USERS[0], ITEMS[0], 0)]
    + [("learn", USERS[0], item, 0) for item in ITEMS[:3]]
    + [("recover-peer", USERS[0], ITEMS[0], 0), ("anti-entropy", USERS[0], ITEMS[0], 0)],
    threshold=2,
)
@example(  # three versions no shipment sized before the stream resumes
    steps=[("register", USERS[0], ITEMS[0], 0), ("detach-peer", USERS[0], ITEMS[0], 0)]
    + [("learn", USERS[0], item, 0) for item in ITEMS[:3]]
    + [("attach-peer", USERS[0], ITEMS[0], 0)],
    threshold=2,
)
@example(  # the latest version's row is truncated before the next one
    steps=[("register", USERS[0], ITEMS[0], 0), ("learn", USERS[0], ITEMS[0], 0),
           ("truncate", USERS[0], ITEMS[0], 0), ("learn", USERS[0], ITEMS[1], 0)],
    threshold=1,
)
def test_every_shipment_equals_the_historic_log(steps, threshold):
    platform = build_platform(
        seed=3, num_buyer_servers=2, replication_factor=1,
        replication_wal_truncate_threshold=threshold,
    )
    owner = platform.fleet.servers[0]
    manager = owner.replication
    peer = manager.peers[0]
    replica = peer.replication.hosted[owner.name]
    reference = ReplicaState(owner.name)
    history = {}  # seq → the entry append returned
    append, apply_entries = manager.log.append, replica.apply_entries
    shipments = []

    def recording(op, payload, timestamp):
        entry = history[len(history) + 1] = append(op, payload, timestamp)
        return entry

    def applying(entries):
        historic = [history[entry.seq] for entry in entries]
        charged = platform.event_log.last_payload("transfer.replication")["payload_bytes"]
        assert charged == sum(entry.payload_bytes() for entry in historic)
        applied = apply_entries(entries)
        assert reference.apply_entries(historic) == applied
        assert_same_replica(replica, reference)
        shipments.append(len(entries))
        return applied

    manager.log.append, replica.apply_entries = recording, applying
    interval = ANTI_ENTROPY_INTERVAL_MS
    for index, (op, user_id, item, amount) in enumerate(steps):
        if op == "crash-peer":
            if peer.context.host.is_running:
                platform.failures.crash_host(peer.name)
        elif op == "recover-peer":
            if not peer.context.host.is_running:
                platform.failures.recover_host(peer.name)
        elif op == "detach-peer":
            if manager.peers:
                manager.remove_peer(peer.name)
        elif op == "attach-peer":
            if not manager.peers:
                manager.replicate_to(peer)
        elif op == "anti-entropy":
            platform.scheduler.run_for(interval)
        elif op == "truncate":
            manager.maybe_truncate()
        else:
            apply_step(owner, op, user_id, item, amount, now=float(index))
    if not peer.context.host.is_running:
        platform.failures.recover_host(peer.name)
    if not manager.peers:
        manager.replicate_to(peer)
    platform.scheduler.run_for(interval)

    assert peer.replication.hosted[owner.name] is replica
    assert manager.lag_of(peer.name) == 0
    assert scratch_dump(replica.db) == scratch_dump(owner.user_db)
    assert bool(shipments) == bool(history)
