"""Property test: a WAL entry is sized once, and the size stays true.

``ReplicationLogEntry.payload_bytes()`` keeps the size its first shipment
computed.  That is only sound while no payload changes after
``ReplicationLog.append``, so the sequences below drive a replicated fleet
through writes, partitions (entries held back, then re-shipped by catch-up),
peer crashes and WAL truncation, and then hold every entry ever appended to
the figure taken at append time: ``48 + len(repr(payload))``.
"""

from hypothesis import given, settings, strategies as st

from repro.core.ratings import Interaction, InteractionKind
from repro.ecommerce import build_platform
from repro.ecommerce.replication import ENTRY_OVERHEAD_BYTES

CONSUMERS = [f"consumer-{index}" for index in range(4)]
OPS = ("session", "rate", "partition", "heal", "crash-peer", "recover-peer",
       "catch-up", "anti-entropy")

steps = st.lists(
    st.tuples(st.sampled_from(OPS), st.sampled_from(CONSUMERS)),
    min_size=4,
    max_size=24,
)


def recorded_platform():
    """Two replicating servers; every appended entry is kept with its
    append-time size."""
    platform = build_platform(
        seed=5, num_buyer_servers=2, replication_factor=1,
        replication_wal_truncate_threshold=4,
    )
    appended = []
    for server in platform.fleet.servers:
        log = server.replication.log
        append = log.append

        def recording(op, payload, timestamp, append=append):
            entry = append(op, payload, timestamp)
            appended.append((entry, ENTRY_OVERHEAD_BYTES + len(repr(entry.payload))))
            return entry

        log.append = recording
    return platform, appended


@settings(max_examples=25, deadline=None)
@given(steps=steps)
def test_every_entry_keeps_its_append_time_size(steps):
    platform, appended = recorded_platform()
    gateway = platform.gateway()
    fleet = platform.fleet
    keyword = next(iter(platform.catalog_view())).terms[0][0]
    item = next(iter(platform.catalog_view()))
    interval = platform.config.replication_anti_entropy_interval_ms
    for op, user_id in [("session", user_id) for user_id in CONSUMERS] + steps:
        owner = fleet.server_for(user_id) if fleet.is_registered(user_id) else None
        peer = None if owner is None else owner.replication.peers[0]
        if op == "session":
            if gateway.login(user_id).ok:
                gateway.query(user_id, keyword)
                gateway.logout(user_id)
        elif owner is None or not owner.context.host.is_running:
            continue
        elif op == "rate":
            owner.user_db.record_interaction(
                Interaction(user_id, item.item_id, InteractionKind.RATE, value=2.0)
            )
        elif op == "partition":
            platform.failures.partition([owner.name], [peer.name])
        elif op == "heal":
            platform.failures.heal()
        elif op == "crash-peer":  # no failover: the peer's entries wait
            if peer.context.host.is_running:
                platform.failures.crash_host(peer.name)
        elif op == "recover-peer":
            for server in fleet.servers:
                if not server.context.host.is_running:
                    platform.failures.recover_host(server.name)
        elif op == "catch-up":
            if peer.context.host.is_running:
                owner.replication.catch_up(peer.name)
        elif op == "anti-entropy":
            platform.scheduler.run_for(interval)
    platform.failures.heal()
    platform.scheduler.run_for(2 * interval)

    assert any(server.replication.log.truncated_seq for server in fleet.servers)
    for entry, size in appended:
        assert entry._size in (None, size)  # sized by a shipment, or never shipped
        assert entry.payload_bytes() == size == ENTRY_OVERHEAD_BYTES + len(
            repr(entry.payload)
        )
    assert any(entry._size is not None for entry, _ in appended)


def test_a_reshipped_entry_is_not_sized_again():
    platform, appended = recorded_platform()
    gateway = platform.gateway()
    assert gateway.login(CONSUMERS[0]).ok
    gateway.logout(CONSUMERS[0])
    entry, size = appended[-1]
    assert entry._size == size  # the synchronous shipment sized it
    object.__setattr__(entry, "payload", {"changed": "after shipment"})
    assert entry.payload_bytes() == size  # the memo, not a fresh repr
