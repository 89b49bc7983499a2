"""Property test: a WAL row is sized once, and the size stays true.

``ReplicationLog`` keeps, in its row, the wire size the row's first
shipment computed, and every later shipment reads it.  That is only sound
while no payload changes after ``ReplicationLog.append``, so the sequences
below drive a replicated fleet through writes, partitions (entries held
back, then re-shipped by catch-up), peer crashes and WAL truncation, and
then hold every row's kept size, read before truncation drops the row or
at the end, to the figure taken at append time: ``48 + len(repr(payload))``.
"""

from hypothesis import given, settings, strategies as st

from repro.core.ratings import Interaction, InteractionKind
from repro.ecommerce import build_platform
from repro.ecommerce.platform_builder import ANTI_ENTROPY_INTERVAL_MS
from repro.ecommerce.replication import _UNSIZED, ENTRY_OVERHEAD_BYTES

CONSUMERS = [f"consumer-{index}" for index in range(4)]
OPS = ("session", "rate", "partition", "heal", "crash-peer", "recover-peer",
       "catch-up", "anti-entropy")

steps = st.lists(
    st.tuples(st.sampled_from(OPS), st.sampled_from(CONSUMERS)),
    min_size=4,
    max_size=24,
)


def row_size(log, seq):
    """The wire size ``log`` keeps in entry ``seq``'s row (``_UNSIZED``
    until a shipment sizes it)."""
    return log._sizes[seq - log.truncated_seq - 1]


def recorded_platform():
    """Two replicating servers; every appended entry is kept with its
    append-time size, and every row's kept size is read before truncation
    drops it."""
    platform = build_platform(
        seed=5, num_buyer_servers=2, replication_factor=1,
        replication_wal_truncate_threshold=4,
    )
    appended, kept = [], []
    for server in platform.fleet.servers:
        log = server.replication.log
        sizes = {}

        def recording(op, payload, timestamp, log=log, append=log.append, sizes=sizes):
            entry = append(op, payload, timestamp)
            size = ENTRY_OVERHEAD_BYTES + len(repr(entry.payload))
            appended.append((log, entry, size))
            sizes[entry.seq] = size
            return entry

        def truncating(seq, log=log, truncate=log.truncate_through, sizes=sizes):
            for dropped in range(log.truncated_seq + 1, seq + 1):
                kept.append((row_size(log, dropped), sizes[dropped]))
            return truncate(seq)

        log.append, log.truncate_through = recording, truncating
    return platform, appended, kept


@settings(max_examples=25, deadline=None)
@given(steps=steps)
def test_every_entry_keeps_its_append_time_size(steps):
    platform, appended, kept = recorded_platform()
    gateway = platform.gateway()
    fleet = platform.fleet
    keyword = next(iter(platform.catalog_view())).terms[0][0]
    item = next(iter(platform.catalog_view()))
    interval = ANTI_ENTROPY_INTERVAL_MS
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
    kept += [
        (row_size(log, entry.seq), size)
        for log, entry, size in appended
        if entry.seq > log.truncated_seq
    ]
    for size, appended_size in kept:
        assert size in (_UNSIZED, appended_size)  # sized by a shipment, or never shipped
    for _, entry, size in appended:
        assert entry.payload_bytes() == size == ENTRY_OVERHEAD_BYTES + len(
            repr(entry.payload)
        )
    assert any(size != _UNSIZED for size, _ in kept)


def test_a_reshipped_entry_is_not_sized_again():
    platform, appended, _ = recorded_platform()
    gateway = platform.gateway()
    assert gateway.login(CONSUMERS[0]).ok
    gateway.logout(CONSUMERS[0])
    log, entry, size = appended[-1]
    owner = platform.fleet.server_for(CONSUMERS[0]).replication
    peer = owner.peers[0].name
    assert log is owner.log
    assert row_size(log, entry.seq) == size  # the synchronous shipment sized it
    # The row's payload changes after shipment, and the peer is made to
    # need the entry again: catch-up re-ships it at the kept size.
    row = entry.seq - log.truncated_seq - 1
    log._values[row] = ("changed after shipment",) * len(log._values[row])
    assert log.entries_since(entry.seq - 1)[0].payload_bytes() != size
    owner._acked[peer] = entry.seq - 1
    assert owner.catch_up(peer) == 0
    assert platform.event_log.last_payload("transfer.replication")["payload_bytes"] == size
