"""A snapshot's wire size is ``len(repr(state))``, summed from parts sized once.

``ReplicationSnapshot.payload_bytes`` adds one term per consumer and keeps
each term with the dump it measured; ``_capture_snapshot`` carries the terms
of untouched dumps into the next snapshot.  What the network is charged must
not move by a byte, so every case here compares against the whole-state
``repr`` — including the cases where a carried term could go stale (a touched,
an unregistered, a re-registered consumer) and the ids whose ``repr`` is not
``len + 2`` characters long.
"""

from hypothesis import given, settings, strategies as st

from repro.core.ratings import Interaction, InteractionKind
from repro.ecommerce import build_platform
from repro.ecommerce.replication import SNAPSHOT_OVERHEAD_BYTES, ReplicationSnapshot

from tests.property.test_incremental_snapshot import apply_step, steps


def whole_state_size(snapshot):
    return SNAPSHOT_OVERHEAD_BYTES + len(repr(snapshot.state))


AWKWARD_IDS = ["o'brien", 'say "hi"', "both ' and \"", "back\\slash", "new\nline", "zoë", "名前", ""]


def test_hand_built_snapshots_size_themselves():
    dump = {"display_name": "d", "profile": {"categories": {}}, "interactions": [1, 2]}
    for count in range(len(AWKWARD_IDS) + 1):
        state = {user_id: dict(dump, logins=index)
                 for index, user_id in enumerate(AWKWARD_IDS[:count])}
        snapshot = ReplicationSnapshot(7, 1.5, state)  # the three positional fields
        assert snapshot.payload_bytes() == whole_state_size(snapshot)
        assert snapshot.payload_bytes() == whole_state_size(snapshot)  # sized twice
        assert snapshot == ReplicationSnapshot(7, 1.5, dict(state))  # sizes are no field
    assert ReplicationSnapshot(0, 0.0, {}).payload_bytes() == SNAPSHOT_OVERHEAD_BYTES + 2


@given(user_ids=st.lists(st.text(max_size=6), unique=True, max_size=5),
       dumps=st.lists(st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=3),
                      min_size=5, max_size=5))
def test_any_ids_any_dumps(user_ids, dumps):
    snapshot = ReplicationSnapshot(1, 0.0, dict(zip(user_ids, dumps)))
    assert snapshot.payload_bytes() == whole_state_size(snapshot)


@settings(max_examples=60, deadline=None)
@given(steps=steps, threshold=st.integers(min_value=1, max_value=8))
def test_a_chain_of_incremental_captures_is_charged_to_the_byte(steps, threshold):
    platform = build_platform(
        seed=3, num_buyer_servers=2, replication_factor=1,
        replication_wal_truncate_threshold=threshold,
    )
    owner = platform.fleet.servers[0]
    manager = owner.replication
    shipped = []
    for index, (op, user_id, item, amount, truncate) in enumerate(steps):
        apply_step(owner, op, user_id, item, amount, now=float(index))
        if not truncate or not manager.maybe_truncate():
            continue
        snapshot = manager.snapshot
        carried = set(snapshot.sizes)
        # Only what an earlier shipment sized, and still the same dump, rides along.
        for earlier in shipped[-1:]:
            assert all(snapshot.state[u] is earlier.state[u] for u in carried)
        assert carried <= set(snapshot.state)
        if amount % 2:  # some snapshots are never shipped: nothing to carry
            assert snapshot.payload_bytes() == whole_state_size(snapshot)
            assert set(snapshot.sizes) == set(snapshot.state)
            shipped.append(snapshot)
        for earlier in shipped:
            assert earlier.payload_bytes() == whole_state_size(earlier)


def test_a_second_shipment_sizes_the_redumped_consumers_only(monkeypatch):
    platform = build_platform(
        seed=3, num_buyer_servers=2, replication_factor=1,
        replication_wal_truncate_threshold=1,
    )
    owner = platform.fleet.servers[0]
    db, manager = owner.user_db, owner.replication
    users = [f"user-{index}" for index in range(6)]
    for user_id in users:
        db.register(user_id)
        db.record_interaction(Interaction(user_id, "item-0", InteractionKind.VIEW))
    assert manager.maybe_truncate()

    sized = []
    real = Interaction.__repr__
    monkeypatch.setattr(
        Interaction, "__repr__", lambda self: sized.append(self.user_id) or real(self)
    )
    first = manager.snapshot.payload_bytes()
    assert sorted(sized) == users  # every dump, once
    assert manager.snapshot.payload_bytes() == first
    assert sorted(sized) == users  # a re-shipment sizes nothing

    db.record_login(users[1], 5.0)
    db.unregister(users[2])
    db.unregister(users[4])
    db.register(users[4])  # back, with nothing: its old term must not survive
    db.record_interaction(Interaction(users[4], "item-1", InteractionKind.VIEW))
    assert manager.maybe_truncate()
    del sized[:]  # shipping the WAL entries above sized their own payloads
    second = manager.snapshot.payload_bytes()
    assert sorted(sized) == [users[1], users[4]]
    monkeypatch.undo()
    assert second == whole_state_size(manager.snapshot) != first
