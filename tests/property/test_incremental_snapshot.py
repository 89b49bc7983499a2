"""Property test: an incremental WAL snapshot equals a from-scratch dump.

``ReplicationManager`` builds each truncation's snapshot from the previous
one, re-dumping only the consumers a WAL entry named since.  That is only
correct if *every* durable write names its consumer on the way into the WAL,
so the sequences below mix every door into a primary's ``UserDB`` — and
after every truncation compare the installed snapshot with a dump taken
through the public accessors alone.
"""

from hypothesis import given, settings, strategies as st

from repro.core.items import Item
from repro.core.profile import Profile
from repro.core.profile_learning import FeedbackEvent
from repro.core.ratings import Interaction, InteractionKind
from repro.ecommerce import build_platform
from repro.ecommerce.databases import UserDB
from repro.ecommerce.replication import ReplicaState, ReplicationSnapshot
from repro.ecommerce.transactions import TransactionKind, TransactionRecord


USERS = [f"user-{index}" for index in range(6)]
ITEMS = [
    Item(
        item_id=f"item-{index}",
        name=f"item {index}",
        category=("books", "music")[index % 2],
        subcategory=("", "jazz")[index % 2],
        terms=(("alpha", 1.0), (f"term-{index}", 0.5)),
        price=10.0 + index,
    )
    for index in range(4)
]

OPS = (
    "register", "rate", "learn", "store-profile", "buy", "login",
    "login-stats", "unregister", "adopt",
)

#: (op, consumer, item, amount, call ``maybe_truncate`` after the step?)
steps = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.sampled_from(USERS),
        st.sampled_from(ITEMS),
        st.integers(min_value=0, max_value=5),
        st.booleans(),
    ),
    min_size=8,
    max_size=48,
)


def scratch_dump(db):
    """Every consumer's durable record, read through the public accessors."""
    return {
        user_id: {
            "display_name": db.user(user_id).display_name,
            "registered_at": db.user(user_id).registered_at,
            "logins": db.user(user_id).logins,
            "last_login_at": db.user(user_id).last_login_at,
            "profile": db.profile(user_id).to_dict(),
            "interactions": db.ratings.interactions_of(user_id),
            "transactions": db.transactions_of(user_id),
        }
        for user_id in db.user_ids
    }


def foreign_db(user_id, item, amount, now):
    """Another server's UserDB holding ``user_id`` with some history."""
    other = UserDB()
    other.register(user_id, f"moved {user_id}", timestamp=now)
    profile = Profile(user_id)
    profile.category(item.category).preference = 1.0 + amount
    other.store_profile(profile)
    for index in range(amount):
        other.record_interaction(
            Interaction(user_id, item.item_id, InteractionKind.VIEW, timestamp=now + index)
        )
    other.restore_login_stats(user_id, amount, now)
    return other


def apply_step(owner, op, user_id, item, amount, now):
    db = owner.user_db
    if op == "register":  # also the re-registration of a departed consumer
        if not db.is_registered(user_id):
            db.register(user_id, f"name {amount}", timestamp=now)
    elif op == "adopt":
        if not db.is_registered(user_id):
            db.adopt(foreign_db(user_id, item, amount, now), user_id)
    elif not db.is_registered(user_id):
        return
    elif op == "rate":
        db.record_interaction(
            Interaction(user_id, item.item_id, InteractionKind.RATE,
                        timestamp=now, value=float(amount))
        )
    elif op == "learn":
        owner.profile_learner.apply(
            db.profile(user_id),
            FeedbackEvent(user_id, item, InteractionKind.QUERY, timestamp=now),
        )
    elif op == "store-profile":
        profile = Profile(user_id)
        profile.category(item.category).preference = float(amount)
        profile.category(item.category).terms.set("alpha", 0.5 + amount)
        db.store_profile(profile)
    elif op == "buy":
        db.record_interaction(
            Interaction(user_id, item.item_id, InteractionKind.BUY, timestamp=now)
        )
        db.record_transaction(
            TransactionRecord(
                transaction_id=f"txn-marketplace-1-{int(now)}",
                user_id=user_id, item_id=item.item_id, marketplace="marketplace-1",
                kind=TransactionKind.DIRECT_PURCHASE, price=item.price,
                list_price=item.price + 1.0, timestamp=now,
            )
        )
    elif op == "login":
        db.record_login(user_id, now)
    elif op == "login-stats":
        db.restore_login_stats(user_id, amount, now)
    elif op == "unregister":
        db.unregister(user_id)


@settings(max_examples=100, deadline=None)
@given(steps=steps, threshold=st.integers(min_value=1, max_value=8))
def test_every_truncation_installs_a_from_scratch_dump(steps, threshold):
    platform = build_platform(
        seed=3, num_buyer_servers=2, replication_factor=1,
        replication_wal_truncate_threshold=threshold,
    )
    owner = platform.fleet.servers[0]
    manager = owner.replication
    held = []  # (snapshot, repr(state) when it was installed)

    for index, (op, user_id, item, amount, truncate) in enumerate(steps):
        apply_step(owner, op, user_id, item, amount, now=float(index))
        if not truncate or not manager.maybe_truncate():
            continue
        snapshot = manager.snapshot
        expected = scratch_dump(owner.user_db)
        assert snapshot.seq == manager.log.last_seq
        assert snapshot.state == expected
        assert snapshot.payload_bytes() == ReplicationSnapshot(
            snapshot.seq, snapshot.timestamp, expected
        ).payload_bytes()
        # The snapshot is what a newcomer boots from: it must reproduce the
        # replica that applied every entry since sequence 1.
        booted = ReplicaState(owner.name)
        booted.bootstrap(snapshot)
        replayed = manager.peers[0].replication.hosted[owner.name]
        assert booted.applied_seq == replayed.applied_seq
        assert scratch_dump(booted.db) == scratch_dump(replayed.db) == expected
        held.append((snapshot, repr(snapshot.state)))
        # Dumps are shared between snapshots, so none may ever be written.
        for earlier, frozen in held:
            assert repr(earlier.state) == frozen
