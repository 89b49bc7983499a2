"""A replica's neighbour index tracks its shadow DB entry by entry.

``ReplicaState.neighbor_index()`` is *fed*: the shadow DB changes only in
``_apply`` and ``bootstrap``, which mark exactly the consumer an entry names,
so a degraded read re-indexes what changed since the last read and nothing
else.  The property below ships a primary's WAL every way the manager can —
in order, duplicated, with a gap that anti-entropy later fills, replaced by a
snapshot bootstrap — with reads in between, and compares every read with the
brute-force search over the shadow profiles; the counting tests pin the cost.
"""

from hypothesis import given, settings, strategies as st

from repro.core import neighbors
from repro.core.profile import Profile
from repro.core.similarity import find_similar_users
from repro.ecommerce.databases import UserDB
from repro.ecommerce.replication import ReplicaState, ReplicationLog, ReplicationSnapshot

from tests.property.test_incremental_snapshot import scratch_dump


USERS = [f"user-{index}" for index in range(7)]
CATEGORIES = ("books", "music", "games")

OPS = ("register", "store-profile", "unregister")
SHIPMENTS = ("none", "suffix", "duplicate", "gap", "bootstrap")

#: (op, consumer, category, amount, how the log is shipped next, read after?)
steps = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.sampled_from(USERS),
        st.sampled_from(CATEGORIES),
        st.integers(min_value=0, max_value=5),
        st.sampled_from(SHIPMENTS),
        st.booleans(),
    ),
    min_size=6,
    max_size=40,
)


def make_profile(user_id, category, amount):
    profile = Profile(user_id)
    profile.category(category).preference = 1.0 + amount
    profile.category(category).terms.set("alpha", 0.5 + amount)
    profile.category(category).terms.set(f"term-{amount % 3}", 1.5)
    profile.category(CATEGORIES[amount % 3]).preference += 0.5
    return profile


def primary_with_log():
    """A primary's UserDB whose every durable write lands in a WAL."""
    db, log = UserDB(), ReplicationLog()
    db.add_mutation_listener(lambda op, payload: log.append(op, payload, timestamp=0.0))
    return db, log


def mutate(db, op, user_id, category, amount):
    if op == "register":  # also the re-registration of a departed consumer
        if not db.is_registered(user_id):
            db.register(user_id)
    elif not db.is_registered(user_id):
        return
    elif op == "store-profile":
        db.store_profile(make_profile(user_id, category, amount))
    elif op == "unregister":
        db.unregister(user_id)


def ship(state, db, log, how):
    applied = state.applied_seq
    if how == "suffix":
        state.apply_entries(log.entries_since(applied))
    elif how == "duplicate":  # an already-applied prefix rides along
        state.apply_entries(log.entries_since(max(0, applied - 3)))
    elif how == "gap":  # the next entry went missing: nothing may apply
        assert state.apply_entries(log.entries_since(applied)[1:]) == 0
    elif how == "bootstrap":  # possibly over an index a read already built
        state.bootstrap(ReplicationSnapshot(log.last_seq, 0.0, scratch_dump(db)))


def assert_reads_match_brute_force(state):
    index = state.neighbor_index()
    shadow = state.db.profiles()
    assert {profile.user_id for profile in shadow} == set(state.db.user_ids)
    detached = make_profile("somebody-else", "music", 2)
    for target in shadow + [detached]:
        for category in (None, "books"):
            assert index.find_similar(target, category=category) == find_similar_users(
                target, shadow, category=category
            )
    assert len(index) == len(shadow)
    return index


@settings(max_examples=80, deadline=None)
@given(steps=steps)
def test_every_replica_read_equals_brute_force(steps):
    db, log = primary_with_log()
    state = ReplicaState("primary")
    for op, user_id, category, amount, how, read in steps:
        mutate(db, op, user_id, category, amount)
        ship(state, db, log, how)
        if read:
            assert_reads_match_brute_force(state)
    # Anti-entropy: the full missing suffix arrives and the replica converges.
    state.apply_entries(log.entries_since(state.applied_seq))
    assert state.applied_seq == log.last_seq
    assert_reads_match_brute_force(state)
    assert scratch_dump(state.db) == scratch_dump(db)


def warmed_replica(consumers=5):
    db, log = primary_with_log()
    for index, user_id in enumerate(USERS[:consumers]):
        db.register(user_id)
        db.store_profile(make_profile(user_id, CATEGORIES[index % 3], index))
    state = ReplicaState("primary")
    state.apply_entries(log.entries_since(0))
    return db, log, state


class TestWhatAReplicaReadCosts:
    def test_entries_applied_before_the_first_read_are_all_indexed(self):
        _, _, state = warmed_replica()
        assert state._neighbor_index is None  # applies built nothing
        index = assert_reads_match_brute_force(state)
        assert sorted(p.user_id for p in index.indexed_profiles()) == USERS[:5]
        assert state.neighbor_index() is index

    def test_an_unchanged_replica_does_no_per_profile_work(self, monkeypatch):
        _, log, state = warmed_replica()
        index = state.neighbor_index()
        target = state.db.profile(USERS[0])
        expected = index.find_similar(target)

        stamped, provided = [], []
        real = neighbors.profile_stamp
        monkeypatch.setattr(
            neighbors, "profile_stamp", lambda profile: stamped.append(profile) or real(profile)
        )
        monkeypatch.setattr(state.db, "profiles", lambda: provided.append(1) or [])
        rebuilds, mutations = index.rebuilds, index.mutations
        for _ in range(4):
            assert state.neighbor_index().find_similar(target) == expected
        # A duplicate shipment applies nothing, so it marks nothing either.
        assert state.apply_entries(log.entries_since(0)) == 0
        assert state.neighbor_index().find_similar(target) == expected
        assert (index.rebuilds, index.mutations) == (rebuilds, mutations)
        assert provided == []  # the shadow community is never walked again
        assert stamped == [target] * 5  # the target's own row check, per read

    def test_one_applied_profile_is_one_reindex(self):
        db, log, state = warmed_replica()
        index = state.neighbor_index()
        index.sync()
        rebuilds = index.rebuilds
        applied = state.applied_seq
        for amount in (3, 4):  # two entries for one consumer between reads
            db.store_profile(make_profile(USERS[1], "games", amount))
        assert state.apply_entries(log.entries_since(applied)) == 2
        assert index.rebuilds == rebuilds  # lazily, at query time
        assert index.dirty_users() == {USERS[1]}
        assert_reads_match_brute_force(state)
        assert index.rebuilds == rebuilds + 1
        assert_reads_match_brute_force(state)
        assert index.rebuilds == rebuilds + 1

    def test_register_and_unregister_reach_an_existing_index(self):
        db, log, state = warmed_replica()
        index = state.neighbor_index()
        applied = state.applied_seq
        db.register(USERS[5])
        db.unregister(USERS[0])
        state.apply_entries(log.entries_since(applied))
        assert assert_reads_match_brute_force(state) is index
        assert USERS[5] in index and USERS[0] not in index

    def test_bootstrap_drops_the_index(self):
        db, log, state = warmed_replica()
        index = state.neighbor_index()
        db.store_profile(make_profile(USERS[2], "music", 5))
        state.bootstrap(ReplicationSnapshot(log.last_seq, 0.0, scratch_dump(db)))
        assert assert_reads_match_brute_force(state) is not index
