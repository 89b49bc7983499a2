"""Property test: an incremental batch refresh equals a from-scratch one.

``RecommendationService.batch_refresh`` recomputes only the consumers whose
cache entry was made under another validity — ``k``, the inputs stamp
``(index mutations, ratings revision, catalogue length)`` and the consumer's
own profile stamp.  That is only correct if *every* input ``recommend`` reads
moves one of them, so the sequences below interleave refreshes with every
door into a server's state and compare each refresh with
``recommend_many`` on an independent service (its own index, no memo, no
cache) over the same databases.  The counter tests pin which inputs
invalidate what; each fails when its stamp component is removed.  Both run
under every available scoring backend: each kernel keeps its own rows in
step with the index's mutations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.items import Item, ItemCatalogView
from repro.core.profile import Profile
from repro.core.profile_learning import FeedbackEvent, ProfileLearner
from repro.core.ratings import Interaction, InteractionKind
from repro.core.scoring import available_backends
from repro.ecommerce import build_platform
from repro.ecommerce.databases import UserDB
from repro.ecommerce.recommendation_service import RecommendationService

from tests.property.test_incremental_snapshot import foreign_db


USERS = [f"user-{index}" for index in range(6)]
CATEGORIES = ("books", "music", "games")


def make_item(index):
    return Item(
        item_id=f"item-{index}",
        name=f"item {index}",
        category=CATEGORIES[index % 3],
        subcategory=("", "jazz")[index % 2],
        terms=(("alpha", 1.0), (f"term-{index % 4}", 0.5)),
        price=10.0 + index,
    )


ITEMS = [make_item(index) for index in range(9)]

OPS = (
    "rate", "buy", "learn", "register", "unregister", "adopt-in", "adopt-out",
    "store-profile", "catalog-add", "refresh", "refresh-other-k", "refresh-subset",
)

#: (op, consumer, item, amount)
steps = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.sampled_from(USERS),
        st.sampled_from(ITEMS),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=8,
    max_size=40,
)


def learn(learner, db, user_id, item, now=0.0):
    learner.apply(
        db.profile(user_id),
        FeedbackEvent(user_id, item, InteractionKind.QUERY, timestamp=now),
    )


def build_service(backend):
    """A server's service over four warmed consumers (two more can join)."""
    db, learner = UserDB(), ProfileLearner()
    service = RecommendationService(
        db, ItemCatalogView(ITEMS), profile_learner=learner, scoring_backend=backend
    )
    for index, user_id in enumerate(USERS[:4]):
        db.register(user_id)
        for offset in range(3):
            item = ITEMS[(index + 2 * offset) % len(ITEMS)]
            learn(learner, db, user_id, item)
            db.record_interaction(
                Interaction(user_id, item.item_id, InteractionKind.RATE, value=3.0 + offset)
            )
    return db, learner, service


def refresh_and_check(service, user_ids, k):
    """One refresh; it must equal a from-scratch batch in every field."""
    got = service.batch_refresh(user_ids, k=k)
    scratch = RecommendationService(
        service.user_db, service.catalog, scoring_backend=service.scoring_backend
    )
    want = scratch.recommend_many(user_ids, k=k)
    assert list(got) == list(want)  # key order
    assert got == want  # ids, scores, source, reason
    for user_id, recs in want.items():
        assert service.cached_recommendations(user_id, k=k) == recs
        assert service.cached_recommendations(user_id) == recs
    return got


def apply_step(db, learner, service, op, user_id, item, amount, now):
    if op == "refresh":
        refresh_and_check(service, USERS, k=5)
    elif op == "refresh-other-k":
        refresh_and_check(service, USERS, k=2 + amount % 2)
    elif op == "refresh-subset":
        refresh_and_check(service, USERS[amount:] + [user_id], k=5)
    elif op == "catalog-add":
        fresh = make_item(len(service.catalog))
        service.catalog.add(fresh)
    elif op == "register":  # also the re-registration of a departed consumer
        if not db.is_registered(user_id):
            db.register(user_id, timestamp=now)
    elif op == "adopt-in":
        if not db.is_registered(user_id):
            db.adopt(foreign_db(user_id, item, amount, now), user_id)
    elif not db.is_registered(user_id):
        return
    elif op == "adopt-out":  # hand-back: the consumer moves to another server
        UserDB().adopt(db, user_id)
        db.unregister(user_id)
    elif op == "unregister":
        db.unregister(user_id)
    elif op == "rate":
        db.record_interaction(
            Interaction(user_id, item.item_id, InteractionKind.RATE,
                        timestamp=now, value=float(amount))
        )
    elif op == "buy":
        db.record_interaction(
            Interaction(user_id, item.item_id, InteractionKind.BUY, timestamp=now)
        )
    elif op == "learn":
        learn(learner, db, user_id, item, now)
    elif op == "store-profile":
        profile = Profile(user_id)
        profile.category(item.category).preference = float(amount)
        profile.category(item.category).terms.set("alpha", 0.5 + amount)
        db.store_profile(profile)


@settings(max_examples=60, deadline=None)
@given(steps=steps, backend=st.sampled_from(available_backends()))
def test_every_refresh_equals_a_from_scratch_batch(steps, backend):
    db, learner, service = build_service(backend)
    for index, (op, user_id, item, amount) in enumerate(steps):
        apply_step(db, learner, service, op, user_id, item, amount, float(index))
    refresh_and_check(service, USERS, k=5)
    # Nothing moved since: the same request is answered without recomputing.
    recomputed = service.refresh_recomputed
    refresh_and_check(service, USERS, k=5)
    assert service.refresh_recomputed == recomputed


def counted(service, user_ids, k=5):
    """``(recomputed, unchanged)`` by one refresh of ``user_ids``."""
    before = service.refresh_recomputed, service.refresh_unchanged
    service.batch_refresh(user_ids, k=k)
    return (
        service.refresh_recomputed - before[0],
        service.refresh_unchanged - before[1],
    )


@pytest.mark.parametrize("backend", available_backends())
class TestWhatARefreshRecomputes:
    def test_first_everything_then_nothing(self, backend):
        _, _, service = build_service(backend)
        assert counted(service, USERS) == (6, 0)
        assert counted(service, USERS) == (0, 6)
        assert counted(service, USERS + USERS[:2]) == (0, 6)  # duplicates collapse

    def test_another_k_and_a_subset(self, backend):
        _, _, service = build_service(backend)
        service.batch_refresh(USERS[:3], k=5)
        assert counted(service, USERS[1:5]) == (2, 2)
        assert counted(service, USERS[:2], k=3) == (2, 0)
        assert service.cached_recommendations(USERS[0], k=5) is None
        assert service.cached_recommendations(USERS[2], k=5) is not None

    def test_a_neighbours_learning_update_recomputes_everyone(self, backend):
        """The ``neighbor_index.mutations`` component."""
        db, learner, service = build_service(backend)
        service.batch_refresh(USERS, k=5)
        learn(learner, db, USERS[1], ITEMS[5])
        assert counted(service, USERS) == (6, 0)

    def test_a_neighbours_rating_recomputes_everyone(self, backend):
        """The ``ratings.revision`` component."""
        db, _, service = build_service(backend)
        service.batch_refresh(USERS, k=5)
        db.record_interaction(
            Interaction(USERS[1], ITEMS[7].item_id, InteractionKind.RATE, value=5.0)
        )
        assert counted(service, USERS) == (6, 0)

    def test_new_merchandise_recomputes_everyone(self, backend):
        """The ``len(catalog)`` component."""
        _, _, service = build_service(backend)
        service.batch_refresh(USERS, k=5)
        service.catalog.add(make_item(len(service.catalog)))
        assert counted(service, USERS) == (6, 0)
        refresh_and_check(service, USERS, k=5)

    def test_membership_recomputes_everyone(self, backend):
        db, _, service = build_service(backend)
        service.batch_refresh(USERS, k=5)
        db.adopt(foreign_db(USERS[4], ITEMS[0], 2, 0.0), USERS[4])
        assert counted(service, USERS) == (6, 0)
        db.unregister(USERS[4])
        assert counted(service, USERS[:4]) == (4, 0)

    def test_a_profile_swapped_behind_the_index_is_recomputed(self, backend):
        """The per-profile stamp: nothing told the index, so only it sees."""
        db, _, service = build_service(backend)
        service.batch_refresh(USERS, k=5)
        db._profiles[USERS[0]] = db.profile(USERS[0]).copy()  # equal content, new id
        assert counted(service, USERS) == (1, 5)

    def test_a_profile_edited_behind_the_index_matches_a_live_query(self, backend):
        db, _, service = build_service(backend)
        before = service.batch_refresh(USERS, k=5)[USERS[0]]
        profile = db.profile(USERS[0])
        profile.category("games").preference = 9.0
        profile.category("games").terms.set("term-2", 4.0)
        profile.feedback_events += 1  # what the learner would have stamped
        live = service.recommend_many([USERS[0]], k=5)
        assert live[USERS[0]] != before
        assert service.batch_refresh([USERS[0]], k=5) == live


CONSUMERS = [f"consumer-{index}" for index in range(12)]


def fleet_platform():
    platform = build_platform(seed=11, num_buyer_servers=3, replication_factor=1)
    gateway = platform.gateway()
    keyword = next(iter(platform.catalog_view())).terms[0][0]
    for user_id in CONSUMERS:
        assert gateway.login(user_id).ok
        assert gateway.query(user_id, keyword).ok
        gateway.logout(user_id)
    return platform


def fleet_counts(fleet):
    return {
        server.name: (
            server.recommendations.refresh_recomputed,
            server.recommendations.refresh_unchanged,
        )
        for server in fleet.servers
    }


class TestFleetRefresh:
    def test_a_learning_update_recomputes_its_own_server_only(self):
        platform = fleet_platform()
        fleet = platform.fleet
        assigned = {
            server.name: len(fleet.consumers_served_by(server))
            for server in fleet.servers
        }
        assert all(assigned.values())
        fleet.refresh_all(k=3)
        assert fleet_counts(fleet) == {
            name: (count, 0) for name, count in assigned.items()
        }
        fleet.refresh_all(k=3)
        assert fleet_counts(fleet) == {
            name: (count, count) for name, count in assigned.items()
        }

        touched = fleet.server_for(CONSUMERS[0])
        learn(
            touched.profile_learner, touched.user_db, CONSUMERS[0],
            next(iter(platform.catalog_view())),
        )
        report = fleet.refresh_all(k=3)
        for server in fleet.servers:
            count = assigned[server.name]
            expected = (2 * count, count) if server is touched else (count, 2 * count)
            assert fleet_counts(fleet)[server.name] == expected
        for user_id, recs in report.results.items():
            assert recs == fleet.server_for(user_id).recommendations.recommend(user_id, k=3)

    def test_a_handed_back_consumer_leaves_no_list_behind(self):
        """crash → promote → recover → hand-back → refresh_all."""
        platform = fleet_platform()
        fleet = platform.fleet
        victim = fleet.server_for(CONSUMERS[0])
        shards = list(fleet.shards_of(victim))
        moved = fleet.consumers_served_by(victim)
        fleet.refresh_all(k=3)

        platform.failures.crash_host(victim.name)
        fleet.handle_server_failure(shards[0])
        promoted = fleet.server_for(CONSUMERS[0])
        assert promoted is not victim
        fleet.refresh_all(k=3)  # the temporary host now caches the adopted lists
        assert promoted.recommendations.cached_recommendations(CONSUMERS[0]) is not None

        platform.failures.recover_host(victim.name)
        fleet.recover_server(victim)
        for shard in shards:
            if fleet.owner_of_shard(shard) is not victim:
                fleet.transfer_shard(shard, victim, "upgrade")
        report = fleet.refresh_all(k=3)

        assert report.complete and set(report.results) == set(CONSUMERS)
        for server in fleet.servers:
            cached = set(server.recommendations._batch_cache)
            assert cached <= set(server.user_db.user_ids)
        for user_id in moved:
            assert promoted.recommendations.cached_recommendations(user_id) is None
            assert victim.recommendations.cached_recommendations(user_id) == (
                report.results[user_id]
            )
