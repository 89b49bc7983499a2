"""Property test: an incremental batch refresh equals a from-scratch one.

``RecommendationService.batch_refresh`` answers a consumer from the cache
while its entry's counters — ``k``, the inputs stamp ``(index mutations,
ratings revision, catalogue length)`` and the consumer's own profile stamp —
have not moved, and when they have, re-stamps the entries of the last
refresh if the server's inputs compare equal to that refresh's (membership,
profiles in insertion order, interaction lists, catalogue length).  That is
only correct if *every* input ``recommend`` reads moves a counter and is
compared, so the sequences below interleave refreshes with every door into a
server's state — round trips that restore it included — and compare each
refresh with ``recommend_many`` on an independent service (its own index, no
memo, no cache) over the same databases.  The counter tests pin which
inputs invalidate what; each fails when its stamp component or its
comparison is removed.
"""

from hypothesis import given, settings, strategies as st

from repro.core.items import Item, ItemCatalogView
from repro.core.profile import Profile
from repro.core.profile_learning import FeedbackEvent, ProfileLearner
from repro.core.ratings import Interaction, InteractionKind
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
    "round-trip", "purge-readopt", "swap-equal", "store-equal", "store-reordered",
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


def reordered(profile):
    """A copy ``to_dict() ==`` the original with every mapping reversed."""

    def backwards(mapping):
        return dict(reversed(list(mapping.items())))

    data = profile.to_dict()
    data["categories"] = backwards({
        name: dict(
            category,
            terms=backwards(category["terms"]),
            subcategories=backwards({
                sub_name: dict(sub, terms=backwards(sub["terms"]))
                for sub_name, sub in category["subcategories"].items()
            }),
        )
        for name, category in data["categories"].items()
    })
    return Profile.from_dict(data)


def build_service():
    """A server's service over four warmed consumers (two more can join)."""
    db, learner = UserDB(), ProfileLearner()
    service = RecommendationService(db, ItemCatalogView(ITEMS), profile_learner=learner)
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
    scratch = RecommendationService(service.user_db, service.catalog)
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
    elif op == "round-trip":  # away and back, or in and out: content as it was
        if db.is_registered(user_id):
            away = UserDB()
            away.adopt(db, user_id)
            db.unregister(user_id)
            db.adopt(away, user_id)
        else:
            db.adopt(foreign_db(user_id, item, amount, now), user_id)
            db.unregister(user_id)
    elif op == "purge-readopt":  # a recovery purge, then a foreign copy back
        if db.is_registered(user_id):
            db.unregister(user_id)
        db.adopt(foreign_db(user_id, item, amount, now), user_id)
    elif not db.is_registered(user_id):
        return
    elif op == "swap-equal":  # behind the index: only the profile stamp moves
        db._profiles[user_id] = db.profile(user_id).copy()
    elif op == "store-equal":
        db.store_profile(db.profile(user_id).copy())
    elif op == "store-reordered":
        db.store_profile(reordered(db.profile(user_id)))
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
@given(steps=steps)
def test_every_refresh_equals_a_from_scratch_batch(steps):
    db, learner, service = build_service()
    for index, (op, user_id, item, amount) in enumerate(steps):
        apply_step(db, learner, service, op, user_id, item, amount, float(index))
    refresh_and_check(service, USERS, k=5)
    # Nothing moved since: the same request is answered without comparing.
    counters = service.refresh_recomputed, service.refresh_revalidated
    refresh_and_check(service, USERS, k=5)
    assert (service.refresh_recomputed, service.refresh_revalidated) == counters


def counted(service, user_ids, k=5):
    """``(recomputed, unchanged)`` by one refresh of ``user_ids``."""
    return counted_with_revalidated(service, user_ids, k)[:2]


def counted_with_revalidated(service, user_ids, k=5):
    """``(recomputed, unchanged, of those re-stamped)`` by one refresh."""
    before = (
        service.refresh_recomputed,
        service.refresh_unchanged,
        service.refresh_revalidated,
    )
    service.batch_refresh(user_ids, k=k)
    return (
        service.refresh_recomputed - before[0],
        service.refresh_unchanged - before[1],
        service.refresh_revalidated - before[2],
    )


class TestWhatARefreshRecomputes:
    def test_first_everything_then_nothing(self):
        _, _, service = build_service()
        assert counted(service, USERS) == (6, 0)
        assert counted(service, USERS) == (0, 6)
        assert counted(service, USERS + USERS[:2]) == (0, 6)  # duplicates collapse

    def test_another_k_and_a_subset(self):
        _, _, service = build_service()
        service.batch_refresh(USERS[:3], k=5)
        assert counted(service, USERS[1:5]) == (2, 2)
        assert counted(service, USERS[:2], k=3) == (2, 0)
        assert service.cached_recommendations(USERS[0], k=5) is None
        assert service.cached_recommendations(USERS[2], k=5) is not None

    def test_a_neighbours_learning_update_recomputes_everyone(self):
        """The ``neighbor_index.mutations`` component."""
        db, learner, service = build_service()
        service.batch_refresh(USERS, k=5)
        learn(learner, db, USERS[1], ITEMS[5])
        assert counted(service, USERS) == (6, 0)

    def test_a_neighbours_rating_recomputes_everyone(self):
        """The ``ratings.revision`` component."""
        db, _, service = build_service()
        service.batch_refresh(USERS, k=5)
        db.record_interaction(
            Interaction(USERS[1], ITEMS[7].item_id, InteractionKind.RATE, value=5.0)
        )
        assert counted(service, USERS) == (6, 0)

    def test_new_merchandise_recomputes_everyone(self):
        """The ``len(catalog)`` component."""
        _, _, service = build_service()
        service.batch_refresh(USERS, k=5)
        service.catalog.add(make_item(len(service.catalog)))
        assert counted(service, USERS) == (6, 0)
        refresh_and_check(service, USERS, k=5)

    def test_membership_recomputes_everyone(self):
        db, _, service = build_service()
        service.batch_refresh(USERS, k=5)
        db.adopt(foreign_db(USERS[4], ITEMS[0], 2, 0.0), USERS[4])
        assert counted(service, USERS) == (6, 0)
        db.unregister(USERS[4])
        assert counted(service, USERS[:4]) == (4, 0)

    def test_an_adopt_then_unregister_recomputes_nobody(self):
        """Membership moved and moved back: the inputs compare equal."""
        db, _, service = build_service()
        service.batch_refresh(USERS[:4], k=5)
        db.adopt(foreign_db(USERS[4], ITEMS[0], 2, 0.0), USERS[4])
        db.unregister(USERS[4])
        assert counted_with_revalidated(service, USERS[:4]) == (0, 4, 4)
        refresh_and_check(service, USERS[:4], k=5)

    def test_only_the_last_refreshs_lists_are_revalidated(self):
        """Inputs equal to the last refresh's say nothing of an older list."""
        db, _, service = build_service()
        service.batch_refresh(USERS[:2], k=5)
        db.adopt(foreign_db(USERS[4], ITEMS[0], 2, 0.0), USERS[4])
        service.batch_refresh(USERS[2:4], k=5)  # computed with USERS[4] aboard
        db._profiles[USERS[2]] = db.profile(USERS[2]).copy()  # moves counters only
        assert counted_with_revalidated(service, USERS[:4]) == (2, 2, 1)
        refresh_and_check(service, USERS[:4], k=5)

    def test_a_consumer_replaced_by_another_recomputes_everyone(self):
        """Same head count, no interactions either side: membership decides
        (a rating-free neighbour still takes a top-k slot)."""
        db, _, service = build_service()

        def join(user_id):
            db.register(user_id)
            profile = Profile(user_id)
            profile.category("books").preference = 2.0
            profile.category("books").terms.set("alpha", 1.0)
            db.store_profile(profile)

        join(USERS[4])
        service.batch_refresh(USERS[:4], k=5)
        db.unregister(USERS[4])
        join(USERS[5])
        assert counted_with_revalidated(service, USERS[:4]) == (4, 0, 0)

    def test_a_held_profile_learned_in_place_is_not_equal_to_its_copy(self):
        """The held reference changed too, so it no longer shows what the
        lists were computed from."""
        db, learner, service = build_service()
        service.batch_refresh(USERS, k=5)
        learn(learner, db, USERS[1], ITEMS[5])
        db._profiles[USERS[1]] = db.profile(USERS[1]).copy()
        assert counted_with_revalidated(service, USERS) == (6, 0, 0)
        refresh_and_check(service, USERS, k=5)

    def test_a_profile_swapped_for_an_equal_copy_is_revalidated(self):
        """The per-profile stamp moved; the content, compared, did not."""
        db, _, service = build_service()
        service.batch_refresh(USERS, k=5)
        db._profiles[USERS[0]] = db.profile(USERS[0]).copy()  # equal content, new id
        assert counted_with_revalidated(service, USERS) == (0, 6, 1)
        assert counted_with_revalidated(service, USERS) == (0, 6, 0)

    def test_a_copy_in_another_insertion_order_is_recomputed(self):
        """``to_dict() ==`` holds, the summation order does not."""
        db, _, service = build_service()
        service.batch_refresh(USERS, k=5)
        profile = db.profile(USERS[0])
        swapped = reordered(profile)
        assert swapped.to_dict() == profile.to_dict()
        assert swapped.content_key() != profile.content_key()
        db._profiles[USERS[0]] = swapped
        assert counted_with_revalidated(service, USERS) == (1, 5, 0)

    def test_a_copy_with_one_changed_weight_is_recomputed(self):
        db, _, service = build_service()
        service.batch_refresh(USERS, k=5)
        changed = db.profile(USERS[0]).copy()
        terms = next(iter(changed.categories.values())).terms
        term = next(iter(terms.weights()))
        terms.set(term, terms.get(term) + 0.25)
        db._profiles[USERS[0]] = changed
        assert counted_with_revalidated(service, USERS) == (1, 5, 0)

    def test_a_round_trip_plus_a_rating_recomputes_everyone(self):
        """Equal profiles, but one interaction list is longer than it was."""
        db, _, service = build_service()
        service.batch_refresh(USERS, k=5)
        away = UserDB()
        away.adopt(db, USERS[1])
        db.unregister(USERS[1])
        db.adopt(away, USERS[1])
        db.record_interaction(
            Interaction(USERS[1], ITEMS[7].item_id, InteractionKind.RATE, value=5.0)
        )
        assert counted_with_revalidated(service, USERS) == (6, 0, 0)
        refresh_and_check(service, USERS, k=5)

    def test_a_profile_edited_behind_the_index_matches_a_live_query(self):
        db, _, service = build_service()
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


def fleet_counts(fleet, second="refresh_unchanged"):
    """Per server: ``(refresh_recomputed, <second counter>)``."""
    return {
        server.name: (
            server.recommendations.refresh_recomputed,
            getattr(server.recommendations, second),
        )
        for server in fleet.servers
    }


def maintenance_cycle(platform, victim, during=lambda promoted: None):
    """One ``fleet_maintenance`` cycle; returns the temporary host."""
    fleet = platform.fleet
    shards = list(fleet.shards_of(victim))
    platform.failures.crash_host(victim.name)
    fleet.handle_server_failure(shards[0])
    promoted = fleet.owner_of_shard(shards[0])
    assert promoted is not victim
    during(promoted)
    platform.failures.recover_host(victim.name)
    fleet.recover_server(victim)
    for shard in shards:
        if fleet.owner_of_shard(shard) is not victim:
            fleet.transfer_shard(shard, victim, "upgrade")
    return promoted


def refresh_deltas(fleet, before):
    """Per server: recomputed and revalidated since ``before``."""
    return {
        name: (now[0] - before[name][0], now[1] - before[name][1])
        for name, now in fleet_counts(fleet, "refresh_revalidated").items()
    }


def assert_lists_equal_a_scratch_batch(fleet, report, k):
    for server in fleet.servers:
        service = server.recommendations
        scratch = RecommendationService(
            server.user_db,
            service.catalog,
            similarity_config=service.similarity_config,
        )
        served = fleet.consumers_served_by(server)
        assert scratch.recommend_many(served, k=k) == {
            user_id: report.results[user_id] for user_id in served
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

    def test_a_maintenance_cycle_without_writes_recomputes_nobody(self):
        """crash → promote → recover → hand-back leaves every input as it was."""
        platform = fleet_platform()
        fleet = platform.fleet
        victim = fleet.server_for(CONSUMERS[0])
        fleet.refresh_all(k=3)
        before = fleet_counts(fleet, "refresh_revalidated")
        promoted = maintenance_cycle(platform, victim)
        report = fleet.refresh_all(k=3)

        assert report.complete and set(report.results) == set(CONSUMERS)
        for server in fleet.servers:
            recomputed, revalidated = refresh_deltas(fleet, before)[server.name]
            assert recomputed == 0
            moved = server is victim or server is promoted
            served = len(fleet.consumers_served_by(server))
            assert revalidated == (served if moved else 0)
        assert_lists_equal_a_scratch_batch(fleet, report, k=3)

    def test_one_rating_during_the_cycle_recomputes_its_server(self):
        platform = fleet_platform()
        fleet = platform.fleet
        victim = fleet.server_for(CONSUMERS[0])
        fleet.refresh_all(k=3)
        before = fleet_counts(fleet, "refresh_revalidated")
        item = next(iter(platform.catalog_view()))

        def rate(promoted):
            promoted.user_db.record_interaction(
                Interaction(CONSUMERS[0], item.item_id, InteractionKind.RATE, value=4.0)
            )

        promoted = maintenance_cycle(platform, victim, during=rate)
        report = fleet.refresh_all(k=3)

        for server in fleet.servers:
            recomputed, revalidated = refresh_deltas(fleet, before)[server.name]
            served = len(fleet.consumers_served_by(server))
            assert recomputed == (served if server is victim else 0)
            assert revalidated == (served if server is promoted else 0)
        assert_lists_equal_a_scratch_batch(fleet, report, k=3)

