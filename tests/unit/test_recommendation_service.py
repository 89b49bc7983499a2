"""Unit tests for the buyer server's RecommendationService facade."""

import pytest

from repro.errors import RecommendationError
from repro.core.items import ItemCatalogView
from repro.core.profile_learning import FeedbackEvent, ProfileLearner
from repro.core.ratings import Interaction, InteractionKind
from repro.ecommerce.buyer_server import RecommendationService
from repro.ecommerce.databases import UserDB

from tests.conftest import make_item

ITEMS = [
    make_item(f"book-{i}", category="books", terms={"novel": 0.8}) for i in range(3)
] + [
    make_item(f"tech-{i}", category="electronics", terms={"laptop": 0.9}) for i in range(3)
]


@pytest.fixture
def service():
    user_db = UserDB()
    for name in ("alice", "bob"):
        user_db.register(name)
    clock = {"now": 0.0}
    service = RecommendationService(
        user_db, ItemCatalogView(ITEMS), now=lambda: clock["now"]
    )
    return user_db, service, clock


def _buy(user_db, user, item_id, timestamp=0.0):
    user_db.record_interaction(
        Interaction(user, item_id, InteractionKind.BUY, timestamp=timestamp)
    )


class TestRecommendationService:
    def test_cold_user_falls_back_to_popularity(self, service):
        user_db, svc, _ = service
        _buy(user_db, "bob", "book-0")
        recommended = svc.recommend("alice", k=3)
        assert recommended
        assert recommended[0].source == "popularity"

    def test_weekly_hottest_uses_simulated_clock(self, service):
        user_db, svc, clock = service
        _buy(user_db, "bob", "book-0", timestamp=0.0)
        clock["now"] = 1_000.0
        assert [rec.item_id for rec in svc.weekly_hottest_list(k=3)] == ["book-0"]
        # Eight simulated days later the purchase has left the window.
        clock["now"] = 8 * 24 * 60 * 60 * 1000.0
        assert svc.weekly_hottest_list(k=3) == []

    def test_cross_sell_for_basket_and_history(self, service):
        user_db, svc, _ = service
        for user in ("alice", "bob"):
            _buy(user_db, user, "book-0")
            _buy(user_db, user, "book-1")
        by_basket = svc.cross_sell_for("carol", basket=["book-0"])
        assert [rec.item_id for rec in by_basket] == ["book-1"]
        by_history = svc.cross_sell_for("alice")
        # alice already owns both co-purchased items, so nothing new remains.
        assert all(rec.item_id not in ("book-0",) for rec in by_history)

    def test_recommend_for_query_adds_unknown_items_to_catalog(self, service):
        user_db, svc, _ = service
        _buy(user_db, "alice", "book-0")
        discovered = make_item("book-new", category="books", terms={"novel": 0.9})
        assert "book-new" not in svc.catalog
        svc.recommend_for_query("alice", [discovered], k=3)
        assert "book-new" in svc.catalog

    def test_recommend_excludes_purchases(self, service):
        user_db, svc, _ = service
        _buy(user_db, "alice", "book-0")
        _buy(user_db, "bob", "book-0")
        _buy(user_db, "bob", "book-1")
        recommended = [rec.item_id for rec in svc.recommend("alice", k=5)]
        assert "book-0" not in recommended


def _teach(user_db, learner, user, item, kind=InteractionKind.BUY, timestamp=0.0):
    """Route one behaviour through the learning rule + ratings store."""
    learner.apply(
        user_db.profile(user), FeedbackEvent(user, item, kind, timestamp=timestamp)
    )
    user_db.record_interaction(
        Interaction(user, item.item_id, kind, timestamp=timestamp, category=item.category)
    )


@pytest.fixture
def learning_service():
    """Service with the learner wired in, plus a warm/cold consumer mix."""
    user_db = UserDB()
    learner = ProfileLearner()
    for name in ("alice", "bob", "carol", "dave"):
        user_db.register(name)
    service = RecommendationService(
        user_db, ItemCatalogView(ITEMS), profile_learner=learner
    )
    # alice and bob are warm book readers; carol bought one gadget;
    # dave never did anything (cold start).
    for item_id in ("book-0", "book-1"):
        item = next(item for item in ITEMS if item.item_id == item_id)
        _teach(user_db, learner, "alice", item)
        _teach(user_db, learner, "bob", item)
    _teach(user_db, learner, "bob", next(i for i in ITEMS if i.item_id == "book-2"))
    _teach(user_db, learner, "carol", next(i for i in ITEMS if i.item_id == "tech-0"))
    return user_db, learner, service


class TestRecommendMany:
    def test_batch_equals_per_user_for_every_user(self, learning_service):
        user_db, _, svc = learning_service
        users = user_db.user_ids
        batch = svc.recommend_many(users, k=5)
        assert sorted(batch) == sorted(users)
        for user_id in users:
            assert batch[user_id] == svc.recommend(user_id, k=5)

    def test_cold_start_users_degrade_identically(self, learning_service):
        _, _, svc = learning_service
        batch = svc.recommend_many(["dave"], k=4)
        single = svc.recommend("dave", k=4)
        assert batch["dave"] == single
        # dave has no profile signal, so the popularity fallback serves him.
        assert all(rec.source == "popularity" for rec in batch["dave"])

    def test_batch_equals_per_user_with_category_filter(self, learning_service):
        user_db, _, svc = learning_service
        users = user_db.user_ids
        batch = svc.recommend_many(users, k=5, category="books")
        for user_id in users:
            assert batch[user_id] == svc.recommend(user_id, k=5, category="books")

    def test_batch_equals_per_user_after_more_feedback(self, learning_service):
        user_db, learner, svc = learning_service
        svc.recommend_many(user_db.user_ids, k=5)  # warm the index
        _teach(user_db, learner, "dave", next(i for i in ITEMS if i.item_id == "tech-1"))
        batch = svc.recommend_many(user_db.user_ids, k=5)
        for user_id in user_db.user_ids:
            assert batch[user_id] == svc.recommend(user_id, k=5)

    @pytest.mark.parametrize("category", [None, "books"])
    def test_batch_makes_one_index_query_per_consumer(self, learning_service, category):
        """Batch serving is the single-user path: one neighbour query per
        consumer with a profile, none for a cold one, with or without a
        category, and the same lists as per-user ``recommend``."""
        user_db, _, svc = learning_service
        users = user_db.user_ids
        warm = [user_id for user_id in users if not user_db.profile(user_id).is_empty()]
        assert 2 <= len(warm) < len(users)
        expected = {
            user_id: svc.recommend(user_id, k=5, category=category) for user_id in users
        }
        before = svc.neighbor_index.queries
        batch = svc.recommend_many(users, k=5, category=category)
        assert svc.neighbor_index.queries - before == len(warm)
        assert batch == expected

    def test_duplicate_user_ids_collapse(self, learning_service):
        _, _, svc = learning_service
        batch = svc.recommend_many(["alice", "alice", "bob"], k=3)
        assert sorted(batch) == ["alice", "bob"]

    def test_invalid_k_raises(self, learning_service):
        _, _, svc = learning_service
        with pytest.raises(RecommendationError):
            svc.recommend_many(["alice"], k=0)


class TestBatchRefresh:
    def test_batch_refresh_populates_cache(self, learning_service):
        user_db, _, svc = learning_service
        assert svc.cached_recommendations("alice") is None
        results = svc.batch_refresh(user_db.user_ids, k=5)
        assert svc.last_batch_refresh_at is not None
        for user_id in user_db.user_ids:
            assert svc.cached_recommendations(user_id) == results[user_id]

    def test_cached_lists_are_copies(self, learning_service):
        user_db, _, svc = learning_service
        svc.batch_refresh(user_db.user_ids, k=5)
        first = svc.cached_recommendations("alice")
        first.append("sentinel")
        assert svc.cached_recommendations("alice") != first

    def test_mutating_batch_refresh_result_does_not_corrupt_cache(self, learning_service):
        user_db, _, svc = learning_service
        results = svc.batch_refresh(user_db.user_ids, k=5)
        pristine = list(results["alice"])
        results["alice"].reverse()
        results["alice"].append("sentinel")
        assert svc.cached_recommendations("alice") == pristine

    def test_new_registration_visible_after_batch_warm(self, learning_service):
        user_db, _, svc = learning_service
        svc.recommend_many(user_db.user_ids, k=5)  # warm index + fast path
        user_db.register("erin")
        batch = svc.recommend_many(user_db.user_ids, k=5)
        assert "erin" in batch
        assert batch["erin"] == svc.recommend("erin", k=5)

    def test_unknown_user_has_no_cache_entry(self, learning_service):
        _, _, svc = learning_service
        assert svc.cached_recommendations("nobody") is None

    def test_on_demand_recommend_stays_fresh_after_refresh(self, learning_service):
        user_db, learner, svc = learning_service
        svc.batch_refresh(user_db.user_ids, k=5)
        _teach(user_db, learner, "dave", next(i for i in ITEMS if i.item_id == "tech-2"))
        # The cache still holds the snapshot; recommend() reflects the event.
        assert svc.recommend("dave", k=5) == svc.engine.recommend("dave", k=5)


class TestRecommendForQueryBatching:
    """The batched query re-ranking shares neighbour work across query items
    but must stay score-identical to evaluating each item on its own."""

    def _query_items(self, category="books"):
        prefix = "book" if category == "books" else "tech"
        return [item for item in ITEMS if item.item_id.startswith(prefix)]

    def test_batched_path_equals_per_item_path(self, learning_service):
        user_db, _, svc = learning_service
        items = self._query_items()
        batched = svc.recommend_for_query("alice", items, k=len(items), extra=0)
        assert len(batched) == len(items)
        per_item = {}
        for item in items:
            (only,) = svc.recommend_for_query("alice", [item], k=1, extra=0)
            per_item[item.item_id] = only.score
        for rec in batched:
            assert rec.score == per_item[rec.item_id]

    def test_batched_path_equals_per_item_after_more_feedback(self, learning_service):
        user_db, learner, svc = learning_service
        _teach(user_db, learner, "carol", next(i for i in ITEMS if i.item_id == "tech-1"))
        items = self._query_items(category="electronics")
        batched = svc.recommend_for_query("carol", items, k=len(items), extra=0)
        for rec in batched:
            (only,) = svc.recommend_for_query(
                "carol", [next(i for i in items if i.item_id == rec.item_id)],
                k=1, extra=0,
            )
            assert rec.score == only.score

    def test_mixed_category_query_still_ranks_all_items(self, learning_service):
        _, _, svc = learning_service
        items = self._query_items() + self._query_items(category="electronics")
        ranked = svc.recommend_for_query("bob", items, k=len(items), extra=0)
        assert sorted(rec.item_id for rec in ranked) == sorted(
            item.item_id for item in items
        )
        assert ranked == sorted(ranked, key=lambda rec: (-rec.score, rec.item_id))
