"""Unit tests for the recommendation engines (CF, IF, popularity, cross-sell,
the agent hybrid and the engine facade)."""

import pytest

from repro.errors import RecommendationError
from repro.core.collaborative import CollaborativeFilteringRecommender
from repro.core.cross_sell import CrossSellRecommender
from repro.core.hybrid import AgentHybridRecommender
from repro.core.information_filtering import InformationFilteringRecommender
from repro.core.items import ItemCatalogView
from repro.core.neighbors import ProfileNeighborIndex
from repro.core.popularity import PopularityRecommender, WeeklyHottestRecommender, WEEK_MS
from repro.core.profile import Profile
from repro.core.profile_learning import FeedbackEvent, ProfileLearner
from repro.core.ratings import Interaction, InteractionKind, RatingsStore
from repro.core.recommender import Recommendation, RecommendationEngine
from repro.core.similarity import SimilarityConfig

from tests.conftest import make_item


# ---------------------------------------------------------------------------
# Hand-crafted fixture world: two taste camps (books vs electronics)
# ---------------------------------------------------------------------------

BOOK_ITEMS = [
    make_item(f"book-{i}", category="books", subcategory="fiction",
              terms={"novel": 0.8, "mystery": 0.4}, price=20.0)
    for i in range(4)
]
TECH_ITEMS = [
    make_item(f"tech-{i}", category="electronics", subcategory="computers",
              terms={"laptop": 0.9, "ssd": 0.5}, price=500.0)
    for i in range(4)
]
ALL_ITEMS = BOOK_ITEMS + TECH_ITEMS


@pytest.fixture
def catalog():
    return ItemCatalogView(ALL_ITEMS)


@pytest.fixture
def ratings():
    """alice & bob love books; carol loves electronics; dave is new."""
    store = RatingsStore()
    interactions = [
        ("alice", "book-0", InteractionKind.BUY),
        ("alice", "book-1", InteractionKind.BUY),
        ("alice", "book-2", InteractionKind.QUERY),
        ("bob", "book-0", InteractionKind.BUY),
        ("bob", "book-1", InteractionKind.QUERY),
        ("bob", "book-3", InteractionKind.BUY),
        ("carol", "tech-0", InteractionKind.BUY),
        ("carol", "tech-1", InteractionKind.BUY),
        ("carol", "book-0", InteractionKind.QUERY),
    ]
    for index, (user, item, kind) in enumerate(interactions):
        store.add(Interaction(user, item, kind, timestamp=float(index)))
    return store


@pytest.fixture
def profiles(catalog):
    """Learned profiles matching the ratings fixture."""
    learner = ProfileLearner()
    built = {}
    histories = {
        "alice": ["book-0", "book-1", "book-2"],
        "bob": ["book-0", "book-1", "book-3"],
        "carol": ["tech-0", "tech-1"],
    }
    for user, item_ids in histories.items():
        events = [
            FeedbackEvent(user, catalog.get(item_id), InteractionKind.BUY)
            for item_id in item_ids
        ]
        built[user] = learner.build_profile(user, events)
    built["dave"] = Profile("dave")
    return built


def profile_of(profiles):
    return lambda user_id: profiles.get(user_id)


# ---------------------------------------------------------------------------
# Collaborative filtering
# ---------------------------------------------------------------------------


class TestCollaborativeFiltering:
    def test_invalid_construction(self, ratings):
        with pytest.raises(RecommendationError):
            CollaborativeFilteringRecommender(ratings, neighbours=0)
        with pytest.raises(RecommendationError):
            CollaborativeFilteringRecommender(ratings, similarity="euclidean")
        with pytest.raises(RecommendationError):
            CollaborativeFilteringRecommender(ratings, min_overlap=0)

    def test_neighbourhood_finds_like_minded_user(self, ratings):
        recommender = CollaborativeFilteringRecommender(ratings, similarity="cosine")
        neighbours = dict(recommender.neighbourhood("alice"))
        assert "bob" in neighbours
        assert neighbours["bob"] > neighbours.get("carol", 0.0)

    def test_recommends_what_neighbours_liked(self, ratings, catalog):
        recommender = CollaborativeFilteringRecommender(ratings, catalog, similarity="cosine")
        recommended = [rec.item_id for rec in recommender.recommend("alice", k=5)]
        assert "book-3" in recommended          # bob bought it, alice has not seen it
        assert "book-0" not in recommended      # already interacted

    def test_category_filter(self, ratings, catalog):
        recommender = CollaborativeFilteringRecommender(ratings, catalog, similarity="cosine")
        recommended = recommender.recommend("alice", k=5, category="electronics")
        assert all(catalog.get(rec.item_id).category == "electronics" for rec in recommended)

    def test_exclude_list_respected(self, ratings, catalog):
        recommender = CollaborativeFilteringRecommender(ratings, catalog, similarity="cosine")
        recommended = [rec.item_id for rec in recommender.recommend("alice", exclude=["book-3"])]
        assert "book-3" not in recommended

    def test_cold_user_gets_nothing(self, ratings, catalog):
        recommender = CollaborativeFilteringRecommender(ratings, catalog)
        assert recommender.recommend("dave") == []


# ---------------------------------------------------------------------------
# Information filtering
# ---------------------------------------------------------------------------


class TestInformationFiltering:
    def test_scores_matching_category_items(self, catalog, profiles):
        recommender = InformationFilteringRecommender(catalog, profile_of(profiles))
        recommended = recommender.recommend("alice", k=5)
        assert recommended
        assert all(rec.item_id.startswith("book-") for rec in recommended)

    def test_no_profile_no_recommendations(self, catalog, profiles):
        recommender = InformationFilteringRecommender(catalog, profile_of(profiles))
        assert recommender.recommend("dave") == []
        assert recommender.recommend("stranger") == []

    def test_score_item_zero_for_unknown_category(self, catalog, profiles):
        recommender = InformationFilteringRecommender(catalog, profile_of(profiles))
        assert recommender.score_item(profiles["alice"], TECH_ITEMS[0]) == 0.0

    def test_subcategory_boost_increases_score(self, catalog, profiles):
        plain = InformationFilteringRecommender(
            catalog, profile_of(profiles), subcategory_boost=0.0
        )
        boosted = InformationFilteringRecommender(
            catalog, profile_of(profiles), subcategory_boost=0.5
        )
        item = BOOK_ITEMS[0]
        assert boosted.score_item(profiles["alice"], item) > plain.score_item(
            profiles["alice"], item
        )

    def test_negative_boost_rejected(self, catalog, profiles):
        with pytest.raises(RecommendationError):
            InformationFilteringRecommender(catalog, profile_of(profiles), category_boost=-1.0)

    def test_works_for_items_nobody_rated(self, profiles):
        # A brand-new item: no interactions anywhere, only content.
        fresh = make_item("book-new", terms={"novel": 0.9})
        catalog = ItemCatalogView(ALL_ITEMS + [fresh])
        recommender = InformationFilteringRecommender(catalog, profile_of(profiles))
        recommended = [rec.item_id for rec in recommender.recommend("alice", k=10)]
        assert "book-new" in recommended


# ---------------------------------------------------------------------------
# Popularity and weekly hottest
# ---------------------------------------------------------------------------


class TestPopularity:
    def test_ranks_by_purchase_count(self, ratings, catalog):
        recommender = PopularityRecommender(ratings, catalog)
        recommended = recommender.recommend("dave", k=3)
        assert recommended[0].item_id == "book-0"  # two purchases
        assert recommended[0].score == 2.0

    def test_category_filter_and_exclude(self, ratings, catalog):
        recommender = PopularityRecommender(ratings, catalog)
        tech_only = recommender.recommend("dave", k=5, category="electronics")
        assert {rec.item_id for rec in tech_only} == {"tech-0", "tech-1"}
        excluded = recommender.recommend("dave", k=5, exclude=["book-0"])
        assert all(rec.item_id != "book-0" for rec in excluded)

    def test_weekly_hottest_uses_window(self, catalog):
        store = RatingsStore()
        store.add(Interaction("u1", "book-0", InteractionKind.BUY, timestamp=0.0))
        store.add(Interaction("u2", "book-1", InteractionKind.BUY, timestamp=WEEK_MS * 3))
        now = WEEK_MS * 3 + 1000.0
        recommender = WeeklyHottestRecommender(store, now=lambda: now, catalog=catalog)
        recommended = [rec.item_id for rec in recommender.recommend("dave")]
        assert recommended == ["book-1"]

    def test_weekly_hottest_invalid_window(self, ratings):
        with pytest.raises(RecommendationError):
            WeeklyHottestRecommender(ratings, now=lambda: 0.0, window_ms=0.0)


# ---------------------------------------------------------------------------
# Cross-sell
# ---------------------------------------------------------------------------


class TestCrossSell:
    def test_recommends_co_purchased_items(self, ratings, catalog):
        recommender = CrossSellRecommender(ratings, catalog)
        # bob bought book-0 & book-1(no, queried) -> alice/bob co-bought book-0, book-1?
        recommended = [rec.item_id for rec in recommender.recommend("carol", k=5)]
        # carol bought tech items; nobody co-purchased with them.
        assert recommended == []
        alice_recs = [rec.item_id for rec in recommender.recommend("alice", k=5)]
        assert "book-3" in alice_recs  # bob bought book-0 and book-3 together

    def test_basket_api(self, ratings, catalog):
        recommender = CrossSellRecommender(ratings, catalog)
        recommended = recommender.recommend_for_basket(["book-0"], k=5)
        ids = [rec.item_id for rec in recommended]
        assert "book-0" not in ids
        assert "book-3" in ids or "book-1" in ids

    def test_min_support_filters_rare_pairs(self, ratings, catalog):
        strict = CrossSellRecommender(ratings, catalog, min_support=5)
        assert strict.recommend("alice", k=5) == []


# ---------------------------------------------------------------------------
# Agent hybrid (the paper's mechanism)
# ---------------------------------------------------------------------------


@pytest.fixture
def hybrid(ratings, catalog, profiles):
    config = SimilarityConfig(top_k=5, min_similarity=0.01)
    return AgentHybridRecommender(
        ratings=ratings,
        catalog=catalog,
        profile_of=profile_of(profiles),
        neighbor_index=ProfileNeighborIndex(provider=profiles.values, config=config),
        similarity_config=config,
    )


class TestAgentHybrid:
    def test_invalid_weights_rejected(self, ratings, catalog, profiles):
        with pytest.raises(RecommendationError):
            AgentHybridRecommender(
                ratings, catalog, profile_of(profiles), ProfileNeighborIndex(),
                collaborative_weight=-1.0,
            )
        with pytest.raises(RecommendationError):
            AgentHybridRecommender(
                ratings, catalog, profile_of(profiles), ProfileNeighborIndex(),
                collaborative_weight=0.0, content_weight=0.0,
            )

    def test_similar_users_finds_the_other_book_lover(self, hybrid):
        neighbours = [user for user, _ in hybrid.similar_users("alice")]
        assert "bob" in neighbours

    def test_recommends_neighbour_favourites_first(self, hybrid):
        recommended = hybrid.recommend("alice", k=5)
        assert recommended
        ids = [rec.item_id for rec in recommended]
        assert "book-3" in ids
        assert all(rec.score <= 1.0 for rec in recommended)

    def test_cold_user_returns_empty(self, hybrid):
        assert hybrid.recommend("dave") == []
        assert not hybrid.can_recommend("dave")

    def test_scores_are_sorted_descending(self, hybrid):
        recommended = hybrid.recommend("alice", k=8)
        scores = [rec.score for rec in recommended]
        assert scores == sorted(scores, reverse=True)

    def test_recommend_for_query_ranks_live_results(self, hybrid, catalog):
        query_items = [catalog.get("book-2"), catalog.get("tech-3")]
        ranked = hybrid.recommend_for_query("alice", query_items, k=2, extra=0)
        assert ranked[0].item_id == "book-2"  # the book matches alice's tastes

    def test_recommend_for_query_appends_discoveries(self, hybrid, catalog):
        query_items = [catalog.get("book-2")]
        ranked = hybrid.recommend_for_query("alice", query_items, k=1, extra=3)
        assert len(ranked) > 1
        assert ranked[0].item_id == "book-2"
        assert all(rec.item_id != "book-2" for rec in ranked[1:])


@pytest.fixture
def indexed_hybrid(ratings, catalog, profiles):
    config = SimilarityConfig(top_k=5, min_similarity=0.01)
    return AgentHybridRecommender(
        ratings=ratings,
        catalog=catalog,
        profile_of=profile_of(profiles),
        neighbor_index=ProfileNeighborIndex(profiles=profiles.values(), config=config),
        similarity_config=config,
    )


class TestQueryNeighbourLookups:
    """One ``find_similar`` serves both the ranking and the discoveries."""

    def test_single_category_query_costs_one_lookup(self, indexed_hybrid, catalog):
        index = indexed_hybrid.neighbor_index
        ranked = indexed_hybrid.recommend_for_query(
            "alice", [catalog.get("book-2"), catalog.get("book-3")], k=2, extra=3
        )
        assert index.queries == 1
        assert len(ranked) > 2

    def test_mixed_category_query_costs_one_lookup(self, indexed_hybrid, catalog):
        index = indexed_hybrid.neighbor_index
        indexed_hybrid.recommend_for_query(
            "alice", [catalog.get("book-2"), catalog.get("tech-3")], k=2, extra=3
        )
        assert index.queries == 1

    def test_query_without_discoveries_costs_one_lookup(self, indexed_hybrid, catalog):
        index = indexed_hybrid.neighbor_index
        ranked = indexed_hybrid.recommend_for_query(
            "alice", [catalog.get("book-2")], k=1, extra=0
        )
        assert index.queries == 1
        assert [rec.item_id for rec in ranked] == ["book-2"]

    def test_recommend_costs_one_lookup(self, indexed_hybrid):
        indexed_hybrid.recommend("alice", k=5)
        assert indexed_hybrid.neighbor_index.queries == 1

    def test_cold_start_consumer_costs_no_lookup(self, indexed_hybrid, hybrid, catalog):
        query_items = [catalog.get("book-2"), catalog.get("tech-3")]
        ranked = indexed_hybrid.recommend_for_query("dave", query_items, k=2, extra=3)
        assert indexed_hybrid.neighbor_index.queries == 0
        assert ranked == [
            Recommendation("book-2", 0.0, "agent-hybrid", "ranked query result"),
            Recommendation("tech-3", 0.0, "agent-hybrid", "ranked query result"),
        ]
        assert ranked == hybrid.recommend_for_query("dave", query_items, k=2, extra=3)

    def test_unknown_consumer_costs_no_lookup(self, indexed_hybrid, catalog):
        ranked = indexed_hybrid.recommend_for_query("nobody", [catalog.get("book-2")])
        assert indexed_hybrid.neighbor_index.queries == 0
        assert [rec.score for rec in ranked] == [0.0]


# ---------------------------------------------------------------------------
# RecommendationEngine facade
# ---------------------------------------------------------------------------


class TestRecommendationEngine:
    def test_invalid_k_rejected(self, hybrid):
        engine = RecommendationEngine(hybrid)
        with pytest.raises(RecommendationError):
            engine.recommend("alice", k=0)

    def test_purchased_items_excluded(self, hybrid, ratings, catalog):
        engine = RecommendationEngine(hybrid, ratings=ratings)
        recommended = [rec.item_id for rec in engine.recommend("alice", k=10)]
        assert "book-0" not in recommended
        assert "book-1" not in recommended

    def test_fallback_fills_for_cold_users(self, hybrid, ratings, catalog):
        engine = RecommendationEngine(
            hybrid, ratings=ratings, fallback=PopularityRecommender(ratings, catalog)
        )
        recommended = engine.recommend("dave", k=3)
        assert recommended
        assert all(rec.source == "popularity" for rec in recommended)

    def test_output_is_deduplicated_and_bounded(self, hybrid, ratings, catalog):
        engine = RecommendationEngine(
            hybrid, ratings=ratings, fallback=PopularityRecommender(ratings, catalog)
        )
        recommended = engine.recommend("alice", k=3)
        assert len(recommended) <= 3
        assert len({rec.item_id for rec in recommended}) == len(recommended)

    def test_recommendation_requires_item_id(self):
        with pytest.raises(RecommendationError):
            Recommendation(item_id="", score=1.0, source="x")
