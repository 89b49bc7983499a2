"""What a recommendation costs the heap: an object per item returned, not
per item considered.

The content pass and the hybrid blend rank bare ``(item_id, score)`` pairs
and build a :class:`Recommendation` only for the ``k`` they hand back; a pass
that builds one per candidate (40 catalogue items, 15 query results) and then
truncates constructs about four times what it returns.
"""

import pytest

from repro.core import hybrid as hybrid_module
from repro.core import information_filtering as information_filtering_module
from repro.core.hybrid import AgentHybridRecommender
from repro.core.items import ItemCatalogView
from repro.core.neighbors import ProfileNeighborIndex
from repro.core.profile_learning import FeedbackEvent, ProfileLearner
from repro.core.ratings import Interaction, InteractionKind, RatingsStore
from repro.core.recommender import Recommendation

from tests.conftest import make_item

CATEGORIES = {"books": "novel", "electronics": "laptop", "fashion": "denim", "toys": "puzzle"}
ITEMS = [
    make_item(f"{category}-{number:02d}", category=category, subcategory="main",
              terms={term: 0.9 - 0.05 * number, "classic": 0.1 + 0.05 * number})
    for category, term in CATEGORIES.items()
    for number in range(10)
]


@pytest.fixture
def warmed():
    """A consumer with a learned three-category profile, three neighbours who
    bought what the consumer has not seen, a synced index, one warm call."""
    catalog = ItemCatalogView(ITEMS)
    learner, ratings, profiles = ProfileLearner(), RatingsStore(), {}
    histories = {
        "consumer": ["books-00", "electronics-00", "fashion-00"],
        "n-1": ["books-00", "books-01", "electronics-01", "fashion-01", "fashion-02"],
        "n-2": ["books-02", "electronics-00", "electronics-02", "fashion-03"],
        "n-3": ["books-03", "books-04", "electronics-03", "fashion-00"],
    }
    for user, item_ids in histories.items():
        events = [FeedbackEvent(user, catalog.get(i), InteractionKind.BUY) for i in item_ids]
        profiles[user] = learner.build_profile(user, events)
        for item_id in item_ids:
            ratings.add(Interaction(user, item_id, InteractionKind.BUY))
    recommender = AgentHybridRecommender(
        ratings, catalog, profiles.get, ProfileNeighborIndex(profiles=profiles.values()),
    )
    assert len(recommender.recommend("consumer", k=10)) == 10
    return recommender


@pytest.fixture
def constructed(monkeypatch):
    """Every ``Recommendation`` built through the names ``core.hybrid`` and
    ``core.information_filtering`` bind."""
    built = []

    def counted(*args, **kwargs):
        built.append(Recommendation(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(hybrid_module, "Recommendation", counted)
    monkeypatch.setattr(information_filtering_module, "Recommendation", counted)
    return built


def test_recommend_constructs_what_it_returns(warmed, constructed):
    recommended = warmed.recommend("consumer", k=10)
    assert len(recommended) == 10
    assert constructed == recommended


def test_recommend_for_query_constructs_what_it_returns(warmed, constructed):
    query_items = ITEMS[:10] + ITEMS[10:15]
    ranked = warmed.recommend_for_query("consumer", query_items, k=10, extra=5)
    assert len(ranked) == 15
    assert constructed == ranked


def test_the_content_recommender_constructs_what_it_returns(warmed, constructed):
    recommended = warmed._content.recommend("consumer", k=10)
    assert len(recommended) == 10
    assert constructed == recommended
