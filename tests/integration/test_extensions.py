"""Integration tests for the §5.2 future-work extensions exposed end-to-end:
explicit ratings, weekly hottest merchandise and tied-sale (cross-sell)
suggestions, plus the experiment runner CLI."""

import pytest

from repro.api.envelope import ApiStatus
from repro.core.ratings import InteractionKind
from repro.experiments.__main__ import main as experiments_main


@pytest.fixture
def shopper(platform):
    gateway = platform.gateway()
    assert gateway.login("alice").ok
    results = gateway.query("alice", "books").result.hits
    assert results
    return platform, gateway, results


class TestExplicitRatings:
    def test_rate_updates_profile_and_ratings_store(self, shopper):
        platform, gateway, results = shopper
        item = results[0].item
        events_before = platform.buyer_server.user_db.profile("alice").feedback_events
        returned = gateway.rate("alice", item, 4.5).result.rating
        assert returned == 4.5
        user_db = platform.buyer_server.user_db
        assert user_db.profile("alice").feedback_events == events_before + 1
        interactions = user_db.ratings.interactions_of("alice")
        assert any(i.kind is InteractionKind.RATE and i.value == 4.5 for i in interactions)

    def test_out_of_range_rating_rejected(self, shopper):
        _, gateway, results = shopper
        response = gateway.rate("alice", results[0].item, 7.0)
        assert response.status == ApiStatus.FAILED
        assert response.error.code == "session"

    def test_higher_ratings_teach_more(self, platform):
        gateway = platform.gateway()
        assert gateway.login("low-rater").ok
        assert gateway.login("high-rater").ok
        item = gateway.query("low-rater", "books").result.hits[0].item
        assert gateway.query("high-rater", "books").ok
        assert gateway.rate("low-rater", item, 1.0).ok
        assert gateway.rate("high-rater", item, 5.0).ok
        user_db = platform.buyer_server.user_db
        low_weight = user_db.profile("low-rater").category(item.category).preference
        high_weight = user_db.profile("high-rater").category(item.category).preference
        assert high_weight > low_weight
        assert gateway.logout("low-rater").ok
        assert gateway.logout("high-rater").ok


class TestWeeklyHottest:
    def test_hottest_reflects_recent_purchases(self, shopper):
        platform, gateway, results = shopper
        hit = results[0]
        assert gateway.buy("alice", hit.item, marketplace=hit.marketplace).ok
        hottest = gateway.weekly_hottest("alice", k=5).result.recommendations
        assert hottest
        assert hottest[0].item_id == hit.item.item_id
        assert hottest[0].source == "weekly-hottest"

    def test_hottest_empty_before_any_purchase(self, shopper):
        _, gateway, _ = shopper
        assert gateway.weekly_hottest("alice", k=5).result.recommendations == ()

    def test_hottest_category_filter(self, shopper):
        platform, gateway, results = shopper
        hit = results[0]
        assert gateway.buy("alice", hit.item, marketplace=hit.marketplace).ok
        hottest = gateway.weekly_hottest
        assert hottest("alice", k=5, category="electronics").result.recommendations == ()
        assert hottest("alice", k=5, category=hit.item.category).result.recommendations


class TestCrossSell:
    def test_basket_suggestions_come_from_co_purchases(self, platform):
        # Two consumers buy the same pair of items; a third with one of them
        # in the basket should be offered the other.
        gateway = platform.gateway()
        first_pair = None
        for name in ("buyer-1", "buyer-2"):
            assert gateway.login(name).ok
            hits = gateway.query(name, "books").result.hits
            pair = hits[:2]
            if first_pair is None:
                first_pair = pair
            for hit in pair:
                assert gateway.buy(name, hit.item, marketplace=hit.marketplace).ok
            assert gateway.logout(name).ok

        assert gateway.login("buyer-3").ok
        assert gateway.query("buyer-3", "books").ok
        suggestions = gateway.cross_sell(
            "buyer-3", basket=[first_pair[0].item.item_id]
        ).result.recommendations
        assert suggestions
        assert suggestions[0].item_id == first_pair[1].item.item_id
        assert gateway.logout("buyer-3").ok

    def test_history_based_cross_sell(self, platform):
        # buyer-1 and buyer-2 share purchases, so buyer-1's history yields
        # suggestions drawn from the co-purchase matrix.
        gateway = platform.gateway()
        names = ("buyer-1", "buyer-2")
        for name in names:
            assert gateway.login(name).ok
            hits = gateway.query(name, "books").result.hits
            for hit in hits[:2]:
                assert gateway.buy(name, hit.item, marketplace=hit.marketplace).ok
        extra = gateway.query("buyer-2", "books").result.hits
        bought_extra = [h for h in extra if h.item.item_id not in {
            t.item_id for t in platform.buyer_server.user_db.transactions_of("buyer-2")
        }]
        if bought_extra:
            assert gateway.buy("buyer-2", bought_extra[0].item, marketplace=bought_extra[0].marketplace).ok
        suggestions = gateway.cross_sell("buyer-1", k=5).result.recommendations
        # buyer-1 already owns the shared pair, so only genuinely new items appear.
        owned = {t.item_id for t in platform.buyer_server.user_db.transactions_of("buyer-1")}
        assert all(rec.item_id not in owned for rec in suggestions)
        for name in names:
            assert gateway.logout(name).ok

    def test_cross_sell_requires_login(self, platform):
        platform.register_consumer("stranger")
        response = platform.gateway().cross_sell("stranger")
        assert response.status == ApiStatus.FAILED
        assert response.error.code == "unknown-user"


class TestExperimentRunnerCLI:
    def test_list_mode(self, capsys):
        assert experiments_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig42" in out and "cap4-quality" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            experiments_main(["--only", "not-an-experiment"])

    def test_quick_single_experiment_runs(self, capsys):
        assert experiments_main(["--quick", "--only", "fig41"]) == 0
        out = capsys.readouterr().out
        assert "FIG-4.1" in out
        assert "bootstrap_latency_ms" in out
