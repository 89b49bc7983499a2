"""Integration tests for the buy / auction / negotiation workflow (Figure 4.3)."""

import pytest

from repro.core.ratings import InteractionKind
from repro.ecommerce.transactions import TransactionKind
from repro.errors import SessionError
from repro.experiments.figures import TRADE_WORKFLOW_STEPS


@pytest.fixture
def shopping(platform):
    """A logged-in consumer with one query already done (so items are known)."""
    session = platform.login("alice")
    results = session.query("books")
    assert results, "the fixture platform must list books"
    return platform, session, results


class TestDirectPurchase:
    def test_buy_completes_and_returns_transaction(self, shopping):
        platform, session, results = shopping
        hit = results[0]
        outcome = session.buy(hit.item, marketplace=hit.marketplace)
        assert outcome.succeeded
        assert outcome.transaction.kind is TransactionKind.DIRECT_PURCHASE
        assert outcome.price_paid == pytest.approx(hit.item.price)

    def test_all_figure_43_steps_present_in_order(self, shopping):
        platform, session, results = shopping
        hit = results[0]
        start = len(platform.event_log)
        session.buy(hit.item, marketplace=hit.marketplace)
        workflow = [
            e.category
            for e in platform.event_log.events[start:]
            if e.category.startswith("workflow.")
        ]
        positions = []
        for step in TRADE_WORKFLOW_STEPS:
            assert step in workflow, f"missing workflow step {step}"
            positions.append(workflow.index(step))
        assert positions == sorted(positions)

    def test_stock_decremented_on_the_marketplace(self, shopping):
        platform, session, results = shopping
        hit = results[0]
        marketplace = next(m for m in platform.marketplaces if m.name == hit.marketplace)
        stock_before = marketplace.catalog.listing(hit.item.item_id).stock
        session.buy(hit.item, marketplace=hit.marketplace)
        assert marketplace.catalog.listing(hit.item.item_id).stock == stock_before - 1

    def test_transaction_recorded_in_user_db(self, shopping):
        platform, session, results = shopping
        hit = results[0]
        session.buy(hit.item, marketplace=hit.marketplace)
        transactions = platform.buyer_server.user_db.transactions_of("alice")
        assert len(transactions) == 1
        assert transactions[0].item_id == hit.item.item_id

    def test_purchase_updates_profile_with_buy_behaviour(self, shopping):
        platform, session, results = shopping
        hit = results[0]
        events_before = platform.buyer_server.user_db.profile("alice").feedback_events
        session.buy(hit.item, marketplace=hit.marketplace)
        profile = platform.buyer_server.user_db.profile("alice")
        assert profile.feedback_events == events_before + 1
        interactions = platform.buyer_server.user_db.ratings.interactions_of("alice")
        assert any(i.kind is InteractionKind.BUY for i in interactions)

    def test_purchased_item_not_recommended_again(self, shopping):
        platform, session, results = shopping
        hit = results[0]
        session.buy(hit.item, marketplace=hit.marketplace)
        recommendations = session.recommendations(k=10)
        assert all(rec.item_id != hit.item.item_id for rec in recommendations)


    def test_the_marketplace_record_is_the_one_that_comes_home(self, platform):
        # A transaction record is frozen, so it crosses the MBA's hop home by
        # reference: the BRA records, and the consumer is handed, the very
        # object the marketplace wrote — in ``outcome`` and beside it.
        gateway = platform.gateway()
        assert gateway.login("alice").ok
        hit = gateway.query("alice", "books").result.hits[0]
        trade = gateway.buy("alice", hit.item, marketplace=hit.marketplace).result
        marketplace = next(m for m in platform.marketplaces if m.name == hit.marketplace)
        written = marketplace.transactions[-1]
        assert trade.transaction is written
        assert trade.outcome["transaction"] is written
        recorded = platform.buyer_server.user_db.transactions_of("alice")
        assert len(recorded) == 1 and recorded[0] is written


class TestAuction:
    def test_generous_bid_wins_the_auction(self, shopping):
        platform, session, results = shopping
        hit = results[0]
        outcome = session.join_auction(
            hit.item, max_price=hit.price * 1.4, marketplace=hit.marketplace
        )
        assert outcome.succeeded
        assert outcome.transaction.kind is TransactionKind.AUCTION_WIN
        assert outcome.price_paid <= hit.price * 1.4
        assert outcome.outcome["rounds"] >= 1

    def test_lowball_bid_loses_but_behaviour_still_recorded(self, shopping):
        platform, session, results = shopping
        hit = results[0]
        events_before = platform.buyer_server.user_db.profile("alice").feedback_events
        outcome = session.join_auction(
            hit.item, max_price=hit.price * 0.3, marketplace=hit.marketplace
        )
        assert not outcome.succeeded
        assert outcome.transaction is None
        profile = platform.buyer_server.user_db.profile("alice")
        assert profile.feedback_events == events_before + 1
        interactions = platform.buyer_server.user_db.ratings.interactions_of("alice")
        assert any(i.kind is InteractionKind.AUCTION_BID for i in interactions)

    def test_auction_requires_max_price(self, shopping):
        platform, session, results = shopping
        hit = results[0]
        with pytest.raises(SessionError):
            session._trade("buyer.auction.join", hit.item, marketplace=hit.marketplace)


class TestNegotiation:
    def test_reasonable_budget_reaches_agreement(self, shopping):
        platform, session, results = shopping
        hit = results[0]
        outcome = session.negotiate(
            hit.item, max_price=hit.price * 0.95, marketplace=hit.marketplace
        )
        assert outcome.succeeded
        assert outcome.transaction.kind is TransactionKind.NEGOTIATED_PURCHASE
        assert outcome.price_paid <= hit.price

    def test_tiny_budget_fails_to_agree(self, shopping):
        platform, session, results = shopping
        hit = results[0]
        outcome = session.negotiate(
            hit.item, max_price=hit.price * 0.1, marketplace=hit.marketplace
        )
        assert not outcome.succeeded
        assert outcome.transaction is None

    def test_negotiated_price_never_exceeds_budget(self, shopping):
        platform, session, results = shopping
        hit = results[0]
        budget = hit.price * 0.9
        outcome = session.negotiate(hit.item, max_price=budget, marketplace=hit.marketplace)
        if outcome.succeeded:
            assert outcome.price_paid <= budget + 1e-6


class TestTradeBookkeeping:
    def test_each_trade_dispatches_exactly_one_mba(self, shopping):
        platform, session, results = shopping
        hit = results[0]
        history_before = len(platform.buyer_server.bsmdb.mba_history())
        session.buy(hit.item, marketplace=hit.marketplace)
        session.join_auction(hit.item, max_price=hit.price * 1.3, marketplace=hit.marketplace)
        history = platform.buyer_server.bsmdb.mba_history()
        assert len(history) == history_before + 2
        assert all(record.returned_at is not None for record in history)

    def test_logout_after_trading_disposes_the_bra(self, shopping):
        platform, session, results = shopping
        hit = results[0]
        session.buy(hit.item, marketplace=hit.marketplace)
        session.logout()
        assert platform.buyer_server.context.active_count("BRA") == 0
        assert platform.buyer_server.online_users() == []
