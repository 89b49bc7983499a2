"""Integration tests for marketplaces, seller servers and multi-marketplace
information gathering (capability CAP-2)."""

import pytest

from repro.agents.messages import Message, MessageKinds
from repro.ecommerce.platform_builder import build_platform
from repro.errors import ECommerceError


class TestSellerListing:
    def test_seller_lists_via_mobile_seller_agent(self, platform):
        seller = platform.sellers[0]
        marketplace = platform.marketplaces[1]  # not its round-robin target
        before = len(marketplace.catalog)
        added = seller.list_on_marketplace(marketplace.name)
        assert added == len(seller.catalog)
        assert len(marketplace.catalog) == before + added
        assert marketplace.name in seller.listed_on
        # The MSA went home and was disposed of.
        assert seller.context.active_count("MSA") == 0
        remote = platform.directory.context_for(marketplace.name)
        assert remote.active_count("MSA") == 0

    def test_seller_rejects_foreign_merchandise(self, platform, item_factory):
        seller = platform.sellers[0]
        foreign = item_factory("foreign-1", seller="somebody-else")
        with pytest.raises(ECommerceError):
            seller.add_merchandise(foreign)

    def test_seller_agent_reports_catalog_over_messages(self, platform):
        seller = platform.sellers[0]
        reply = seller.agent.proxy.request(
            MessageKinds.MARKET_CATALOG, sender="test", from_host=seller.name
        )
        assert reply.ok
        assert len(reply.value("listings")) == len(seller.catalog)


class TestMarketplaceServices:
    def test_market_agent_answers_query_messages(self, platform):
        marketplace = platform.marketplaces[0]
        reply = marketplace.agent.proxy.request(
            MessageKinds.MARKET_QUERY, sender="test", keyword="books",
        )
        assert reply.ok
        results = reply.value("results")
        assert all(entry["marketplace"] == marketplace.name for entry in results)

    def test_market_agent_rejects_unknown_item_purchase(self, platform):
        marketplace = platform.marketplaces[0]
        reply = marketplace.agent.proxy.request(
            MessageKinds.MARKET_BUY, sender="test", item_id="ghost", user_id="alice",
        )
        assert not reply.ok

    def test_direct_sale_records_transaction_and_stock(self, platform):
        marketplace = platform.marketplaces[0]
        listing = marketplace.catalog.listings()[0]
        stock_before = listing.stock
        transaction = marketplace.sell_direct(listing.item.item_id, "alice", timestamp=1.0)
        assert transaction.price == listing.item.price
        assert marketplace.catalog.listing(listing.item.item_id).stock == stock_before - 1
        assert transaction in marketplace.transactions

    def test_out_of_stock_item_cannot_be_auctioned(self, platform):
        marketplace = platform.marketplaces[0]
        listing = marketplace.catalog.listings()[0]
        listing.stock = 0
        from repro.errors import TransactionError

        with pytest.raises(TransactionError):
            marketplace.auction_purchase(listing.item.item_id, "alice", 999.0, timestamp=0.0)

    def test_stats_reflect_activity(self, platform):
        marketplace = platform.marketplaces[0]
        listing = marketplace.catalog.listings()[0]
        marketplace.sell_direct(listing.item.item_id, "alice", timestamp=1.0)
        stats = marketplace.stats()
        assert stats["transactions"] == 1.0
        assert stats["sold"] == 1.0


class TestMultiMarketplaceCollection:
    """Capability CAP-2: the MBA collects information from many marketplaces."""

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_coverage_grows_with_marketplace_count(self, count):
        platform = build_platform(
            num_marketplaces=count, num_sellers=count, items_per_seller=15,
            seed=13, replicate_listings=False,
        )
        gateway = platform.gateway()
        assert gateway.login("shopper").ok
        results = gateway.query("shopper", "books").result.hits
        marketplaces_with_hits = {hit.marketplace for hit in results}
        assert len(marketplaces_with_hits) == count
        assert gateway.logout("shopper").ok

    def test_one_mba_serves_the_whole_itinerary(self):
        platform = build_platform(
            num_marketplaces=3, num_sellers=3, items_per_seller=15, seed=13,
        )
        gateway = platform.gateway()
        assert gateway.login("shopper").ok
        assert gateway.query("shopper", "books").ok
        history = platform.buyer_server.bsmdb.mba_history()
        assert len(history) == 1
        assert history[0].itinerary == platform.marketplace_names()
        assert gateway.logout("shopper").ok

    def test_results_identify_the_cheapest_marketplace(self):
        platform = build_platform(
            num_marketplaces=3, num_sellers=3, items_per_seller=15, seed=13,
        )
        gateway = platform.gateway()
        assert gateway.login("shopper").ok
        results = gateway.query("shopper", "books").result.hits
        assert results
        cheapest = min(results, key=lambda hit: hit.price)
        assert cheapest.marketplace in platform.marketplace_names()
        assert gateway.logout("shopper").ok

    def test_serial_visits_cost_latency_per_marketplace(self):
        latencies = {}
        for count in (1, 3):
            platform = build_platform(
                num_marketplaces=count, num_sellers=count, items_per_seller=10, seed=13,
            )
            gateway = platform.gateway()
            assert gateway.login("shopper").ok
            before = platform.now
            assert gateway.query("shopper", "books").ok
            latencies[count] = platform.now - before
            assert gateway.logout("shopper").ok
        assert latencies[3] > latencies[1]
