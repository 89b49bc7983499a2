"""Unit tests for the merchandise catalogue and transaction records."""

import pytest

from repro.errors import CatalogError, TransactionError
from repro.ecommerce.catalog import Listing, MerchandiseCatalog
from repro.ecommerce.marketplace import MarketplaceServer
from repro.ecommerce.transactions import TransactionKind, TransactionRecord

from tests.conftest import make_item


class TestListing:
    def test_default_reserve_is_seventy_percent(self):
        listing = Listing(item=make_item(price=100.0), stock=1)
        assert listing.reserve_price == pytest.approx(70.0)

    def test_explicit_reserve_respected(self):
        listing = Listing(item=make_item(price=100.0), stock=1, reserve_price=50.0)
        assert listing.reserve_price == 50.0

    def test_negative_stock_rejected(self):
        with pytest.raises(CatalogError):
            Listing(item=make_item(), stock=-1)

    def test_negative_reserve_rejected(self):
        with pytest.raises(CatalogError):
            Listing(item=make_item(), stock=1, reserve_price=-5.0)

    def test_available_tracks_stock(self):
        listing = Listing(item=make_item(), stock=0)
        assert not listing.available


class TestMerchandiseCatalog:
    def test_list_item_and_lookup(self):
        catalog = MerchandiseCatalog(owner="seller-1")
        catalog.list_item(make_item("a"), stock=3)
        assert "a" in catalog
        assert catalog.item("a").item_id == "a"
        assert catalog.listing("a").stock == 3
        assert len(catalog) == 1

    def test_listing_same_item_adds_stock(self):
        catalog = MerchandiseCatalog()
        catalog.list_item(make_item("a"), stock=2)
        catalog.list_item(make_item("a"), stock=3)
        assert catalog.listing("a").stock == 5
        assert len(catalog) == 1

    def test_unknown_item_raises(self):
        catalog = MerchandiseCatalog()
        with pytest.raises(CatalogError):
            catalog.listing("ghost")
        with pytest.raises(CatalogError):
            catalog.remove_item("ghost")

    def test_remove_item(self):
        catalog = MerchandiseCatalog()
        catalog.list_item(make_item("a"))
        catalog.remove_item("a")
        assert "a" not in catalog

    def test_search_matches_keyword_and_respects_stock(self):
        catalog = MerchandiseCatalog()
        catalog.list_item(make_item("a", terms={"novel": 1.0}), stock=1)
        catalog.list_item(make_item("b", terms={"novel": 1.0}), stock=0)
        in_stock = catalog.search("novel")
        assert [listing.item.item_id for listing in in_stock] == ["a"]
        everything = catalog.search("novel", in_stock_only=False)
        assert len(everything) == 2

    def test_in_category(self):
        catalog = MerchandiseCatalog()
        catalog.list_item(make_item("a", category="books"), stock=1)
        catalog.list_item(make_item("b", category="fashion", terms={"shirt": 1.0}), stock=1)
        assert [l.item.item_id for l in catalog.in_category("books")] == ["a"]

    def test_sell_decrements_stock_and_counts(self):
        catalog = MerchandiseCatalog()
        catalog.list_item(make_item("a"), stock=2)
        catalog.sell("a")
        assert catalog.listing("a").stock == 1
        assert catalog.listing("a").sold == 1
        assert catalog.total_sold() == 1

    def test_sell_out_of_stock_rejected(self):
        catalog = MerchandiseCatalog()
        catalog.list_item(make_item("a"), stock=1)
        catalog.sell("a")
        with pytest.raises(TransactionError):
            catalog.sell("a")

    def test_sell_invalid_quantity(self):
        catalog = MerchandiseCatalog()
        catalog.list_item(make_item("a"), stock=5)
        with pytest.raises(TransactionError):
            catalog.sell("a", quantity=0)
        with pytest.raises(TransactionError):
            catalog.sell("a", quantity=10)

    def test_restock(self):
        catalog = MerchandiseCatalog()
        catalog.list_item(make_item("a"), stock=1)
        catalog.restock("a", 4)
        assert catalog.listing("a").stock == 5
        with pytest.raises(CatalogError):
            catalog.restock("a", 0)

    def test_view_is_read_only_snapshot(self):
        catalog = MerchandiseCatalog()
        catalog.list_item(make_item("a"), stock=1)
        view = catalog.view()
        assert "a" in view
        catalog.list_item(make_item("b", terms={"x": 0.1}), stock=1)
        assert "b" not in view  # the view was taken before b was listed

    def test_total_stock(self):
        catalog = MerchandiseCatalog()
        catalog.list_item(make_item("a"), stock=2)
        catalog.list_item(make_item("b", terms={"x": 0.1}), stock=3)
        assert catalog.total_stock() == 5


class TestTransactionRecord:
    def test_marketplace_mints_unique_ids(self, two_contexts):
        alpha, _ = two_contexts
        market = MarketplaceServer(alpha)
        market.catalog.list_item(make_item("a", price=10.0), stock=2)
        first = market.sell_direct("a", "alice", timestamp=1.0)
        second = market.sell_direct("a", "alice", timestamp=2.0)
        assert [first.transaction_id, second.transaction_id] == ["txn-alpha-1", "txn-alpha-2"]

    def test_negative_price_rejected(self):
        with pytest.raises(TransactionError):
            TransactionRecord(
                "txn-m-1", "alice", "a", "m", TransactionKind.DIRECT_PURCHASE,
                price=-1.0, list_price=10.0, timestamp=0.0,
            )
