"""Marketplace server: where buyer and seller mobile agents trade.

"Marketplace is a place that lets the Mobile Agent of the Buyer and the Mobile
Agent of the Seller trade with each other.  And provide kinds of trading
services such as: information query, negotiations, and auctions." (§3.2)

A :class:`MarketplaceServer` owns a merchandise catalogue (stocked by seller
agents), an auction house and a negotiation service, and hosts a static
:class:`MarketplaceAgent` that answers the trading messages mobile agents send
while visiting the marketplace host.
"""

from __future__ import annotations

import itertools

from typing import Dict, List, Optional

from repro.errors import CatalogError, MarketplaceError, TransactionError
from repro.adversarial.handshake import HandshakeBroker, HandshakeTranscript
from repro.agents.aglet import Aglet
from repro.agents.context import AgletContext
from repro.agents.messages import Message, MessageKinds, Reply
from repro.core.items import Item
from repro.ecommerce.auction import AuctionHouse
from repro.ecommerce.catalog import Listing, MerchandiseCatalog
from repro.ecommerce.negotiation import NegotiationService
from repro.ecommerce.transactions import TransactionKind, TransactionRecord

__all__ = ["MarketplaceAgent", "MarketplaceServer"]


def _admit_freely(user_id: str, timestamp: float) -> None:
    """Admission on an unsecured marketplace: nothing to check."""
    return None


class MarketplaceAgent(Aglet):
    """Static agent answering trading requests on a marketplace host.

    The agent keeps no trading state of its own: the catalogue, auction house
    and negotiation service are host services, fetched per message, so the
    agent itself stays trivially serialisable.
    """

    agent_type = "MarketAgent"

    def on_creation(self, marketplace_name: str = "") -> None:
        self.marketplace_name = marketplace_name or self.location

    # -- host service access ----------------------------------------------------

    def _server(self) -> "MarketplaceServer":
        return self.context.host.service("marketplace-server")

    # -- message handling ----------------------------------------------------------

    def handle_message(self, message: Message) -> Reply:
        server = self._server()
        try:
            if message.kind == MessageKinds.MARKET_QUERY:
                return self._handle_query(server, message)
            if message.kind == MessageKinds.MARKET_BUY:
                return self._handle_buy(server, message)
            if message.kind == MessageKinds.MARKET_NEGOTIATE:
                return self._handle_negotiate(server, message)
            if message.kind == MessageKinds.MARKET_AUCTION_BID:
                return self._handle_auction(server, message)
            if message.kind == MessageKinds.MARKET_CATALOG:
                return self._handle_catalog_update(server, message)
        except (MarketplaceError, TransactionError, CatalogError) as exc:
            return Reply.failure(message.kind, str(exc))
        return super().handle_message(message)

    def _handle_query(self, server: "MarketplaceServer", message: Message) -> Reply:
        keyword = message.argument("keyword", "")
        category = message.argument("category")
        listings = server.search(keyword=keyword, category=category)
        results = [
            {
                "item": listing.item,
                "price": listing.item.price,
                "stock": listing.stock,
                "marketplace": server.name,
            }
            for listing in listings
        ]
        return message.reply(results=results, marketplace=server.name)

    def _handle_buy(self, server: "MarketplaceServer", message: Message) -> Reply:
        item_id = message.require("item_id")
        user_id = message.require("user_id")
        transaction = server.sell_direct(item_id, user_id, timestamp=self.now)
        return message.reply(transaction=transaction, marketplace=server.name)

    def _handle_negotiate(self, server: "MarketplaceServer", message: Message) -> Reply:
        item_id = message.require("item_id")
        user_id = message.require("user_id")
        max_price = float(message.require("max_price"))
        outcome, transaction = server.negotiate_purchase(
            item_id, user_id, max_price, timestamp=self.now
        )
        return message.reply(
            agreed=outcome.agreed,
            final_price=outcome.final_price,
            rounds=outcome.rounds,
            transaction=transaction,
            marketplace=server.name,
        )

    def _handle_auction(self, server: "MarketplaceServer", message: Message) -> Reply:
        item_id = message.require("item_id")
        user_id = message.require("user_id")
        max_price = float(message.require("max_price"))
        result, transaction = server.auction_purchase(
            item_id, user_id, max_price, timestamp=self.now
        )
        return message.reply(
            won=transaction is not None,
            winning_bid=result.winning_bid,
            rounds=result.rounds,
            bids=result.bids,
            transaction=transaction,
            marketplace=server.name,
        )

    def _handle_catalog_update(self, server: "MarketplaceServer", message: Message) -> Reply:
        listings = message.require("listings")
        added = 0
        for entry in listings:
            server.catalog.list_item(
                entry["item"], stock=int(entry.get("stock", 1)),
                reserve_price=float(entry.get("reserve_price", 0.0)),
            )
            added += 1
        return message.reply(added=added, marketplace=server.name)


class MarketplaceServer:
    """One marketplace of the e-commerce platform.

    Every trade is admitted in one place, ``_admit``, chosen at
    construction.  With ``handshake_trades`` it runs the
    :mod:`repro.adversarial.handshake` protocol through a
    :class:`HandshakeBroker` on this host's auth service and redeems
    the transcript, and every recorded transaction is backed by its
    transcript in :attr:`trade_handshakes` (what the invariant auditor
    re-checks); without it admission does nothing.  The auction house
    and the negotiation service know nothing about handshakes.
    """

    def __init__(
        self, context: AgletContext, seed: int = 0, handshake_trades: bool = False
    ) -> None:
        self.context = context
        self.name = context.host_name
        self.catalog = MerchandiseCatalog(owner=self.name)
        self.handshakes: Optional[HandshakeBroker] = (
            HandshakeBroker(self.name, context.auth) if handshake_trades else None
        )
        self._admit = self._admit_by_handshake if handshake_trades else _admit_freely
        #: transaction_id → transcript backing it (handshake mode only).
        self.trade_handshakes: Dict[str, HandshakeTranscript] = {}
        self.auction_house = AuctionHouse(self.name, seed=seed)
        self.negotiations = NegotiationService(self.name)
        self.transactions: List[TransactionRecord] = []
        # Per-marketplace id sequence: two same-seed platforms built in the
        # same process mint identical transaction ids, which keeps whole
        # runs — including replication payload sizes — reproducible.
        self._transaction_seq = itertools.count(1)
        context.host.attach_service("marketplace-server", self)
        self.agent = context.create(MarketplaceAgent, owner=self.name,
                                    marketplace_name=self.name)

    # -- querying -----------------------------------------------------------------

    def search(self, keyword: str = "", category: Optional[str] = None):
        """Search the catalogue by keyword and/or category."""
        if keyword:
            listings = self.catalog.search(keyword)
            if category:
                listings = [l for l in listings if l.item.category == category]
            return listings
        if category:
            return self.catalog.in_category(category)
        return [listing for listing in self.catalog.listings() if listing.available]

    # -- trading ---------------------------------------------------------------------

    def _admit_by_handshake(self, user_id: str, timestamp: float) -> HandshakeTranscript:
        """Admit one trade: a finalized handshake, redeemed on the spot."""
        return self.handshakes.redeem(self.handshakes.perform(user_id, timestamp))

    def _in_stock(self, item_id: str) -> Listing:
        listing = self.catalog.listing(item_id)
        if not listing.available:
            raise TransactionError(f"item {item_id!r} is out of stock on {self.name!r}")
        return listing

    def _record(
        self,
        kind: TransactionKind,
        user_id: str,
        item: Item,
        price: float,
        timestamp: float,
        handshake: Optional[HandshakeTranscript],
    ) -> TransactionRecord:
        transaction = TransactionRecord(
            transaction_id=f"txn-{self.name}-{next(self._transaction_seq)}",
            user_id=user_id,
            item_id=item.item_id,
            marketplace=self.name,
            kind=kind,
            price=price,
            list_price=item.price,
            timestamp=timestamp,
            seller=item.seller,
        )
        if handshake is not None:
            self.trade_handshakes[transaction.transaction_id] = handshake
        self.transactions.append(transaction)
        return transaction

    def sell_direct(self, item_id: str, user_id: str, timestamp: float) -> TransactionRecord:
        """A straight purchase at list price, admitted before the stock check."""
        handshake = self._admit(user_id, timestamp)
        item = self.catalog.sell(item_id)
        return self._record(
            TransactionKind.DIRECT_PURCHASE, user_id, item, item.price, timestamp, handshake
        )

    def negotiate_purchase(
        self, item_id: str, user_id: str, max_price: float, timestamp: float
    ):
        """Bargain for the item; buy it at the agreed price on success."""
        listing = self._in_stock(item_id)
        handshake = self._admit(user_id, timestamp)
        outcome = self.negotiations.negotiate(
            listing.item, buyer_max=max_price, seller_reserve=listing.reserve_price
        )
        transaction = None
        if outcome.agreed:
            self.catalog.sell(item_id)
            transaction = self._record(
                TransactionKind.NEGOTIATED_PURCHASE, user_id, listing.item,
                outcome.final_price, timestamp, handshake,
            )
        return outcome, transaction

    def auction_purchase(
        self, item_id: str, user_id: str, max_price: float, timestamp: float
    ):
        """Run an auction for the item; buy it if the consumer's agent wins."""
        listing = self._in_stock(item_id)
        handshake = self._admit(user_id, timestamp)
        result = self.auction_house.run_auction(
            listing.item, bidder=user_id, max_price=max_price,
            reserve_price=listing.reserve_price,
        )
        transaction = None
        if result.winner == user_id:
            self.catalog.sell(item_id)
            transaction = self._record(
                TransactionKind.AUCTION_WIN, user_id, listing.item,
                result.winning_bid, timestamp, handshake,
            )
        return result, transaction

    # -- statistics --------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        stats = {
            "listings": float(len(self.catalog)),
            "stock": float(self.catalog.total_stock()),
            "sold": float(self.catalog.total_sold()),
            "transactions": float(len(self.transactions)),
            "auctions": float(len(self.auction_house.completed)),
            "negotiations": float(len(self.negotiations.completed)),
        }
        if self.handshakes is not None:
            # Keys appear only in handshake mode, keeping the unsecured
            # platform's stats byte-identical.
            stats.update(
                {f"handshakes_{key}": value for key, value in self.handshakes.stats().items()}
            )
        return stats
