"""Auction service offered by marketplaces.

The marketplace "provide[s] kinds of trading services such as: information
query, negotiations, and auctions" (§3.2).  The implementation is an English
(ascending) auction run to completion during the mobile buyer agent's visit:
the MBA bids on behalf of the consumer up to the consumer's maximum price
against a field of synthetic competing bidders drawn deterministically from
the marketplace's seeded RNG.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import AuctionError
from repro.core.items import Item

__all__ = ["Bid", "Auction", "AuctionResult", "AuctionHouse"]


@dataclass(frozen=True)
class Bid:
    """One bid in an auction."""

    bidder: str
    amount: float
    round_number: int

    def __post_init__(self) -> None:
        if self.amount <= 0:
            raise AuctionError(f"bid amount must be positive, got {self.amount}")


@dataclass(frozen=True)
class AuctionResult:
    """Outcome of a completed auction."""

    auction_id: str
    item_id: str
    winner: Optional[str]
    winning_bid: float
    rounds: int
    bids: int
    reserve_met: bool


class Auction:
    """A single English auction for one item.

    The :class:`AuctionHouse` running it names it from the house's own
    sequence (``auction-<marketplace>-<n>``).
    """

    def __init__(
        self,
        auction_id: str,
        item: Item,
        reserve_price: float,
        starting_price: Optional[float] = None,
        increment: Optional[float] = None,
    ) -> None:
        if reserve_price < 0:
            raise AuctionError("reserve price cannot be negative")
        self.auction_id = auction_id
        self.item = item
        self.reserve_price = reserve_price
        self.starting_price = (
            starting_price if starting_price is not None else max(1.0, item.price * 0.5)
        )
        self.increment = increment if increment is not None else max(1.0, item.price * 0.05)
        self.bids: List[Bid] = []
        self.closed = False
        self.current_round = 0

    @property
    def highest_bid(self) -> Optional[Bid]:
        return self.bids[-1] if self.bids else None

    @property
    def current_price(self) -> float:
        highest = self.highest_bid
        return highest.amount if highest else self.starting_price

    def place_bid(self, bidder: str, amount: float) -> Bid:
        """Place a bid; it must beat the current price by at least the increment."""
        if self.closed:
            raise AuctionError(f"auction {self.auction_id!r} is closed")
        minimum = (
            self.starting_price
            if not self.bids
            else self.current_price + self.increment
        )
        if amount < minimum:
            raise AuctionError(
                f"bid of {amount:.2f} is below the minimum of {minimum:.2f} "
                f"for auction {self.auction_id!r}"
            )
        bid = Bid(bidder=bidder, amount=amount, round_number=self.current_round)
        self.bids.append(bid)
        return bid

    def close(self) -> AuctionResult:
        """Close the auction and determine the winner (if the reserve was met)."""
        if self.closed:
            raise AuctionError(f"auction {self.auction_id!r} is already closed")
        self.closed = True
        highest = self.highest_bid
        reserve_met = highest is not None and highest.amount >= self.reserve_price
        return AuctionResult(
            auction_id=self.auction_id,
            item_id=self.item.item_id,
            winner=highest.bidder if (highest and reserve_met) else None,
            winning_bid=highest.amount if highest else 0.0,
            rounds=self.current_round,
            bids=len(self.bids),
            reserve_met=reserve_met,
        )


class AuctionHouse:
    """Runs auctions for a marketplace, with synthetic competing bidders.

    The house runs whatever auction it is asked to: admitting the bidder
    is the :class:`~repro.ecommerce.marketplace.MarketplaceServer`'s job.
    """

    def __init__(
        self,
        marketplace: str,
        seed: int = 0,
        competitor_count: int = 3,
    ) -> None:
        if competitor_count < 0:
            raise AuctionError("competitor count cannot be negative")
        self.marketplace = marketplace
        self._rng = random.Random(seed)
        self.competitor_count = competitor_count
        self.completed: List[AuctionResult] = []
        self._auction_seq = itertools.count(1)

    def _competitor_limits(self, item: Item) -> List[float]:
        """Maximum prices the synthetic competitors are willing to pay.

        Each competitor's limit is drawn around the list price (70%-115%), so
        a consumer bidding meaningfully above list price usually wins, while a
        lowball maximum usually loses — the behaviour the auction workflow
        benchmark (Figure 4.3) measures.
        """
        return [
            item.price * self._rng.uniform(0.7, 1.15)
            for _ in range(self.competitor_count)
        ]

    def run_auction(
        self,
        item: Item,
        bidder: str,
        max_price: float,
        reserve_price: Optional[float] = None,
        max_rounds: int = 50,
    ) -> AuctionResult:
        """Run one English auction to completion.

        Args:
            item: the merchandise being auctioned.
            bidder: the consumer's MBA identity.
            max_price: the most the consumer is willing to pay.
            reserve_price: seller's reserve; defaults to 70% of list price.
            max_rounds: safety bound on bidding rounds.
        """
        if max_price <= 0:
            raise AuctionError("the consumer's maximum price must be positive")
        reserve = reserve_price if reserve_price is not None else item.price * 0.7
        auction_id = f"auction-{self.marketplace}-{next(self._auction_seq)}"
        auction = Auction(auction_id, item, reserve_price=reserve)
        competitor_limits = self._competitor_limits(item)

        for round_number in range(1, max_rounds + 1):
            auction.current_round = round_number
            someone_bid = False

            # The consumer's agent bids first if it is not already winning.
            highest = auction.highest_bid
            consumer_winning = highest is not None and highest.bidder == bidder
            if not consumer_winning:
                needed = (
                    auction.starting_price
                    if not auction.bids
                    else auction.current_price + auction.increment
                )
                if needed <= max_price:
                    auction.place_bid(bidder, needed)
                    someone_bid = True

            # Each competitor bids if it can afford to and is not winning.
            for index, limit in enumerate(competitor_limits):
                name = f"{self.marketplace}-bidder-{index + 1}"
                highest = auction.highest_bid
                if highest is not None and highest.bidder == name:
                    continue
                needed = (
                    auction.starting_price
                    if not auction.bids
                    else auction.current_price + auction.increment
                )
                if needed <= limit:
                    auction.place_bid(name, needed)
                    someone_bid = True

            if not someone_bid:
                break

        result = auction.close()
        self.completed.append(result)
        return result
