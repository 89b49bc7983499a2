"""Bilateral price negotiation (the "negotiations" trading service of §3.2).

The mobile buyer agent bargains on the consumer's behalf: it opens below the
list price and concedes upwards; the seller side (represented by the
marketplace, holding the listing's reserve price) opens at list price and
concedes downwards.  Both sides use a time-dependent concession strategy; the
negotiation succeeds as soon as one side's offer crosses the other's, or fails
after a bounded number of rounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List

from repro.errors import NegotiationError
from repro.core.items import Item

__all__ = ["NegotiationOffer", "NegotiationOutcome", "NegotiationService"]


@dataclass(frozen=True)
class NegotiationOffer:
    """One offer in a negotiation."""

    round_number: int
    party: str  # "buyer" or "seller"
    amount: float


@dataclass(frozen=True)
class NegotiationOutcome:
    """Result of a completed negotiation."""

    negotiation_id: str
    item_id: str
    agreed: bool
    final_price: float
    rounds: int
    offers: tuple

    @property
    def transcript(self) -> List[NegotiationOffer]:
        return list(self.offers)


class NegotiationService:
    """Runs buyer/seller bargaining sessions for a marketplace.

    The service bargains for whoever it is asked to: admitting the buyer
    is the :class:`~repro.ecommerce.marketplace.MarketplaceServer`'s job.
    Sessions are named from the service's own sequence
    (``negotiation-<marketplace>-<n>``).
    """

    def __init__(self, marketplace: str, max_rounds: int = 10) -> None:
        if max_rounds <= 0:
            raise NegotiationError("max_rounds must be positive")
        self.marketplace = marketplace
        self.max_rounds = max_rounds
        self.completed: List[NegotiationOutcome] = []
        self._negotiation_seq = itertools.count(1)

    def negotiate(
        self,
        item: Item,
        buyer_max: float,
        seller_reserve: float,
        buyer_concession: float = 0.15,
        seller_concession: float = 0.10,
    ) -> NegotiationOutcome:
        """Run one bargaining session to completion.

        Args:
            item: the merchandise under negotiation.
            buyer_max: the most the consumer is willing to pay.
            seller_reserve: the least the seller will accept.
            buyer_concession: per-round fractional concession of the buyer
                towards its maximum.
            seller_concession: per-round fractional concession of the seller
                towards its reserve.

        Returns:
            The outcome; ``agreed`` is False when the zone of possible
            agreement was never reached within ``max_rounds``.
        """
        if buyer_max <= 0:
            raise NegotiationError("buyer maximum must be positive")
        if seller_reserve < 0:
            raise NegotiationError("seller reserve cannot be negative")
        if not 0.0 < buyer_concession <= 1.0 or not 0.0 < seller_concession <= 1.0:
            raise NegotiationError("concession rates must be in (0, 1]")

        negotiation_id = f"negotiation-{self.marketplace}-{next(self._negotiation_seq)}"
        offers: List[NegotiationOffer] = []
        buyer_offer = min(buyer_max, item.price * 0.6)
        seller_offer = max(seller_reserve, item.price)
        agreed = False
        final_price = 0.0
        rounds = 0

        for round_number in range(1, self.max_rounds + 1):
            rounds = round_number
            offers.append(NegotiationOffer(round_number, "buyer", round(buyer_offer, 2)))

            # Seller accepts when the buyer's offer reaches its reserve and is
            # at least as good as what the seller would counter with.
            if buyer_offer >= seller_reserve and buyer_offer >= seller_offer:
                agreed = True
                final_price = round(buyer_offer, 2)
                break

            offers.append(NegotiationOffer(round_number, "seller", round(seller_offer, 2)))

            # Buyer accepts when the seller's ask has come down to its budget.
            if seller_offer <= buyer_max:
                agreed = True
                final_price = round(seller_offer, 2)
                break

            # Both concede for the next round.
            buyer_offer = min(buyer_max, buyer_offer + buyer_concession * (buyer_max - buyer_offer))
            seller_offer = max(
                seller_reserve, seller_offer - seller_concession * (seller_offer - seller_reserve)
            )
            # Guard against stalling when concessions become negligible.
            if abs(buyer_max - buyer_offer) < 1e-9 and abs(seller_offer - seller_reserve) < 1e-9:
                if buyer_max >= seller_reserve:
                    agreed = True
                    final_price = round(seller_reserve, 2)
                break

        outcome = NegotiationOutcome(
            negotiation_id=negotiation_id,
            item_id=item.item_id,
            agreed=agreed,
            final_price=final_price,
            rounds=rounds,
            offers=tuple(offers),
        )
        self.completed.append(outcome)
        return outcome
