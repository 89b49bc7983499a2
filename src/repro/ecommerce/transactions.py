"""Transaction records produced by purchases, auctions and negotiations.

UserDB "records the consumer user profile and consumer transaction records"
(§3.3); every completed trade on a marketplace comes back to the buyer agent
server as a :class:`TransactionRecord` and is stored there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import TransactionError
from repro.wire import WireValue

__all__ = ["TransactionKind", "TransactionRecord"]


class TransactionKind(enum.Enum):
    """How the trade was concluded."""

    DIRECT_PURCHASE = "direct-purchase"
    AUCTION_WIN = "auction-win"
    NEGOTIATED_PURCHASE = "negotiated-purchase"


@dataclass(frozen=True)
class TransactionRecord(WireValue):
    """One completed trade between a consumer and a marketplace.

    The marketplace that records the trade mints ``transaction_id`` from
    its own sequence (``txn-<marketplace>-<n>``).
    """

    transaction_id: str
    user_id: str
    item_id: str
    marketplace: str
    kind: TransactionKind
    price: float
    list_price: float
    timestamp: float
    seller: str = ""

    def __post_init__(self) -> None:
        if self.price < 0 or self.list_price < 0:
            raise TransactionError(
                f"transaction {self.transaction_id!r} has a negative price"
            )
