"""Transaction records produced by purchases, auctions and negotiations.

UserDB "records the consumer user profile and consumer transaction records"
(§3.3); every completed trade on a marketplace comes back to the buyer agent
server as a :class:`TransactionRecord` and is stored there.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import TransactionError
from repro.wire import WireValue

__all__ = ["TransactionKind", "TransactionRecord"]

_transaction_ids = itertools.count(1)


class TransactionKind(enum.Enum):
    """How the trade was concluded."""

    DIRECT_PURCHASE = "direct-purchase"
    AUCTION_WIN = "auction-win"
    NEGOTIATED_PURCHASE = "negotiated-purchase"


@dataclass(frozen=True)
class TransactionRecord(WireValue):
    """One completed trade between a consumer and a marketplace."""

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

    @classmethod
    def create(
        cls,
        user_id: str,
        item_id: str,
        marketplace: str,
        kind: TransactionKind,
        price: float,
        list_price: float,
        timestamp: float,
        seller: str = "",
        transaction_id: Optional[str] = None,
    ) -> "TransactionRecord":
        """Build a record, minting a process-global id when none is given.

        Callers that need *run-deterministic* ids (two same-seed platforms in
        one process must produce identical records — replication payload
        sizes, and therefore simulated clocks, depend on them) should pass
        their own ``transaction_id``; the marketplaces mint
        ``txn-<marketplace>-<n>`` from a per-marketplace sequence.
        """
        return cls(
            transaction_id=transaction_id or f"txn-{next(_transaction_ids)}",
            user_id=user_id,
            item_id=item_id,
            marketplace=marketplace,
            kind=kind,
            price=price,
            list_price=list_price,
            timestamp=timestamp,
            seller=seller,
        )

    @property
    def savings(self) -> float:
        """How much below list price the consumer paid (never negative)."""
        return max(0.0, self.list_price - self.price)

    def to_dict(self) -> Dict[str, object]:
        return {
            "transaction_id": self.transaction_id,
            "user_id": self.user_id,
            "item_id": self.item_id,
            "marketplace": self.marketplace,
            "kind": self.kind.value,
            "price": self.price,
            "list_price": self.list_price,
            "timestamp": self.timestamp,
            "seller": self.seller,
        }
