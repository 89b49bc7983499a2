"""Consumer behaviour records and the observational ratings store.

The paper's mechanism uses *observational* ratings: "the system infers user
preferences from actions rather than requiring the user to explicitly rate an
item" (§2.3).  The BRA records every merchandise query, negotiation, auction
bid and purchase; the PA turns them into profile updates; the collaborative
filtering recommender additionally needs them as a user × item preference
matrix.  :class:`RatingsStore` is that matrix, fed by :class:`Interaction`
records with per-behaviour implicit weights.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.errors import RecommendationError

__all__ = ["InteractionKind", "Interaction", "RatingsStore", "IMPLICIT_WEIGHTS"]


class InteractionKind(enum.Enum):
    """The consumer behaviours the BRA records (§3.3-2)."""

    QUERY = "query"
    VIEW = "view"
    NEGOTIATE = "negotiate"
    AUCTION_BID = "auction-bid"
    BUY = "buy"
    RATE = "rate"


#: Implicit preference weight of each behaviour.  A purchase is the strongest
#: signal, a query the weakest; explicit ratings carry their own value.
IMPLICIT_WEIGHTS: Dict[InteractionKind, float] = {
    InteractionKind.QUERY: 1.0,
    InteractionKind.VIEW: 1.5,
    InteractionKind.NEGOTIATE: 2.5,
    InteractionKind.AUCTION_BID: 3.0,
    InteractionKind.BUY: 5.0,
    InteractionKind.RATE: 0.0,  # replaced by the explicit value
}


@dataclass(frozen=True)
class Interaction:
    """One observed consumer behaviour."""

    user_id: str
    item_id: str
    kind: InteractionKind
    timestamp: float = 0.0
    value: float = 0.0
    category: str = ""
    marketplace: str = ""

    def implicit_value(self) -> float:
        """The preference weight this behaviour contributes."""
        if self.kind is InteractionKind.RATE:
            return self.value
        return IMPLICIT_WEIGHTS[self.kind]


class RatingsStore:
    """Accumulated user × item preference values built from interactions.

    The store keeps, per (user, item), the accumulated implicit value, plus
    per-item aggregate statistics used by the popularity and cross-sell
    recommenders; a (user, item) pair's latest timestamp is read back from
    the user's interactions (:meth:`last_interaction_at`).

    Everything a consumer owns is held **per consumer**: the interactions in
    arrival order (``_interactions[user_id]`` — the only copy; there is no
    store-wide list), the purchases among them and the item → value vector.
    :meth:`interactions_of` — read per recommendation request, per moved
    consumer by ``UserDB.adopt`` and per re-dumped consumer by the
    replication snapshot — and :meth:`remove_user` therefore cost the
    consumer's own history, not the store's.  Arrival order is kept *within*
    a consumer, which is all any reader depends on: the aggregates are
    counts, and their consumers sort with full tie-breaks.
    """

    def __init__(self, max_value: float = 10.0) -> None:
        if max_value <= 0:
            raise RecommendationError("max_value must be positive")
        self.max_value = max_value
        self._values: Dict[str, Dict[str, float]] = {}
        # user -> interactions in arrival order; same key set as _values.
        self._interactions: Dict[str, List[Interaction]] = {}
        self._interaction_count = 0
        self._item_users: Dict[str, Set[str]] = {}
        self._purchases: Dict[str, int] = {}
        # user -> that user's BUY interactions (only users who bought).
        self._purchase_log: Dict[str, List[Interaction]] = {}
        self._revision = 0

    # -- ingestion -----------------------------------------------------------

    def add(self, interaction: Interaction) -> float:
        """Record one interaction; return the user's new value for the item."""
        if not interaction.user_id or not interaction.item_id:
            raise RecommendationError("interaction must name both a user and an item")
        user_values = self._values.setdefault(interaction.user_id, {})
        current = user_values.get(interaction.item_id, 0.0)
        updated = min(self.max_value, current + interaction.implicit_value())
        user_values[interaction.item_id] = updated
        self._interactions.setdefault(interaction.user_id, []).append(interaction)
        self._interaction_count += 1
        self._item_users.setdefault(interaction.item_id, set()).add(interaction.user_id)
        if interaction.kind is InteractionKind.BUY:
            self._purchases[interaction.item_id] = self._purchases.get(interaction.item_id, 0) + 1
            self._purchase_log.setdefault(interaction.user_id, []).append(interaction)
        self._revision += 1
        return updated

    def remove_user(self, user_id: str) -> int:
        """Forget a user's interactions entirely; return how many were dropped.

        Used when a consumer is handed over to another buyer agent server:
        the source store must not keep scoring the departed consumer as a
        collaborative neighbour (or double-count them if they ever return).
        Unknown users are a no-op returning 0.
        """
        removed = self._interactions.pop(user_id, None)
        if removed is None:
            return 0
        self._interaction_count -= len(removed)
        for item_id in self._values.pop(user_id):
            users = self._item_users[item_id]
            users.discard(user_id)
            if not users:
                del self._item_users[item_id]
        for purchase in self._purchase_log.pop(user_id, ()):
            remaining = self._purchases[purchase.item_id] - 1
            if remaining > 0:
                self._purchases[purchase.item_id] = remaining
            else:
                del self._purchases[purchase.item_id]
        self._revision += 1
        return len(removed)

    def add_all(self, interactions: Iterable[Interaction]) -> int:
        count = 0
        for interaction in interactions:
            self.add(interaction)
            count += 1
        return count

    # -- lookups -------------------------------------------------------------

    @property
    def users(self) -> List[str]:
        return sorted(self._values)

    @property
    def items(self) -> List[str]:
        return sorted(self._item_users)

    @property
    def interaction_count(self) -> int:
        return self._interaction_count

    @property
    def revision(self) -> int:
        """Monotonic change stamp: bumped by every add *and* removal.

        Cache owners must stamp with this rather than ``interaction_count`` —
        removing K interactions and adding K new ones leaves the count
        unchanged but not the content.
        """
        return self._revision

    def value(self, user_id: str, item_id: str) -> float:
        return self._values.get(user_id, {}).get(item_id, 0.0)

    def user_vector(self, user_id: str) -> Dict[str, float]:
        """The user's item→value vector (a copy)."""
        return dict(self._values.get(user_id, {}))

    def items_of(self, user_id: str) -> List[str]:
        return sorted(self._values.get(user_id, {}))

    def users_of(self, item_id: str) -> List[str]:
        return sorted(self._item_users.get(item_id, set()))

    def has_user(self, user_id: str) -> bool:
        return user_id in self._values

    def last_interaction_at(self, user_id: str, item_id: str) -> Optional[float]:
        """The timestamp of the user's latest-arrived interaction with the
        item (None when there is none): a scan of their own history."""
        for interaction in reversed(self._interactions.get(user_id, ())):
            if interaction.item_id == item_id:
                return interaction.timestamp
        return None

    def interactions_of(self, user_id: str) -> List[Interaction]:
        """The user's interactions in arrival order (a copy)."""
        return list(self._interactions.get(user_id, ()))

    def interaction_lists(self) -> Mapping[str, List[Interaction]]:
        """The live user → interactions-in-arrival-order mapping, for a reader
        that compares without copying: do not mutate.  Everything else the
        store holds is derived from it.  A list is only ever appended to, and
        :meth:`remove_user` drops it whole without touching it, so a held
        ``(list, len(list))`` pins what that list contained."""
        return self._interactions

    # -- aggregates ----------------------------------------------------------

    def purchase_count(self, item_id: str) -> int:
        return self._purchases.get(item_id, 0)

    def purchases(self) -> Dict[str, int]:
        return dict(self._purchases)

    def purchases_between(self, start: float, end: float) -> Dict[str, int]:
        """Purchase counts restricted to a simulated-time window."""
        window: Dict[str, int] = {}
        for records in self._purchase_log.values():
            for record in records:
                if start <= record.timestamp <= end:
                    window[record.item_id] = window.get(record.item_id, 0) + 1
        return window

    def co_purchases(self) -> Dict[Tuple[str, str], int]:
        """Counts of item pairs bought by the same user (for cross-selling)."""
        pairs: Dict[Tuple[str, str], int] = {}
        for records in self._purchase_log.values():
            ordered = sorted({record.item_id for record in records})
            for index, first in enumerate(ordered):
                for second in ordered[index + 1:]:
                    pairs[(first, second)] = pairs.get((first, second), 0) + 1
        return pairs

    def density(self) -> float:
        """Fraction of the user × item matrix that is filled."""
        if not self._values or not self._item_users:
            return 0.0
        filled = sum(len(vector) for vector in self._values.values())
        return filled / float(len(self._values) * len(self._item_users))

    def sparsity(self) -> float:
        """1 - density; the "sparsity problem" knob from §2.3."""
        return 1.0 - self.density()
