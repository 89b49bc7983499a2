"""Versioned typed request and result payloads for the gateway API.

One frozen request dataclass per client operation, each carrying:

- ``api_version`` — defaults to :data:`~repro.api.envelope.API_VERSION`;
  the gateway refuses unknown versions with a ``failed`` envelope (code
  ``unsupported-version``) instead of guessing at future semantics;
- ``deadline_ms`` — an optional per-request simulated-time budget that
  overrides the platform-wide ``PlatformConfig.api_deadline_ms`` default;
- the operation's own parameters, which the gateway forwards as the
  payload of one HttpA message.

The ``operation`` ClassVar is the stable wire name used for dispatch,
metrics (``api.requests.<operation>``) and the envelope's ``operation``
field.  ``retry_safe`` declares the operation idempotent for the retry
middleware: reads, lookups and the session lifecycle may be transparently
re-executed after an infrastructure failure, while the trade/rating writes
(``buy``, ``join_auction``, ``negotiate``, ``rate``) must not be — a reply
lost *after* the marketplace applied the trade would otherwise be bought
twice.  Non-retry-safe requests are still retried on the gateway's own
pre-dispatch routing failures (dead owner, fleet down), where provably no
work has happened yet.  Result payloads are small typed wrappers over the existing domain
objects (:class:`~repro.core.items.Item`,
:class:`~repro.core.recommender.Recommendation`,
:class:`~repro.ecommerce.transactions.TransactionRecord`), exactly as the
buyer agents put them in their replies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Optional, Tuple

from repro.core.items import Item
from repro.core.recommender import Recommendation
from repro.ecommerce.transactions import TransactionRecord
from repro.api.envelope import API_VERSION

__all__ = [
    "RegisterRequest",
    "LoginRequest",
    "LogoutRequest",
    "QueryRequest",
    "BuyRequest",
    "AuctionRequest",
    "NegotiateRequest",
    "RateRequest",
    "RecommendationsRequest",
    "WeeklyHottestRequest",
    "CrossSellRequest",
    "FindSimilarRequest",
    "AdminStatsRequest",
    "HandshakeRequest",
    "HandshakeResult",
    "RegistrationResult",
    "LoginResult",
    "LogoutResult",
    "QueryResult",
    "QueryHits",
    "TradeOutcome",
    "RatingResult",
    "RecommendationList",
    "SimilarConsumers",
    "PlatformStats",
]


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegisterRequest:
    operation: ClassVar[str] = "register"
    retry_safe: ClassVar[bool] = True
    user_id: str
    display_name: str = ""
    deadline_ms: Optional[float] = None
    api_version: str = API_VERSION


@dataclass(frozen=True)
class LoginRequest:
    operation: ClassVar[str] = "login"
    retry_safe: ClassVar[bool] = True
    user_id: str
    #: Register an unknown consumer before logging them in.
    register: bool = True
    deadline_ms: Optional[float] = None
    api_version: str = API_VERSION


@dataclass(frozen=True)
class LogoutRequest:
    operation: ClassVar[str] = "logout"
    retry_safe: ClassVar[bool] = True
    user_id: str
    deadline_ms: Optional[float] = None
    api_version: str = API_VERSION


@dataclass(frozen=True)
class QueryRequest:
    operation: ClassVar[str] = "query"
    retry_safe: ClassVar[bool] = True
    user_id: str
    keyword: str
    category: Optional[str] = None
    marketplaces: Optional[Tuple[str, ...]] = None
    deadline_ms: Optional[float] = None
    api_version: str = API_VERSION


@dataclass(frozen=True)
class BuyRequest:
    operation: ClassVar[str] = "buy"
    retry_safe: ClassVar[bool] = False
    user_id: str
    item: Item
    marketplace: Optional[str] = None
    deadline_ms: Optional[float] = None
    api_version: str = API_VERSION


@dataclass(frozen=True)
class AuctionRequest:
    operation: ClassVar[str] = "join_auction"
    retry_safe: ClassVar[bool] = False
    user_id: str
    item: Item
    max_price: float
    marketplace: Optional[str] = None
    deadline_ms: Optional[float] = None
    api_version: str = API_VERSION


@dataclass(frozen=True)
class NegotiateRequest:
    operation: ClassVar[str] = "negotiate"
    retry_safe: ClassVar[bool] = False
    user_id: str
    item: Item
    max_price: float
    marketplace: Optional[str] = None
    deadline_ms: Optional[float] = None
    api_version: str = API_VERSION


@dataclass(frozen=True)
class RateRequest:
    operation: ClassVar[str] = "rate"
    retry_safe: ClassVar[bool] = False
    user_id: str
    item: Item
    rating: float
    deadline_ms: Optional[float] = None
    api_version: str = API_VERSION


@dataclass(frozen=True)
class RecommendationsRequest:
    operation: ClassVar[str] = "recommendations"
    retry_safe: ClassVar[bool] = True
    user_id: str
    k: int = 10
    category: Optional[str] = None
    deadline_ms: Optional[float] = None
    api_version: str = API_VERSION


@dataclass(frozen=True)
class WeeklyHottestRequest:
    operation: ClassVar[str] = "weekly_hottest"
    retry_safe: ClassVar[bool] = True
    user_id: str
    k: int = 10
    category: Optional[str] = None
    deadline_ms: Optional[float] = None
    api_version: str = API_VERSION


@dataclass(frozen=True)
class CrossSellRequest:
    operation: ClassVar[str] = "cross_sell"
    retry_safe: ClassVar[bool] = True
    user_id: str
    k: int = 5
    category: Optional[str] = None
    basket: Optional[Tuple[str, ...]] = None
    deadline_ms: Optional[float] = None
    api_version: str = API_VERSION


@dataclass(frozen=True)
class FindSimilarRequest:
    operation: ClassVar[str] = "find_similar"
    retry_safe: ClassVar[bool] = True
    user_id: str
    category: Optional[str] = None
    deadline_ms: Optional[float] = None
    api_version: str = API_VERSION


@dataclass(frozen=True)
class AdminStatsRequest:
    operation: ClassVar[str] = "admin_stats"
    retry_safe: ClassVar[bool] = True
    deadline_ms: Optional[float] = None
    api_version: str = API_VERSION


@dataclass(frozen=True)
class HandshakeRequest:
    """Run the trade-handshake protocol against a marketplace broker.

    The probe surface of the adversarial subsystem: with ``tamper=None``
    it performs the honest init → nonce echo → finalize flow and returns
    a :class:`HandshakeResult`; with one of the
    :data:`~repro.adversarial.handshake.TAMPER_MODES` it deliberately
    violates the protocol in exactly that way, and the envelope carries
    the typed rejection (``forged-nonce``, ``replayed-offer``,
    ``double-finalize``, ``stale-credential``).  Requires a platform
    built with ``handshake_trades``; like the trade writes it is not
    retry-safe (a handshake consumes nonces server-side).
    """

    operation: ClassVar[str] = "handshake"
    retry_safe: ClassVar[bool] = False
    user_id: str
    marketplace: Optional[str] = None
    tamper: Optional[str] = None
    deadline_ms: Optional[float] = None
    api_version: str = API_VERSION


# ---------------------------------------------------------------------------
# Result payloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegistrationResult:
    user_id: str
    server: str


@dataclass(frozen=True)
class LoginResult:
    user_id: str
    bra_id: str
    server: str


@dataclass(frozen=True)
class LogoutResult:
    user_id: str


@dataclass(frozen=True)
class QueryResult:
    """One merchandise search hit returned to the consumer."""

    item: Item
    price: float
    marketplace: str
    stock: int

    @property
    def item_id(self) -> str:
        return self.item.item_id


@dataclass(frozen=True)
class QueryHits:
    """Figure 4.2 query results plus the recommendations generated alongside."""

    hits: Tuple[QueryResult, ...]
    recommendations: Tuple[Recommendation, ...] = ()

    def __len__(self) -> int:
        return len(self.hits)


@dataclass(frozen=True)
class TradeOutcome:
    """Figure 4.3 buy / auction / negotiation outcome.

    ``succeeded`` is a *domain* outcome (a lost auction is a successful API
    call whose trade failed); envelope-level failure is reported through the
    envelope's status/error instead.
    """

    succeeded: bool
    transaction: Optional[TransactionRecord]
    outcome: Dict[str, Any] = field(default_factory=dict)
    recommendations: Tuple[Recommendation, ...] = ()

    @property
    def price_paid(self) -> Optional[float]:
        return self.transaction.price if self.transaction else None


@dataclass(frozen=True)
class RatingResult:
    user_id: str
    item_id: str
    rating: float


@dataclass(frozen=True)
class RecommendationList:
    recommendations: Tuple[Recommendation, ...] = ()

    def __len__(self) -> int:
        return len(self.recommendations)


@dataclass(frozen=True)
class SimilarConsumers:
    """Fleet-wide (or single-server) similar-consumer ranking."""

    neighbors: Tuple[Tuple[str, float], ...] = ()

    def __len__(self) -> int:
        return len(self.neighbors)


@dataclass(frozen=True)
class HandshakeResult:
    """A finalized handshake: the transcript's identifying facts."""

    handshake_id: str
    marketplace: str
    buyer: str
    verified: bool = True


@dataclass(frozen=True)
class PlatformStats:
    stats: Dict[str, Any] = field(default_factory=dict)
