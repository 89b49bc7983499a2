"""repro.api — the versioned gateway API over the e-commerce platform.

The single blessed entry point for client operations is
:class:`~repro.api.gateway.PlatformGateway`, obtained from a built platform
via ``build_platform(...).gateway()``.  Every operation returns the uniform
:class:`~repro.api.envelope.ApiResponse` envelope (typed result payload,
status taxonomy, structured error, simulated-latency timing and
shard/replica provenance) after flowing through the middleware chain in
:mod:`repro.api.middleware` (metrics → admission control → deadline →
retry → queueing).  See ``docs/ARCHITECTURE.md`` ("API layer") for envelope
semantics, middleware ordering and the versioning policy.

For overlapping load, ``gateway.submit`` returns an
:class:`~repro.api.concurrency.ApiFuture` and the
:class:`~repro.api.concurrency.SessionScheduler` interleaves thousands of
open sessions by virtual arrival time — see :mod:`repro.api.concurrency`.
"""

from repro.api.concurrency import ApiFuture, ServerQueues, SessionScheduler
from repro.api.envelope import (
    API_VERSION,
    SUPPORTED_VERSIONS,
    ApiError,
    ApiResponse,
    ApiStatus,
    Provenance,
    classify_error,
)
from repro.api.gateway import PlatformGateway
from repro.api.middleware import (
    AdmissionControlMiddleware,
    ApiCall,
    DeadlineMiddleware,
    MetricsMiddleware,
    Middleware,
    QueueingMiddleware,
    RetryMiddleware,
    TokenBucket,
    build_chain,
)
from repro.api.requests import (
    AdminStatsRequest,
    AuctionRequest,
    BuyRequest,
    CrossSellRequest,
    FindSimilarRequest,
    LoginRequest,
    LoginResult,
    LogoutRequest,
    LogoutResult,
    NegotiateRequest,
    PlatformStats,
    QueryHits,
    QueryRequest,
    QueryResult,
    RateRequest,
    RatingResult,
    RecommendationList,
    RecommendationsRequest,
    RegisterRequest,
    RegistrationResult,
    SimilarConsumers,
    TradeOutcome,
    WeeklyHottestRequest,
)

__all__ = [
    "API_VERSION",
    "SUPPORTED_VERSIONS",
    "ApiStatus",
    "ApiError",
    "ApiResponse",
    "Provenance",
    "classify_error",
    "PlatformGateway",
    "ApiFuture",
    "ServerQueues",
    "SessionScheduler",
    "Middleware",
    "MetricsMiddleware",
    "AdmissionControlMiddleware",
    "DeadlineMiddleware",
    "QueueingMiddleware",
    "RetryMiddleware",
    "TokenBucket",
    "ApiCall",
    "build_chain",
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
