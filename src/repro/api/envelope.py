"""The gateway's uniform response envelope and structured error taxonomy.

Every client operation — register, login, query, buy, negotiate,
recommendations, find-similar, admin stats — returns the same
:class:`ApiResponse` envelope regardless of which subsystem served it.  The
envelope carries:

- a **status** from a small closed taxonomy (:class:`ApiStatus`):
  ``ok`` (served in full), ``degraded`` (served, but part of the community
  was answered from a stale replica, skipped, or reached only after a
  failover), ``failed`` (a client/semantic error — unknown user, inactive
  session, bad request), ``unavailable`` (the platform could not serve the
  request at all: fleet down, retries exhausted, deadline exceeded) and
  ``rejected`` (shed by admission control before any work happened);
- the typed **result** payload (one of the dataclasses in
  :mod:`repro.api.requests`) on ``ok``/``degraded``, else ``None``;
- a structured :class:`ApiError` mapped from the :mod:`repro.errors`
  hierarchy (:func:`classify_error`), never a raw traceback;
- **simulated-latency timing** (``started_at_ms``/``finished_at_ms`` on the
  platform clock — the gateway itself charges nothing on the happy path, so
  gateway results are byte-identical to direct calls on the same seed);
- **provenance** (:class:`Provenance`): which server answered, per-shard
  fan-out latencies, stale/unreachable shard reporting folded in from
  :class:`~repro.ecommerce.buyer_server.FleetQueryResult`, read-repair and
  failover/retry accounting.

The envelope is deliberately plain-dataclass: ``repr`` of a response is
deterministic for a given seed and request sequence, which is what the
byte-stability tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import (
    AgentError,
    AuctionError,
    AuthenticationError,
    CatalogError,
    ColdStartError,
    DoubleFinalizeError,
    ECommerceError,
    FleetUnavailableError,
    ForgedNonceError,
    HandshakeError,
    HostUnreachableError,
    LinkDownError,
    LoginError,
    MarketplaceError,
    MessageDeliveryError,
    MessageTimeoutError,
    NegotiationError,
    ReplayedOfferError,
    StaleCredentialError,
    NetworkError,
    PlatformError,
    RecommendationError,
    RegistrationError,
    ReplicationError,
    ReproError,
    SessionError,
    TransactionError,
    TransferDroppedError,
    UnknownUserError,
)

__all__ = [
    "API_VERSION",
    "SUPPORTED_VERSIONS",
    "AUTH_REJECTION_CODES",
    "KNOWN_ERROR_CODES",
    "ApiStatus",
    "ApiError",
    "Provenance",
    "ApiResponse",
    "classify_error",
]

#: The current (and only) gateway protocol version.  Requests default to it;
#: the gateway refuses versions outside :data:`SUPPORTED_VERSIONS` with a
#: ``failed`` envelope rather than guessing at unknown semantics.
API_VERSION = "v1"
SUPPORTED_VERSIONS = (API_VERSION,)


class ApiStatus:
    """The closed status taxonomy every envelope draws from."""

    OK = "ok"
    DEGRADED = "degraded"
    FAILED = "failed"
    UNAVAILABLE = "unavailable"
    REJECTED = "rejected"

    ALL = (OK, DEGRADED, FAILED, UNAVAILABLE, REJECTED)


@dataclass(frozen=True)
class ApiError:
    """A structured error: stable code, source exception kind, retryability.

    ``code`` is the stable machine-readable identifier clients branch on;
    ``kind`` names the :mod:`repro.errors` class it was mapped from;
    ``retryable`` tells the retry middleware (and clients) whether the same
    request may succeed on another attempt — true for infrastructure
    failures (network, dead hosts, fleet routing), false for semantic
    errors (unknown user, inactive session, bad request).
    """

    code: str
    kind: str
    message: str
    retryable: bool = False


#: Ordered (exception type → code/retryable) mapping.  First match wins, so
#: subclasses must appear before their bases.
_ERROR_TAXONOMY = (
    (FleetUnavailableError, "fleet-unavailable", True),
    (UnknownUserError, "unknown-user", False),
    (SessionError, "session", False),
    (LoginError, "login", False),
    (RegistrationError, "registration", False),
    (TransactionError, "transaction", False),
    (ForgedNonceError, "forged-nonce", False),
    (ReplayedOfferError, "replayed-offer", False),
    (DoubleFinalizeError, "double-finalize", False),
    (StaleCredentialError, "stale-credential", False),
    (HandshakeError, "handshake", False),
    (AuctionError, "auction", False),
    (NegotiationError, "negotiation", False),
    (MarketplaceError, "marketplace", False),
    (CatalogError, "catalog", False),
    (ReplicationError, "replication", False),
    (ECommerceError, "ecommerce", False),
    (MessageTimeoutError, "timeout", True),
    (MessageDeliveryError, "delivery", True),
    (AuthenticationError, "authentication", False),
    (AgentError, "agent", False),
    (HostUnreachableError, "host-unreachable", True),
    (LinkDownError, "link-down", True),
    (TransferDroppedError, "transfer-dropped", True),
    (NetworkError, "network", True),
    (PlatformError, "platform", False),
    (ColdStartError, "cold-start", False),
    (RecommendationError, "recommendation", False),
    (ReproError, "internal", False),
)


#: Every error code an envelope can legally carry: the taxonomy above, the
#: catch-all, the gateway's request-validation refusals and the middleware
#: chain's own codes.  The invariant auditor checks observed envelopes
#: against this set (the "closed taxonomy" invariant).
KNOWN_ERROR_CODES = frozenset(code for _, code, _ in _ERROR_TAXONOMY) | {
    "internal",
    "unknown-operation",
    "unsupported-version",
    "admission-rejected",
    "deadline-exceeded",
}

#: The authentication/handshake family of error codes.  The gateway bumps an
#: ``api.auth.rejected.<code>`` counter whenever a dispatch fails with one of
#: these, so an adversarial run can prove (from metrics alone) that protocol
#: attacks were refused rather than silently absorbed.
AUTH_REJECTION_CODES = frozenset(
    {
        "authentication",
        "handshake",
        "forged-nonce",
        "replayed-offer",
        "double-finalize",
        "stale-credential",
    }
)


def classify_error(exc: BaseException) -> ApiError:
    """Map any library exception onto the structured error taxonomy.

    Unrecognised exceptions (which should not escape the library) map to the
    catch-all ``internal`` code so the envelope contract — a structured
    error, never a raw traceback — holds unconditionally.
    """
    for exc_type, code, retryable in _ERROR_TAXONOMY:
        if isinstance(exc, exc_type):
            return ApiError(
                code=code,
                kind=type(exc).__name__,
                message=str(exc),
                retryable=retryable,
            )
    return ApiError(
        code="internal", kind=type(exc).__name__, message=str(exc), retryable=False
    )


@dataclass
class Provenance:
    """Where (and how honestly) an answer came from.

    Folds in the fan-out accounting of
    :class:`~repro.ecommerce.buyer_server.FleetQueryResult` — per-shard
    latencies, shards answered from stale replicas (name → lag),
    unreachable shards, read-repaired shards — plus the middleware chain's
    own retry/failover bookkeeping.
    """

    served_by: Optional[str] = None
    shard_latencies_ms: Dict[str, float] = field(default_factory=dict)
    stale_shards: Dict[str, int] = field(default_factory=dict)
    unreachable_shards: Tuple[str, ...] = ()
    repaired_shards: Tuple[str, ...] = ()
    #: Shards a tail-latency hedge was launched against (fleet hedged
    #: fan-out); a hedge that also *won* — the replica's answer came back
    #: before the slow primary's would have — appears in
    #: ``hedge_won_shards`` too.  Hedging never marks an answer degraded by
    #: itself: a winning hedge from an up-to-date replica is exact, and a
    #: lagging one is already reported through ``stale_shards``.
    hedged_shards: Tuple[str, ...] = ()
    hedge_won_shards: Tuple[str, ...] = ()
    retries: int = 0
    failed_over: bool = False

    @property
    def degraded(self) -> bool:
        """True when any part of the answer was stale, missing or failed over."""
        return bool(self.stale_shards or self.unreachable_shards or self.failed_over)

    @property
    def repaired(self) -> bool:
        """True when a stale answer triggered a successful read-repair catch-up."""
        return bool(self.repaired_shards)


@dataclass
class ApiResponse:
    """The uniform envelope every gateway operation returns.

    ``ok`` is true for ``ok`` *and* ``degraded`` — a degraded answer is
    still an answer (correct for the reachable community); callers that need
    full-fidelity data check :attr:`status` or :attr:`Provenance.degraded`
    explicitly.  ``result`` is one of the typed payload dataclasses from
    :mod:`repro.api.requests`; ``error`` is set exactly when ``ok`` is
    false.  Timing is simulated milliseconds on the platform clock.
    """

    operation: str = ""
    status: str = ApiStatus.OK
    api_version: str = API_VERSION
    request_id: int = 0
    result: Any = None
    error: Optional[ApiError] = None
    provenance: Provenance = field(default_factory=Provenance)
    started_at_ms: float = 0.0
    finished_at_ms: float = 0.0

    @property
    def latency_ms(self) -> float:
        """Simulated time the operation took (including retries and backoff)."""
        return self.finished_at_ms - self.started_at_ms

    @property
    def ok(self) -> bool:
        return self.status in (ApiStatus.OK, ApiStatus.DEGRADED)

    @property
    def failed(self) -> bool:
        return not self.ok

    def describe(self) -> str:
        """One human-readable line, used by the examples."""
        base = f"[{self.status}] {self.operation} ({self.latency_ms:.2f} ms)"
        if self.error is not None:
            base += f" error={self.error.code}: {self.error.message}"
        if self.provenance.served_by:
            base += f" served_by={self.provenance.served_by}"
        if self.provenance.degraded:
            base += (
                f" degraded(stale={list(self.provenance.stale_shards)}, "
                f"unreachable={list(self.provenance.unreachable_shards)}, "
                f"failed_over={self.provenance.failed_over})"
            )
        return base
