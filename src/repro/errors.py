"""Exception hierarchy shared across the repro packages.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class at the public API boundary.  The hierarchy
mirrors the subsystems: platform errors (simulation substrate), agent errors
(Aglet runtime), e-commerce errors (servers and trading protocols) and
recommendation errors (profiles, similarity, engines).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


# ---------------------------------------------------------------------------
# Platform / simulation substrate
# ---------------------------------------------------------------------------


class PlatformError(ReproError):
    """Base class for errors in the simulated platform layer."""


class ClockError(PlatformError):
    """Raised when the simulation clock is driven backwards or misused."""


class NetworkError(PlatformError):
    """Raised when a network transfer cannot be completed."""


class HostUnreachableError(NetworkError):
    """Raised when the destination host is unknown, down or partitioned."""


class LinkDownError(NetworkError):
    """Raised when the link between two hosts has been administratively cut."""


class TransferDroppedError(NetworkError):
    """Raised when a transfer is dropped by the loss model."""


class EventEvictedError(PlatformError):
    """Raised when a read needs a row the event log's ring has overwritten."""


class HostError(PlatformError):
    """Raised for invalid host operations (double start, crash while down...)."""


# ---------------------------------------------------------------------------
# Agent runtime
# ---------------------------------------------------------------------------


class AgentError(ReproError):
    """Base class for errors in the Aglet-style agent runtime."""


class AgentLifecycleError(AgentError):
    """Raised when an operation is illegal for the agent's current state."""


class AgentNotFoundError(AgentError):
    """Raised when an agent id cannot be resolved in a context or directory."""


class DispatchError(AgentError):
    """Raised when an agent cannot be dispatched to the requested host."""


class MessageDeliveryError(AgentError):
    """Raised when a message cannot be delivered to its destination agent."""


class SerializationError(AgentError):
    """Raised when agent state cannot be captured or restored for migration."""


class AuthenticationError(AgentError):
    """Raised when a returning mobile agent fails authentication (§4.1-2)."""


# ---------------------------------------------------------------------------
# E-commerce platform
# ---------------------------------------------------------------------------


class ECommerceError(ReproError):
    """Base class for errors raised by the e-commerce platform layer."""


class RegistrationError(ECommerceError):
    """Raised when a server cannot register with the coordinator (Fig. 4.1)."""


class UnknownUserError(ECommerceError):
    """Raised when an operation references a consumer that never registered."""


class LoginError(ECommerceError):
    """Raised for login/logout protocol violations (duplicate login, bad password)."""


class CatalogError(ECommerceError):
    """Raised for invalid catalogue operations (unknown item, bad price)."""


class MarketplaceError(ECommerceError):
    """Raised when a marketplace cannot satisfy a trading request."""


class AuctionError(MarketplaceError):
    """Raised for invalid auction operations (bid below reserve, closed auction)."""


class NegotiationError(MarketplaceError):
    """Raised when a negotiation protocol step is invalid."""


class HandshakeError(MarketplaceError):
    """Raised when a trade handshake violates the protocol (§4.1 hardening).

    Base class for the typed rejections of the handshake-secured trade
    path: every negotiated/auctioned purchase on a marketplace built with
    ``handshake_trades`` must present a verifiable handshake transcript
    (init → nonce challenge → HMAC echo → finalize), and each way the
    protocol can be abused gets its own subclass so the gateway's
    envelope taxonomy can name it.
    """


class ForgedNonceError(HandshakeError):
    """Raised when a handshake echo does not answer the issued nonce.

    Covers both a fabricated nonce (the attacker invented one instead of
    echoing the challenge) and a bad HMAC response (the attacker does not
    hold the credential's session key).
    """


class ReplayedOfferError(HandshakeError):
    """Raised when an already-consumed nonce or transcript is presented again.

    A nonce answers exactly one challenge and a finalized transcript
    entitles its holder to exactly one trade; replaying either is how a
    captured offer would be resubmitted.
    """


class DoubleFinalizeError(HandshakeError):
    """Raised when a handshake is finalized a second time (single-finalize rule)."""


class StaleCredentialError(HandshakeError):
    """Raised when a handshake is opened with an expired or revoked credential."""


class TransactionError(ECommerceError):
    """Raised when a purchase cannot be completed (no stock, no funds)."""


class SessionError(ECommerceError):
    """Raised when a consumer session is used after logout or before login."""


class ReplicationError(ECommerceError):
    """Raised when the cross-server replication protocol is misused."""


class FleetUnavailableError(ECommerceError):
    """Raised when no live buyer agent server can take a request.

    Distinguishes "the whole fleet is down" from ordinary e-commerce
    failures: routing a consumer (or draining a failed shard) when every
    shard's owning server is crashed raises this instead of silently
    handing the request to a dead host.
    """


class ShardMapError(ReproError):
    """Raised when the versioned shard map is misused.

    Unknown shard ids, conflicting migrations, commits without a matching
    begin — topology bookkeeping errors, as opposed to a topology that is
    merely degraded (crashed owners raise e-commerce errors instead).
    """


# ---------------------------------------------------------------------------
# Recommendation core
# ---------------------------------------------------------------------------


class RecommendationError(ReproError):
    """Base class for errors in the recommendation core."""


class ProfileError(RecommendationError):
    """Raised for structurally invalid profiles or profile updates."""


class SimilarityError(RecommendationError):
    """Raised when similarity cannot be computed (empty profiles, bad config)."""


class FuturePendingError(ReproError):
    """Raised when an :class:`~repro.api.concurrency.ApiFuture` result is
    read before the session scheduler has resolved it."""


class ApiCallFailedError(ReproError):
    """Raised by :meth:`~repro.api.concurrency.ApiFuture.result` when the
    envelope resolved failed/unavailable/rejected — the futures convention
    (a failed future *raises*; it never silently returns ``None``).

    Carries the envelope's structured :class:`~repro.api.envelope.ApiError`
    as ``.error`` so callers that want the taxonomy can branch on
    ``exc.error.code`` / ``exc.error.kind`` without re-reading the future.
    Callers that prefer envelope inspection over exceptions should read
    ``future.response`` instead.
    """

    def __init__(self, message: str, error: object = None) -> None:
        super().__init__(message)
        self.error = error


class WorkloadError(ReproError):
    """Raised by the synthetic workload generators for invalid parameters."""
