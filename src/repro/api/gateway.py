"""The platform gateway: one versioned front door for every client operation.

:class:`PlatformGateway` is the blessed public surface of the platform.
Examples, scenario drivers and external callers issue *every* client
operation — register, login, query, buy, negotiate, recommendations,
find-similar, admin stats — through it and receive the uniform
:class:`~repro.api.envelope.ApiResponse` envelope.  It plays the paper's
browser (§3.2): each consumer's requests go to the HttpA agent of the buyer
agent server that owns them, over a connection the gateway opens at login
and closes at logout.

Requests flow through the middleware chain documented in
:mod:`repro.api.middleware` (metrics → admission control → deadline →
retry → queueing → dispatch).  The dispatch maps every library exception
onto the structured error taxonomy — the gateway **never raises** for a
client operation; the worst case is an ``unavailable`` envelope after retry
exhaustion.  On the happy path the gateway charges nothing to the simulated
clock, so gateway results are byte-identical to the direct calls they
replaced on the same seed.

Obtain one from the platform::

    platform = build_platform(seed=7, num_buyer_servers=3, replication_factor=1)
    gateway = platform.gateway()
    gateway.login("alice")
    response = gateway.query("alice", "laptop")
    for hit in response.result.hits:
        ...

For overlapping load, :meth:`PlatformGateway.submit` enqueues a request at
a virtual arrival time and returns an
:class:`~repro.api.concurrency.ApiFuture`; draining
``gateway.sessions.run_until_idle()`` interleaves every open session by
next-event time (see :mod:`repro.api.concurrency`)::

    futures = [gateway.submit(QueryRequest(u, "laptop"), at_ms=t)
               for t, u in arrivals]
    gateway.sessions.run_until_idle()
    statuses = [f.response.status for f in futures]

Admission control, deadlines and retries are configured through the
``PlatformConfig.api_*`` knobs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple, TYPE_CHECKING

from repro.errors import (
    HandshakeError,
    HostUnreachableError,
    MarketplaceError,
    ReproError,
    SessionError,
    UnknownUserError,
)
from repro.agents.messages import MessageKinds
from repro.api.envelope import (
    AUTH_REJECTION_CODES,
    ApiError,
    ApiResponse,
    ApiStatus,
    Provenance,
    SUPPORTED_VERSIONS,
    classify_error,
)
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
    HandshakeRequest,
    HandshakeResult,
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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.concurrency import ApiFuture, SessionScheduler
    from repro.core.items import Item
    from repro.ecommerce.buyer_server import BuyerAgentServer
    from repro.ecommerce.platform_builder import ECommercePlatform

__all__ = ["PlatformGateway", "RoutingUnavailableError"]

#: How many times the retry middleware retries a *retryable* failure, and
#: the first backoff it charges to the simulated clock (doubled per attempt).
MAX_RETRIES = 2
RETRY_BACKOFF_MS = 25.0


class RoutingUnavailableError(HostUnreachableError):
    """The gateway's own pre-dispatch liveness check failed.

    Raised **before** any work is dispatched to a buyer server or
    marketplace, which is what makes it safe for the retry middleware to
    replay even non-idempotent writes on it: no trade can have been applied
    when routing itself refused the request.  A ``HostUnreachableError``
    raised anywhere *else* (a mid-flight network failure) keeps its own
    kind and is never grounds for replaying a write.
    """


class PlatformGateway:
    """Versioned facade over an :class:`~repro.ecommerce.platform_builder.ECommercePlatform`.

    One instance per platform (``platform.gateway()`` caches it); the
    middleware chain and the admission bucket are shared across every
    request, which is what makes load shedding and the metrics meaningful.
    """

    def __init__(self, platform: "ECommercePlatform") -> None:
        self._platform = platform
        config = platform.config
        self._clock = platform.scheduler.clock
        self._metrics = platform.metrics
        self._request_counter = 0

        bucket = (
            TokenBucket(
                capacity=float(config.api_admission_capacity),
                refill_per_ms=config.api_admission_refill_per_ms,
                last_refill_ms=self._clock.now,
            )
            if config.api_admission_capacity > 0
            else None
        )
        self.admission_bucket = bucket
        # Per-class weighted buckets (PlatformConfig.api_admission_classes):
        # classed operations draw from their class's bucket instead of the
        # shared default one, so shedding is no longer blind to what it
        # sheds.  Classes are iterated in sorted name order so bucket
        # construction (and hence the refill anchors) is deterministic.
        self.admission_class_buckets: Dict[str, TokenBucket] = {}
        operation_classes: Dict[str, str] = {}
        class_costs: Dict[str, float] = {}
        if config.api_admission_classes:
            for class_name in sorted(config.api_admission_classes):
                spec = config.api_admission_classes[class_name]
                self.admission_class_buckets[class_name] = TokenBucket(
                    capacity=float(spec["capacity"]),
                    refill_per_ms=float(spec["refill_per_ms"]),
                    last_refill_ms=self._clock.now,
                )
                class_costs[class_name] = float(spec.get("cost", 1.0))
                for operation in spec["operations"]:
                    operation_classes[operation] = class_name
        #: The installed chain, outermost first — see
        #: :mod:`repro.api.middleware` for the ordering rationale.
        self.middlewares: Tuple[Middleware, ...] = (
            MetricsMiddleware(self._metrics, self._clock),
            AdmissionControlMiddleware(
                bucket,
                self._metrics,
                self._clock,
                class_buckets=self.admission_class_buckets,
                operation_classes=operation_classes,
                class_costs=class_costs,
            ),
            DeadlineMiddleware(config.api_deadline_ms, self._metrics, self._clock),
            RetryMiddleware(MAX_RETRIES, RETRY_BACKOFF_MS, self._metrics, self._clock),
            QueueingMiddleware(self._metrics),
        )
        self._handler = build_chain(list(self.middlewares), self._dispatch)
        self._sessions: Optional["SessionScheduler"] = None
        #: Every consumer that has logged in: the server holding their
        #: connection, or None once they have logged out.
        self._connections: Dict[str, Optional["BuyerAgentServer"]] = {}
        self._operations: Dict[type, Callable[[Any], Tuple[Any, Provenance, bool]]] = {
            RegisterRequest: self._op_register,
            LoginRequest: self._op_login,
            LogoutRequest: self._op_logout,
            QueryRequest: self._op_query,
            BuyRequest: self._op_buy,
            AuctionRequest: self._op_join_auction,
            NegotiateRequest: self._op_negotiate,
            RateRequest: self._op_rate,
            RecommendationsRequest: self._op_recommendations,
            WeeklyHottestRequest: self._op_weekly_hottest,
            CrossSellRequest: self._op_cross_sell,
            FindSimilarRequest: self._op_find_similar,
            AdminStatsRequest: self._op_admin_stats,
            HandshakeRequest: self._op_handshake,
        }

    # -- generic execution ----------------------------------------------------

    def execute(self, request: Any) -> ApiResponse:
        """Run any typed request through the middleware chain, synchronously.

        The convenience methods below are thin wrappers that build the
        request dataclass and call this.  Unknown request types and
        unsupported ``api_version`` values return ``failed`` envelopes —
        consistent with the no-raise contract of every other path.
        """
        return self._run(request)

    def submit(
        self, request: Any, at_ms: Optional[float] = None, session_id: str = ""
    ) -> "ApiFuture":
        """Enqueue ``request`` for concurrent execution; returns a future.

        The request arrives at virtual time ``at_ms`` (default: the session
        scheduler's current horizon) and is resolved when
        ``gateway.sessions`` drains — see :mod:`repro.api.concurrency` for
        the virtual-time model.  ``session_id`` is a free-form label
        carried on the future for workload bookkeeping.
        """
        return self.sessions.submit(request, at_ms=at_ms, session_id=session_id)

    @property
    def sessions(self) -> "SessionScheduler":
        """The gateway's session scheduler, created on first use.

        Lazy so the sequential path never constructs (or pays for) the
        concurrency layer — one more guarantee that ``execute``-only runs
        stay byte-identical to pre-concurrency output.
        """
        if self._sessions is None:
            from repro.api.concurrency import SessionScheduler

            self._sessions = SessionScheduler(self)
        return self._sessions

    def _run(
        self, request: Any, clock: Any = None, queues: Any = None
    ) -> ApiResponse:
        """Shared request path for ``execute`` (sequential) and ``submit``.

        ``clock`` is ``None`` sequentially — the call runs on the shared
        platform clock, exactly as before the concurrency layer — or the
        session's :class:`~repro.platform.clock.SessionClock` on the submit
        path, where ``queues`` also enables per-server queueing.
        """
        call_clock = clock if clock is not None else self._clock
        operation = getattr(type(request), "operation", None)
        self._request_counter += 1
        request_id = self._request_counter
        started = call_clock.now
        if operation is None or type(request) not in self._operations:
            operation = operation or "unknown"
            response = self._refuse(
                operation,
                ApiError(
                    code="unknown-operation",
                    kind=type(request).__name__,
                    message=f"{type(request).__name__} is not a gateway request",
                ),
            )
        elif request.api_version not in SUPPORTED_VERSIONS:
            response = self._refuse(
                operation,
                ApiError(
                    code="unsupported-version",
                    kind="ApiVersion",
                    message=(
                        f"api_version {request.api_version!r} is not supported "
                        f"(supported: {', '.join(SUPPORTED_VERSIONS)})"
                    ),
                ),
            )
        else:
            call = ApiCall(
                gateway=self,
                request=request,
                operation=operation,
                request_id=request_id,
                started_at_ms=started,
                clock=clock,
                queues=queues,
            )
            response = self._handler(call)
            response.provenance.retries = call.attempts
            if call.failed_over:
                response.provenance.failed_over = True
        response.operation = operation
        response.request_id = request_id
        response.started_at_ms = started
        response.finished_at_ms = call_clock.now
        return response

    def _refuse(self, operation: str, error: ApiError) -> ApiResponse:
        """A pre-dispatch refusal, still fully accounted in the metrics.

        Refusals never reach the middleware chain (there is no operation to
        dispatch), but "metrics sees everything" is part of the contract —
        a flood of bad-version requests must be visible in ``api.*``.
        Refusals spend no simulated time, so the latency sample is 0.
        """
        self._metrics.counter("api.requests").increment()
        self._metrics.counter(f"api.requests.{operation}").increment()
        self._metrics.counter(f"api.status.{ApiStatus.FAILED}").increment()
        self._metrics.timer("api.latency_ms").record(0.0)
        self._metrics.timer(f"api.latency_ms.{operation}").record(0.0)
        return ApiResponse(status=ApiStatus.FAILED, error=error)

    # -- convenience methods (one per operation) -------------------------------

    def register(self, user_id: str, display_name: str = "", **kwargs) -> ApiResponse:
        return self.execute(RegisterRequest(user_id, display_name, **kwargs))

    def login(self, user_id: str, register: bool = True, **kwargs) -> ApiResponse:
        return self.execute(LoginRequest(user_id, register, **kwargs))

    def logout(self, user_id: str, **kwargs) -> ApiResponse:
        return self.execute(LogoutRequest(user_id, **kwargs))

    def query(
        self,
        user_id: str,
        keyword: str,
        category: Optional[str] = None,
        marketplaces: Optional[Tuple[str, ...]] = None,
        **kwargs,
    ) -> ApiResponse:
        if marketplaces is not None:
            marketplaces = tuple(marketplaces)
        return self.execute(
            QueryRequest(user_id, keyword, category, marketplaces, **kwargs)
        )

    def buy(
        self, user_id: str, item: "Item", marketplace: Optional[str] = None, **kwargs
    ) -> ApiResponse:
        return self.execute(BuyRequest(user_id, item, marketplace, **kwargs))

    def join_auction(
        self,
        user_id: str,
        item: "Item",
        max_price: float,
        marketplace: Optional[str] = None,
        **kwargs,
    ) -> ApiResponse:
        return self.execute(
            AuctionRequest(user_id, item, max_price, marketplace, **kwargs)
        )

    def negotiate(
        self,
        user_id: str,
        item: "Item",
        max_price: float,
        marketplace: Optional[str] = None,
        **kwargs,
    ) -> ApiResponse:
        return self.execute(
            NegotiateRequest(user_id, item, max_price, marketplace, **kwargs)
        )

    def rate(self, user_id: str, item: "Item", rating: float, **kwargs) -> ApiResponse:
        return self.execute(RateRequest(user_id, item, rating, **kwargs))

    def recommendations(
        self, user_id: str, k: int = 10, category: Optional[str] = None, **kwargs
    ) -> ApiResponse:
        return self.execute(RecommendationsRequest(user_id, k, category, **kwargs))

    def weekly_hottest(
        self, user_id: str, k: int = 10, category: Optional[str] = None, **kwargs
    ) -> ApiResponse:
        return self.execute(WeeklyHottestRequest(user_id, k, category, **kwargs))

    def cross_sell(
        self,
        user_id: str,
        k: int = 5,
        category: Optional[str] = None,
        basket: Optional[Tuple[str, ...]] = None,
        **kwargs,
    ) -> ApiResponse:
        if basket is not None:
            basket = tuple(basket)
        return self.execute(CrossSellRequest(user_id, k, category, basket, **kwargs))

    def find_similar(
        self, user_id: str, category: Optional[str] = None, **kwargs
    ) -> ApiResponse:
        return self.execute(FindSimilarRequest(user_id, category, **kwargs))

    def admin_stats(self, **kwargs) -> ApiResponse:
        return self.execute(AdminStatsRequest(**kwargs))

    def handshake(
        self,
        user_id: str,
        marketplace: Optional[str] = None,
        tamper: Optional[str] = None,
        **kwargs,
    ) -> ApiResponse:
        return self.execute(HandshakeRequest(user_id, marketplace, tamper, **kwargs))

    # -- dispatch --------------------------------------------------------------

    def _dispatch(self, call: ApiCall) -> ApiResponse:
        """Terminal handler: run the operation, mapping exceptions to envelopes.

        Retryable errors (network, dead hosts, fleet routing) come back as
        ``unavailable`` so the retry middleware can act on them; semantic
        errors come back as ``failed`` and are final.
        """
        runner = self._operations[type(call.request)]
        try:
            result, provenance, degraded = runner(call.request)
        except Exception as exc:  # noqa: BLE001 - the no-raise contract:
            # ReproError maps onto the taxonomy; anything else (a latent
            # TypeError deep in a workflow) becomes the catch-all
            # ``internal`` error rather than a raw traceback at the client.
            error = classify_error(exc)
            if error.code in AUTH_REJECTION_CODES:
                # Metrics-visible proof that a protocol attack was refused:
                # forged nonces, replays, double-finalizes and stale
                # credentials each bump their own rejection counter.
                self._metrics.counter(f"api.auth.rejected.{error.code}").increment()
            status = ApiStatus.UNAVAILABLE if error.retryable else ApiStatus.FAILED
            return ApiResponse(status=status, error=error)
        status = ApiStatus.DEGRADED if degraded else ApiStatus.OK
        return ApiResponse(status=status, result=result, provenance=provenance)

    # -- connection plumbing ---------------------------------------------------

    def _server_for(self, user_id: str) -> "BuyerAgentServer":
        """The server holding the consumer's live connection, re-homed after a failover.

        A connection opened against a server that has since lost the shard (a
        promotion or hand-off moved it) is transparently re-opened on the
        current owner; a logged-out consumer is *not* resurrected — using the
        API after logout is a client error.  The logged-out check comes
        first: a semantic client error must surface as ``failed``
        immediately, never burn retries or trigger a failover just because
        the (irrelevant) owner happens to be down.
        """
        if user_id not in self._connections:
            raise UnknownUserError(f"no session has been opened for {user_id!r}")
        server = self._connections[user_id]
        if server is None:
            raise SessionError(
                f"session for {user_id!r} is not active; call login() first"
            )
        current = self._platform.buyer_server_for(user_id)
        self._require_live(current)
        if server is not current:
            self._connect(user_id, current)
        return current

    def _connect(self, user_id: str, server: "BuyerAgentServer") -> str:
        """Log in at ``server``'s HttpA (§4.1-1: the BSMA creates the BRA).

        The connection is recorded only once the login succeeded, so a
        refused login leaves an earlier connection serving.
        """
        bra_id = self._request(server, user_id, MessageKinds.LOGIN).require("bra_id")
        self._connections[user_id] = server
        return bra_id

    @staticmethod
    def _request(server: "BuyerAgentServer", user_id: str, kind: str, **payload: Any):
        reply = server.http_proxy().request(
            kind, sender=f"browser:{user_id}", user_id=user_id, **payload
        )
        if not reply.ok:
            raise SessionError(reply.error)
        return reply

    def _send(self, user_id: str, kind: str, **payload: Any):
        """One request over the consumer's connection: ``(reply, provenance)``."""
        server = self._server_for(user_id)
        reply = self._request(server, user_id, kind, **payload)
        return reply, Provenance(served_by=server.name)

    @staticmethod
    def _require_live(server) -> None:
        """The browser's connection check: a dead host serves nothing.

        HttpA models the browser as co-located with its buyer agent server,
        so a local request never consults host liveness — a crashed server
        would happily answer from dead memory.  The gateway refuses instead
        (retryable ``host-unreachable``, raised as
        :class:`RoutingUnavailableError` so the retry middleware knows no
        work has started), which is what lets it promote a replica and
        re-route — writes included.
        """
        if not server.context.host.is_running:
            raise RoutingUnavailableError(
                f"buyer agent server {server.name!r} is down"
            )

    def _heal_routing(self, user_id: Optional[str]) -> bool:
        """Re-route around a crashed primary before a retry attempt.

        When the consumer's shard is owned by a crashed server **and** a
        live replica of it exists, run the promotion failover
        (:meth:`~repro.ecommerce.buyer_server.BuyerServerFleet.handle_server_failure`)
        so the next attempt lands on the promoted owner.  Returns True when
        a failover actually ran.  Never hands off from dead memory — with no
        live replica the retry simply runs out against the dead host.
        """
        fleet = self._platform.fleet
        if fleet is None or user_id is None:
            return False
        try:
            shard = fleet.shard_of(user_id)
        except ReproError:
            return False
        owner = fleet.owner_of_shard(shard)
        if owner.context.host.is_running:
            return False
        if not fleet.replica_holders(owner):
            return False
        try:
            fleet.handle_server_failure(shard)
        except ReproError:
            return False
        return True

    # -- operations ------------------------------------------------------------

    def _op_register(self, request: RegisterRequest):
        self._require_live(self._platform.buyer_server_for(request.user_id))
        self._platform.register_consumer(request.user_id, request.display_name)
        server = self._platform.buyer_server_for(request.user_id)
        return (
            RegistrationResult(user_id=request.user_id, server=server.name),
            Provenance(served_by=server.name),
            False,
        )

    def _op_login(self, request: LoginRequest):
        server = self._platform.buyer_server_for(request.user_id)
        self._require_live(server)
        if request.register and not server.user_db.is_registered(request.user_id):
            self._platform.register_consumer(request.user_id)
        bra_id = self._connect(request.user_id, server)
        return (
            LoginResult(user_id=request.user_id, bra_id=bra_id, server=server.name),
            Provenance(served_by=server.name),
            False,
        )

    def _op_logout(self, request: LogoutRequest):
        # Same liveness / re-homing rules as every other connected op: a
        # crashed owner fails retryable (the retry middleware may promote a
        # replica, after which the re-homed connection is the one torn down)
        # — never a silent logout against dead memory.
        _, provenance = self._send(request.user_id, MessageKinds.LOGOUT)
        self._connections[request.user_id] = None
        return (LogoutResult(user_id=request.user_id), provenance, False)

    def _op_query(self, request: QueryRequest):
        payload: Dict[str, Any] = {"keyword": request.keyword}
        if request.category is not None:
            payload["category"] = request.category
        if request.marketplaces is not None:
            payload["marketplaces"] = list(request.marketplaces)
        reply, provenance = self._send(request.user_id, MessageKinds.QUERY, **payload)
        hits = tuple(
            QueryResult(
                item=entry["item"],
                price=float(entry.get("price", entry["item"].price)),
                marketplace=entry.get("marketplace", ""),
                stock=int(entry.get("stock", 0)),
            )
            for entry in reply.value("results", [])
        )
        return (
            QueryHits(
                hits=hits,
                recommendations=tuple(reply.value("recommendations", [])),
            ),
            provenance,
            False,
        )

    def _trade(self, request, kind: str, max_price: Optional[float] = None):
        payload: Dict[str, Any] = {"item": request.item}
        if request.marketplace is not None:
            payload["marketplace"] = request.marketplace
        if max_price is not None:
            payload["max_price"] = max_price
        reply, provenance = self._send(request.user_id, kind, **payload)
        return (
            TradeOutcome(
                succeeded=bool(reply.value("succeeded", False)),
                transaction=reply.value("transaction"),
                outcome=dict(reply.value("outcome", {})),
                recommendations=tuple(reply.value("recommendations", [])),
            ),
            provenance,
            False,
        )

    def _op_buy(self, request: BuyRequest):
        return self._trade(request, MessageKinds.BUY)

    def _op_join_auction(self, request: AuctionRequest):
        return self._trade(request, MessageKinds.AUCTION_JOIN, request.max_price)

    def _op_negotiate(self, request: NegotiateRequest):
        return self._trade(request, MessageKinds.NEGOTIATE, request.max_price)

    def _op_rate(self, request: RateRequest):
        reply, provenance = self._send(
            request.user_id, MessageKinds.RATE, item=request.item, rating=request.rating
        )
        return (
            RatingResult(
                user_id=request.user_id,
                item_id=request.item.item_id,
                rating=float(reply.value("rating", request.rating)),
            ),
            provenance,
            False,
        )

    def _listing(self, user_id: str, kind: str, **payload: Any):
        reply, provenance = self._send(user_id, kind, **payload)
        recommendations = tuple(reply.value("recommendations", []))
        return (RecommendationList(recommendations=recommendations), provenance, False)

    def _op_recommendations(self, request: RecommendationsRequest):
        return self._listing(
            request.user_id,
            MessageKinds.RECOMMENDATIONS,
            k=request.k,
            category=request.category,
        )

    def _op_weekly_hottest(self, request: WeeklyHottestRequest):
        return self._listing(
            request.user_id, MessageKinds.HOTTEST, k=request.k, category=request.category
        )

    def _op_cross_sell(self, request: CrossSellRequest):
        payload: Dict[str, Any] = {"k": request.k}
        if request.category is not None:
            payload["category"] = request.category
        if request.basket is not None:
            payload["basket"] = list(request.basket)
        return self._listing(request.user_id, MessageKinds.CROSS_SELL, **payload)

    def _op_find_similar(self, request: FindSimilarRequest):
        fleet = self._platform.fleet
        if fleet is not None:
            result = fleet.query_similar(request.user_id, category=request.category)
            owner = fleet.server_for(request.user_id)
            provenance = Provenance(
                served_by=owner.name if owner.context.host.is_running else None,
                shard_latencies_ms=dict(result.shard_latencies_ms),
                stale_shards=dict(result.stale_shards),
                unreachable_shards=tuple(result.unreachable_shards),
                repaired_shards=tuple(result.repaired_shards),
                hedged_shards=tuple(result.hedged_shards),
                hedge_won_shards=tuple(result.hedge_won_shards),
            )
            return (
                SimilarConsumers(neighbors=tuple(result.neighbors)),
                provenance,
                result.degraded,
            )
        server = self._platform.buyer_server
        self._require_live(server)
        if not server.user_db.is_registered(request.user_id):
            raise UnknownUserError(
                f"consumer {request.user_id!r} is not registered with the mechanism"
            )
        profile = server.user_db.profile(request.user_id)
        ranked = server.recommendations.neighbor_index.find_similar(
            profile, category=request.category
        )
        return (
            SimilarConsumers(neighbors=tuple(ranked)),
            Provenance(served_by=server.name),
            False,
        )

    def _op_admin_stats(self, request: AdminStatsRequest):
        return (
            PlatformStats(stats=self._platform.stats()),
            Provenance(served_by="coordinator"),
            False,
        )

    def _op_handshake(self, request: HandshakeRequest):
        """Run the trade-handshake protocol (honest or tampered) end to end.

        Deliberately session-free: an attacker probing the handshake does
        not need — and must not be required — to hold a consumer session,
        so forged/replayed attempts are rejected by the broker itself, not
        masked by an earlier ``unknown-user`` refusal.
        """
        marketplaces = self._platform.marketplaces
        if request.marketplace is None:
            server = marketplaces[0]
        else:
            by_name = {m.name: m for m in marketplaces}
            if request.marketplace not in by_name:
                raise MarketplaceError(
                    f"unknown marketplace {request.marketplace!r}"
                )
            server = by_name[request.marketplace]
        broker = server.handshakes
        if broker is None:
            raise HandshakeError(
                f"marketplace {server.name!r} does not secure trades; "
                f"build the platform with handshake_trades=True"
            )
        transcript = broker.attempt(
            request.user_id, self._clock.now, tamper=request.tamper
        )
        return (
            HandshakeResult(
                handshake_id=transcript.handshake_id,
                marketplace=transcript.marketplace,
                buyer=transcript.buyer,
                verified=transcript.verified,
            ),
            Provenance(served_by=server.name),
            False,
        )
