"""Unit coverage for the gateway API: envelopes, taxonomy, middleware chain.

The integration-level behaviour (crash-during-traffic failover, quorum
degradation, byte-stability) lives in
``tests/integration/test_gateway_api.py``; these tests pin the smaller
contracts: every operation returns the uniform envelope, the error taxonomy
maps :mod:`repro.errors` deterministically, the middleware chain composes in
the documented order, and the admission / deadline / retry middlewares do
what their knobs say on a small platform.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    FleetUnavailableError,
    HostUnreachableError,
    SessionError,
    TransactionError,
    TransferDroppedError,
    UnknownUserError,
)
from repro.agents.messages import MessageKinds
from repro.api.envelope import (
    API_VERSION,
    ApiError,
    ApiResponse,
    ApiStatus,
    classify_error,
)
from repro.api.gateway import MAX_RETRIES, RETRY_BACKOFF_MS
from repro.api.middleware import ApiCall, Middleware, RetryMiddleware, TokenBucket, build_chain
from repro.api.requests import (
    AdminStatsRequest,
    QueryRequest,
    QueryResult,
    RecommendationsRequest,
)
from repro.ecommerce.platform_builder import build_platform
from repro.platform.clock import SimulationClock
from repro.platform.metrics import MetricsRegistry


def _keyword(platform) -> str:
    """A keyword guaranteed to hit the synthetic catalogue."""
    return next(iter(platform.catalog_view())).terms[0][0]


@pytest.fixture
def gateway_platform():
    platform = build_platform(
        num_marketplaces=2, num_sellers=2, items_per_seller=20, seed=3
    )
    return platform


def _assert_every_operation_ok(platform) -> None:
    """One request per operation type; each returns an ``ok`` envelope."""
    gateway = platform.gateway()
    keyword = _keyword(platform)

    login = gateway.login("alice")
    query = gateway.query("alice", keyword)
    hit = query.result.hits[0]
    responses = {
        "register": gateway.register("bob"),
        "login": login,
        "query": query,
        "buy": gateway.buy("alice", hit.item, marketplace=hit.marketplace),
        "join_auction": gateway.join_auction(
            "alice", hit.item, max_price=hit.price * 1.5,
            marketplace=hit.marketplace,
        ),
        "negotiate": gateway.negotiate(
            "alice", hit.item, max_price=hit.price,
            marketplace=hit.marketplace,
        ),
        "rate": gateway.rate("alice", hit.item, 4.5),
        "recommendations": gateway.recommendations("alice", k=5),
        "weekly_hottest": gateway.weekly_hottest("alice", k=5),
        "cross_sell": gateway.cross_sell("alice", k=3),
        "find_similar": gateway.find_similar("alice"),
        "admin_stats": gateway.admin_stats(),
        "logout": gateway.logout("alice"),
    }
    for operation, response in responses.items():
        assert isinstance(response, ApiResponse)
        assert response.operation == operation
        assert response.status == ApiStatus.OK, (operation, response.error)
        assert response.ok
        assert response.error is None
        assert response.result is not None
        assert response.api_version == API_VERSION
        assert response.latency_ms >= 0.0


class TestEnvelopeBasics:
    def test_every_operation_returns_the_uniform_envelope(self, gateway_platform):
        _assert_every_operation_ok(gateway_platform)

    def test_every_operation_is_ok_on_an_admission_controlled_fleet(self):
        _assert_every_operation_ok(
            build_platform(seed=5, num_buyer_servers=3, replication_factor=1,
                           api_admission_capacity=64)
        )

    def test_request_ids_are_monotonic_per_gateway(self, gateway_platform):
        gateway = gateway_platform.gateway()
        first = gateway.admin_stats()
        second = gateway.admin_stats()
        assert second.request_id == first.request_id + 1

    def test_gateway_is_cached_per_platform(self, gateway_platform):
        assert gateway_platform.gateway() is gateway_platform.gateway()

    def test_unsupported_version_is_refused_not_guessed(self, gateway_platform):
        gateway = gateway_platform.gateway()
        response = gateway.execute(AdminStatsRequest(api_version="v999"))
        assert response.status == ApiStatus.FAILED
        assert response.error.code == "unsupported-version"
        assert response.result is None

    def test_unknown_request_type_fails_cleanly(self, gateway_platform):
        gateway = gateway_platform.gateway()
        response = gateway.execute(object())
        assert response.status == ApiStatus.FAILED
        assert response.error.code == "unknown-operation"

    def test_operation_on_never_logged_in_user_fails_with_unknown_user(
        self, gateway_platform
    ):
        gateway = gateway_platform.gateway()
        response = gateway.query("ghost", "anything")
        assert response.status == ApiStatus.FAILED
        assert response.error.code == "unknown-user"
        assert not response.error.retryable

    def test_operation_after_logout_is_a_client_error(self, gateway_platform):
        gateway = gateway_platform.gateway()
        gateway.login("alice")
        gateway.logout("alice")
        response = gateway.recommendations("alice")
        assert response.status == ApiStatus.FAILED
        assert response.error.code == "session"

    def test_logged_out_session_fails_fast_even_when_the_owner_is_down(self):
        """A semantic client error must never burn retries or trigger a
        failover just because the (irrelevant) owner happens to be down."""
        platform = build_platform(seed=3)
        gateway = platform.gateway()
        gateway.login("alice")
        gateway.logout("alice")
        platform.failures.crash_host(platform.buyer_server.name)
        response = gateway.recommendations("alice")
        assert response.status == ApiStatus.FAILED
        assert response.error.code == "session"
        assert response.provenance.retries == 0

    def test_trade_failure_is_a_domain_outcome_not_an_envelope_error(
        self, gateway_platform
    ):
        """A lost negotiation is a successful API call whose trade failed."""
        platform = gateway_platform
        gateway = platform.gateway()
        gateway.login("alice")
        hit = gateway.query("alice", _keyword(platform)).result.hits[0]
        response = gateway.negotiate(
            "alice", hit.item, max_price=0.01, marketplace=hit.marketplace
        )
        assert response.ok
        assert response.error is None
        assert response.result.succeeded is False

    def test_happy_path_charges_nothing_extra_to_the_clock(self, gateway_platform):
        """Envelope timing reflects the operation's own simulated cost only."""
        platform = gateway_platform
        gateway = platform.gateway()
        gateway.login("alice")
        before = platform.now
        response = gateway.recommendations("alice", k=3)
        assert platform.now - before == pytest.approx(response.latency_ms)


class TestErrorTaxonomy:
    @pytest.mark.parametrize(
        "exc,code,retryable",
        [
            (UnknownUserError("x"), "unknown-user", False),
            (SessionError("x"), "session", False),
            (TransactionError("x"), "transaction", False),
            (FleetUnavailableError("x"), "fleet-unavailable", True),
            (HostUnreachableError("x"), "host-unreachable", True),
            (TransferDroppedError("x"), "transfer-dropped", True),
        ],
    )
    def test_known_exceptions_map_to_stable_codes(self, exc, code, retryable):
        error = classify_error(exc)
        assert error.code == code
        assert error.retryable is retryable
        assert error.kind == type(exc).__name__

    def test_unknown_exceptions_map_to_internal(self):
        error = classify_error(ValueError("surprise"))
        assert error.code == "internal"
        assert not error.retryable


class TestRefusalAccounting:
    """Pre-dispatch refusals must not escape the api.* metrics."""

    def test_unsupported_version_refusal_is_counted(self, gateway_platform):
        platform = gateway_platform
        gateway = platform.gateway()
        before = platform.metrics.counter("api.requests").value
        gateway.execute(AdminStatsRequest(api_version="v999"))
        gateway.execute(object())
        metrics = platform.metrics
        assert metrics.counter("api.requests").value == before + 2
        assert metrics.counter("api.requests.admin_stats").value == 1.0
        assert metrics.counter("api.requests.unknown").value == 1.0
        assert metrics.counter("api.status.failed").value == 2.0
        assert metrics.timer("api.latency_ms").summary()["count"] == 2.0


class TestLogoutLiveness:
    def test_logout_is_never_served_from_a_crashed_server(self):
        """Logout both reads and mutates (BRA disposal): dead memory is off
        limits for it exactly like every other session operation."""
        platform = build_platform(seed=3)
        gateway = platform.gateway()
        gateway.login("alice")
        platform.failures.crash_host(platform.buyer_server.name)
        response = gateway.logout("alice")
        assert response.status == ApiStatus.UNAVAILABLE
        assert response.error.code == "host-unreachable"


class TestConnectionLifecycle:
    """The gateway keeps each consumer's login: one at a time, closed once."""

    def test_second_login_is_refused_and_the_first_keeps_serving(
        self, gateway_platform
    ):
        gateway = gateway_platform.gateway()
        first = gateway.login("alice")
        assert first.ok
        again = gateway.login("alice")
        assert again.status == ApiStatus.FAILED
        assert again.error.code == "session"
        assert again.error.message == "user 'alice' is already logged in"
        follow_up = gateway.recommendations("alice", k=3)
        assert follow_up.status == ApiStatus.OK
        assert follow_up.provenance.served_by == first.result.server

    def test_second_logout_is_refused_without_retries(self, gateway_platform):
        gateway = gateway_platform.gateway()
        assert gateway.login("alice").ok
        assert gateway.logout("alice").ok
        again = gateway.logout("alice")
        assert again.status == ApiStatus.FAILED
        assert again.error.code == "session"
        assert again.error.message == (
            "session for 'alice' is not active; call login() first"
        )
        assert again.provenance.retries == 0

    def test_login_without_registration_opens_nothing(self, gateway_platform):
        gateway = gateway_platform.gateway()
        refused = gateway.login("stranger", register=False)
        assert refused.status == ApiStatus.FAILED
        assert refused.error.code == "session"
        assert refused.error.message == "user 'stranger' must register before logging in"
        assert not gateway_platform.buyer_server.user_db.is_registered("stranger")
        query = gateway.query("stranger", "books")
        assert query.status == ApiStatus.FAILED
        assert query.error.code == "unknown-user"
        assert query.error.message == "no session has been opened for 'stranger'"


class TestHttpAWire:
    """Each consumer operation is one message to the owner's HttpA agent."""

    def test_each_operation_sends_one_message_with_its_payload(
        self, gateway_platform, monkeypatch
    ):
        platform = gateway_platform
        gateway = platform.gateway()
        proxy = platform.buyer_server.http_proxy()
        forward = proxy.request
        sent = []

        def record(kind, sender="", **payload):
            sent.append((kind, sender, dict(payload)))
            return forward(kind, sender=sender, **payload)

        monkeypatch.setattr(proxy, "request", record)
        assert gateway.login("alice").ok
        hit = gateway.query("alice", _keyword(platform)).result.hits[0]
        item, market = hit.item, hit.marketplace
        calls = [
            gateway.query("alice", "books", category="books", marketplaces=[market]),
            gateway.buy("alice", item),
            gateway.join_auction("alice", item, 1.0, marketplace=market),
            gateway.negotiate("alice", item, 1.0),
            gateway.rate("alice", item, 4.0),
            gateway.recommendations("alice", k=3),
            gateway.weekly_hottest("alice", k=2, category="books"),
            gateway.cross_sell("alice", k=2),
            gateway.cross_sell("alice", basket=(item.item_id,)),
            gateway.logout("alice"),
        ]
        assert all(response.ok for response in calls)
        browser = "browser:alice"
        assert [(kind, sender, list(payload)) for kind, sender, payload in sent] == [
            (MessageKinds.REGISTER, "browser", ["user_id", "display_name"]),
            (MessageKinds.LOGIN, browser, ["user_id"]),
            (MessageKinds.QUERY, browser, ["user_id", "keyword"]),
            (
                MessageKinds.QUERY,
                browser,
                ["user_id", "keyword", "category", "marketplaces"],
            ),
            (MessageKinds.BUY, browser, ["user_id", "item"]),
            (
                MessageKinds.AUCTION_JOIN,
                browser,
                ["user_id", "item", "marketplace", "max_price"],
            ),
            (MessageKinds.NEGOTIATE, browser, ["user_id", "item", "max_price"]),
            (MessageKinds.RATE, browser, ["user_id", "item", "rating"]),
            (MessageKinds.RECOMMENDATIONS, browser, ["user_id", "k", "category"]),
            (MessageKinds.HOTTEST, browser, ["user_id", "k", "category"]),
            (MessageKinds.CROSS_SELL, browser, ["user_id", "k"]),
            (MessageKinds.CROSS_SELL, browser, ["user_id", "k", "basket"]),
            (MessageKinds.LOGOUT, browser, ["user_id"]),
        ]
        # Sequences cross the wire as lists, whatever the request carried.
        assert sent[3][2]["marketplaces"] == [market]
        assert sent[11][2]["basket"] == [item.item_id]

    def test_query_hits_are_query_results(self, gateway_platform):
        gateway = gateway_platform.gateway()
        assert gateway.login("alice").ok
        hit = gateway.query("alice", _keyword(gateway_platform)).result.hits[0]
        assert type(hit) is QueryResult
        assert hit.item_id == hit.item.item_id
        assert repr(hit) == (
            f"QueryResult(item={hit.item!r}, price={hit.price!r}, "
            f"marketplace={hit.marketplace!r}, stock={hit.stock!r})"
        )


class TestTokenBucket:
    def test_burst_then_rejection_then_refill(self):
        bucket = TokenBucket(capacity=2.0, refill_per_ms=0.5, last_refill_ms=0.0)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        # 2 ms at 0.5 tokens/ms restores one token.
        assert bucket.try_acquire(2.0)
        assert not bucket.try_acquire(2.0)

    def test_refill_never_exceeds_capacity(self):
        bucket = TokenBucket(capacity=1.0, refill_per_ms=10.0, last_refill_ms=0.0)
        assert bucket.try_acquire(1000.0)
        assert not bucket.try_acquire(1000.0)


class TestMiddlewareChain:
    def test_chain_composes_in_listed_order(self):
        order = []

        class Recorder(Middleware):
            def __init__(self, tag):
                self.tag = tag

            def handle(self, call, next_handler):
                order.append(f"+{self.tag}")
                response = next_handler(call)
                order.append(f"-{self.tag}")
                return response

        def terminal(call):
            order.append("dispatch")
            return ApiResponse()

        handler = build_chain([Recorder("a"), Recorder("b")], terminal)
        handler(ApiCall(gateway=None, request=None, operation="x", request_id=1))
        assert order == ["+a", "+b", "dispatch", "-b", "-a"]

    def test_installed_chain_order_matches_documentation(self, gateway_platform):
        names = [mw.name for mw in gateway_platform.gateway().middlewares]
        assert names == ["metrics", "admission", "deadline", "retry", "queueing"]


class TestMetricsMiddleware:
    def test_requests_statuses_and_latency_are_counted(self, gateway_platform):
        platform = gateway_platform
        gateway = platform.gateway()
        gateway.login("alice")
        gateway.query("alice", _keyword(platform))
        gateway.query("ghost", "nope")  # failed
        metrics = platform.metrics
        assert metrics.counter("api.requests").value == 3.0
        assert metrics.counter("api.requests.query").value == 2.0
        assert metrics.counter("api.status.ok").value == 2.0
        assert metrics.counter("api.status.failed").value == 1.0
        assert metrics.timer("api.latency_ms").summary()["count"] == 3.0
        assert metrics.timer("api.latency_ms.query").summary()["count"] == 2.0


class TestAdmissionControl:
    def test_over_capacity_requests_are_rejected_and_counted(self):
        platform = build_platform(
            seed=3,
            api_admission_capacity=2,
            api_admission_refill_per_ms=1e-9,
        )
        gateway = platform.gateway()
        first = gateway.login("alice")
        second = gateway.recommendations("alice", k=3)
        third = gateway.recommendations("alice", k=3)
        assert first.ok and second.ok
        assert third.status == ApiStatus.REJECTED
        assert third.error.code == "admission-rejected"
        assert third.result is None
        metrics = platform.metrics
        assert metrics.counter("api.admission.rejected").value == 1.0
        assert metrics.counter("api.status.rejected").value == 1.0
        # Shed requests cost the platform nothing downstream.
        assert third.latency_ms == 0.0

    def test_tokens_refill_with_simulated_time(self):
        platform = build_platform(
            seed=3, api_admission_capacity=1, api_admission_refill_per_ms=0.1
        )
        gateway = platform.gateway()
        assert gateway.login("alice").ok  # spends the only token
        assert gateway.recommendations("alice").status == ApiStatus.REJECTED
        platform.scheduler.clock.advance_by(10.0)  # 10 ms * 0.1 = 1 token
        assert gateway.recommendations("alice").ok

    def test_disabled_by_default(self, gateway_platform):
        assert gateway_platform.gateway().admission_bucket is None


class TestDeadlines:
    def test_query_over_budget_returns_deadline_exceeded(self, gateway_platform):
        platform = gateway_platform
        gateway = platform.gateway()
        gateway.login("alice")
        response = gateway.query("alice", _keyword(platform), deadline_ms=0.001)
        assert response.status == ApiStatus.UNAVAILABLE
        assert response.error.code == "deadline-exceeded"
        assert response.result is None
        assert response.latency_ms > 0.001
        assert platform.metrics.counter("api.deadline_exceeded").value == 1.0

    def test_generous_deadline_passes_through(self, gateway_platform):
        platform = gateway_platform
        gateway = platform.gateway()
        gateway.login("alice")
        response = gateway.query("alice", _keyword(platform), deadline_ms=1e9)
        assert response.ok

    def test_platform_default_deadline_applies(self):
        platform = build_platform(seed=3, api_deadline_ms=0.001)
        gateway = platform.gateway()
        response = gateway.login("alice")
        # Login itself is cheap but the query pays marketplace round trips.
        assert response.ok
        over = gateway.query("alice", _keyword(platform))
        assert over.status == ApiStatus.UNAVAILABLE
        assert over.error.code == "deadline-exceeded"


class TestRetries:
    def test_crashed_single_server_exhausts_retries_unavailable(self):
        platform = build_platform(seed=3)
        gateway = platform.gateway()
        gateway.login("alice")
        clock_before = platform.now
        platform.failures.crash_host(platform.buyer_server.name)
        response = gateway.recommendations("alice", k=3)
        assert response.status == ApiStatus.UNAVAILABLE
        assert response.error is not None and response.error.retryable
        assert response.provenance.retries == MAX_RETRIES
        assert platform.metrics.counter("api.retries").value == float(
            MAX_RETRIES
        )
        # Exponential backoff was charged to the simulated clock: 25 + 50 ms.
        assert platform.now - clock_before == pytest.approx(3 * RETRY_BACKOFF_MS)

    def test_gateway_retries_with_the_module_constants(self, gateway_platform):
        (retry,) = [
            middleware
            for middleware in gateway_platform.gateway().middlewares
            if isinstance(middleware, RetryMiddleware)
        ]
        assert (retry.max_retries, retry.backoff_ms) == (MAX_RETRIES, RETRY_BACKOFF_MS)

    def test_semantic_errors_are_never_retried(self, gateway_platform):
        gateway = gateway_platform.gateway()
        response = gateway.query("ghost", "x")
        assert response.provenance.retries == 0
        assert gateway_platform.metrics.counter("api.retries").value == 0.0

    def test_retry_respects_the_deadline_budget(self):
        clock = SimulationClock()
        middleware = RetryMiddleware(
            max_retries=2, backoff_ms=50.0, metrics=MetricsRegistry(), clock=clock
        )
        down = ApiResponse(
            status=ApiStatus.UNAVAILABLE,
            error=ApiError(
                code="host-unreachable", kind="HostUnreachableError",
                message="down", retryable=True,
            ),
        )

        class Request:
            operation = "recommendations"
            retry_safe = True
            user_id = "alice"

        class Gateway:
            def _heal_routing(self, user_id):
                return False

        def retries_within(budget_ms):
            call = ApiCall(
                gateway=Gateway(), request=Request(), operation="recommendations",
                request_id=1, deadline_at_ms=clock.now + budget_ms,
            )
            assert middleware.handle(call, lambda _call: down) is down
            return call.attempts

        # Budget too small for even one 50 ms backoff: a single attempt runs.
        assert retries_within(10.0) == 0
        assert clock.now == 0.0
        # Room for the 50 ms backoff, not for the 100 ms one after it.
        assert retries_within(60.0) == 1
        assert clock.now == pytest.approx(50.0)

    def test_gateway_retry_respects_the_deadline_budget(self):
        platform = build_platform(seed=3)
        gateway = platform.gateway()
        gateway.login("alice")
        platform.failures.crash_host(platform.buyer_server.name)
        # Budget too small for even one backoff: a single attempt runs.
        response = gateway.recommendations("alice", k=3, deadline_ms=RETRY_BACKOFF_MS / 2)
        assert response.status == ApiStatus.UNAVAILABLE
        assert response.provenance.retries == 0
