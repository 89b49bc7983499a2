"""Property-based tests (hypothesis) for the platform and trading substrates."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.items import Item
from repro.ecommerce.auction import AuctionHouse
from repro.ecommerce.negotiation import NegotiationService
from repro.errors import EventEvictedError
from repro.platform.clock import Scheduler
from repro.platform.events import Event, EventLog
from repro.platform.metrics import Timer, summarize
from repro.platform.network import NetworkConfig, SimulatedNetwork


class TestSchedulerProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=40))
    def test_callbacks_execute_in_nondecreasing_time_order(self, delays):
        scheduler = Scheduler()
        seen = []
        for delay in delays:
            scheduler.call_after(delay, lambda: seen.append(scheduler.clock.now))
        scheduler.run_until_idle()
        assert seen == sorted(seen)
        assert len(seen) == len(delays)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=40))
    def test_clock_ends_at_latest_event(self, delays):
        scheduler = Scheduler()
        for delay in delays:
            scheduler.call_after(delay, lambda: None)
        scheduler.run_until_idle()
        assert math.isclose(scheduler.clock.now, max(delays), rel_tol=1e-9, abs_tol=1e-9)


class TestNetworkProperties:
    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=20.0),
        st.integers(min_value=0, max_value=10_000_000),
        st.integers(min_value=0, max_value=1000),
    )
    def test_latency_at_least_base_latency(self, base, jitter, payload, seed):
        network = SimulatedNetwork(NetworkConfig(base_latency_ms=base, jitter_ms=jitter), seed=seed)
        network.register_host("a")
        network.register_host("b")
        outcome = network.transfer_latency("a", "b", payload_bytes=payload)
        assert outcome.latency_ms >= base - 1e-9
        assert outcome.latency_ms <= base + jitter + payload / 1024.0 / network.config.bandwidth_kb_per_ms + 1e-6


class TestMetricsSummaryProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=100))
    def test_summary_orderings(self, samples):
        summary = summarize(samples)
        assert summary["min"] <= summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["max"]
        if samples:
            # Summation error can push the mean a few ULPs past the extremes.
            slack = 1e-9 * max(1.0, abs(summary["max"]))
            assert summary["min"] - slack <= summary["mean"] <= summary["max"] + slack
            assert summary["count"] == len(samples)


    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6) | st.integers(0, 10**6), max_size=60),
        st.integers(-70, 70),
    )
    def test_timer_summary_is_that_of_a_list_of_the_same_floats(self, durations, start):
        timer = Timer("t")
        for duration in durations:
            timer.record(duration)
        floats = [float(duration) for duration in durations]
        assert list(timer.samples) == floats and len(timer.samples) == len(floats)
        assert timer.summary() == summarize(floats)
        assert summarize(timer.samples[start:]) == summarize(floats[start:])
        assert timer.latest == (floats[-1] if floats else None)


# ---------------------------------------------------------------------------
# EventLog against a list of Events
# ---------------------------------------------------------------------------

_CATEGORIES = ("workflow.query", "transfer.agent-dispatch", "fleet.failover")
_PARTIES = ("bra-1", "mba-1", "market-1", "buyer-server")
_TIMESTAMPS = st.floats(min_value=0.0, max_value=1e6) | st.integers(0, 10**6)
_PAYLOADS = st.dictionaries(
    st.sampled_from(("item", "price", "stops", "payload_bytes")),
    st.integers(-5, 5) | st.text(max_size=3) | st.lists(st.integers(0, 9), max_size=3),
    max_size=3,
)
_STEPS = st.tuples(
    _TIMESTAMPS, st.sampled_from(_CATEGORIES), st.sampled_from(_PARTIES),
    st.sampled_from(_PARTIES), _PAYLOADS,
)
_OPERATIONS = st.lists(
    st.tuples(st.sampled_from(("record", "record", "record", "append", "clear")), _STEPS),
    max_size=25,
)


def _assert_reads_like(log, model, low, high, start, stop):
    assert log.events == model and len(log) == len(model) and list(log) == model
    assert log.categories() == [event.category for event in model]
    for category in (*_CATEGORIES, "never-recorded"):
        matches = [event for event in model if event.category == category]
        assert log.by_category(category) == matches
        assert log.count(category) == len(matches)
        assert log.latest(category) == (matches[-1] if matches else None)
        assert log.last_payload(category) == (matches[-1].payload if matches else None)
    for party in (*_PARTIES, "nobody"):
        assert log.involving(party) == [
            event for event in model if party in (event.source, event.target)
        ]
    assert log.between(low, high) == [
        event for event in model if low <= event.timestamp <= high
    ]
    assert log.events[start:stop] == model[start:stop]
    assert log.events[start:] == model[start:]
    assert log.events_since(start) == model[start:]
    assert log.events_since(len(log)) == [] and log.events_since(0) == model


class TestEventLogModel:
    @given(
        _OPERATIONS, _TIMESTAMPS, _TIMESTAMPS,
        st.integers(-30, 30), st.integers(-30, 30),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_reader_equals_a_list_of_events(self, operations, low, high, start, stop):
        log, model = EventLog(), []
        for operation, (timestamp, category, source, target, payload) in operations:
            if operation == "record":
                log.record(timestamp, category, source, target, **payload)
                model.append(Event(timestamp, category, source, target, dict(payload)))
                assert log.events[-1] == model[-1]
            elif operation == "append":
                event = Event(timestamp, category, source, target, dict(payload))
                log.append(event)
                model.append(event)
            else:
                log.clear()
                model.clear()
            _assert_reads_like(log, model, low, high, start, stop)

    @given(_OPERATIONS)
    def test_no_reader_can_mutate_the_log(self, operations):
        log = EventLog()
        for _, (timestamp, category, source, target, payload) in operations:
            log.record(timestamp, category, source, target, **payload)
        before = list(log)
        events = log.events
        for name in ("append", "clear", "extend", "insert", "pop", "remove", "sort"):
            assert not hasattr(events, name)
        for row in (0, -1):
            with pytest.raises(TypeError):
                events[row] = "junk"
            with pytest.raises(TypeError):
                del events[row]
        log.record(0.0, "workflow.query", "bra-1", "mba-1")
        assert events == before and log.events[:-1] == before
        log.clear()
        assert events == before and len(events) == len(before)
        for category in _CATEGORIES:
            payload = log.last_payload(category)
            if payload is not None:
                payload["scribble"] = True
                assert "scribble" not in log.last_payload(category)
                assert "scribble" not in log.latest(category).payload

    def test_event_stays_an_immutable_value(self):
        event = Event(1.0, "workflow.query", "bra-1", "mba-1")
        assert event.payload == {}
        assert event == Event(1.0, "workflow.query", "bra-1", "mba-1", {})
        for name in ("timestamp", "category", "source", "target", "payload"):
            with pytest.raises(AttributeError):
                setattr(event, name, None)
        log = EventLog()
        log.append(event)
        assert log.events[0] == event and log.latest("workflow.query") == event

    def test_a_refused_timestamp_leaves_no_partial_row(self):
        log = EventLog()
        log.record(1.0, "workflow.query", "bra-1", "mba-1")
        with pytest.raises(TypeError):
            log.record("soon", "workflow.query", "bra-1", "mba-1")
        assert len(log) == log.count("workflow.query") == len(log.events) == 1
        assert log.latest("workflow.query").timestamp == 1.0


class _EightRowLog(EventLog):
    """A log whose ring holds 8 rows, so a short run of steps overwrites it."""

    RETAINED_ROWS = 8


# Long enough runs, and rare enough clears, that most of them overwrite it.
_RING_OPERATIONS = st.lists(
    st.tuples(st.sampled_from(("record",) * 6 + ("append", "append", "clear")), _STEPS),
    min_size=10, max_size=30,
)


def _assert_addresses_absolute_rows(view, recorded, start, stop):
    """``view`` covers the first ``len(view)`` rows of ``recorded``, every
    row recorded into its ring; the ring kept the last 8.  A read of a kept
    row equals the model's; one that needs an overwritten row raises."""
    first = max(0, len(recorded) - _EightRowLog.RETAINED_ROWS)
    covered = recorded[: len(view)]
    for row in range(-len(covered), len(covered)):
        if row % len(covered) >= first:
            assert view[row] == covered[row]
        else:
            with pytest.raises(EventEvictedError):
                view[row]
    for key in (slice(start, stop), slice(start, None), slice(None, stop), slice(start, stop, 2)):
        if any(row < first for row in range(*key.indices(len(covered)))):
            with pytest.raises(EventEvictedError):
                view[key]
        else:
            assert view[key] == covered[key]
    if first and covered:
        with pytest.raises(EventEvictedError):
            list(view)
    else:
        assert list(view) == covered


class TestEventLogRing:
    """:class:`EventLog` with a ring of 8 rows against the full list model:
    the retained reads see the model's suffix, the tallies see all of it,
    and absolute rows the ring overwrote raise, through old views too."""

    @given(
        _RING_OPERATIONS, _TIMESTAMPS, _TIMESTAMPS,
        st.integers(-30, 30), st.integers(-30, 30),
    )
    @settings(max_examples=150, deadline=None)
    def test_retained_reads_are_the_models_suffix(self, operations, low, high, start, stop):
        log, model = _EightRowLog(), []
        views = []  # (an EventRows made earlier, the model of its ring)
        for operation, (timestamp, category, source, target, payload) in operations:
            if operation == "clear":
                log.clear()
                model = []  # the old views keep the old ring, and its model
            else:
                event = Event(timestamp, category, source, target, dict(payload))
                if operation == "record":
                    log.record(timestamp, category, source, target, **payload)
                else:
                    log.append(event)
                model.append(event)
            views.append((log.events, model))

            kept = model[max(0, len(model) - log.RETAINED_ROWS):]
            assert len(log) == len(model) and list(log) == kept
            assert log.categories() == [event.category for event in kept]
            for category in (*_CATEGORIES, "never-recorded"):
                matches = [event for event in model if event.category == category]
                assert log.by_category(category) == [
                    event for event in kept if event.category == category
                ]
                assert log.count(category) == len(matches)
                assert log.latest(category) == (matches[-1] if matches else None)
                assert log.last_payload(category) == (matches[-1].payload if matches else None)
            for party in (*_PARTIES, "nobody"):
                assert log.involving(party) == [
                    event for event in kept if party in (event.source, event.target)
                ]
            assert log.between(low, high) == [
                event for event in kept if low <= event.timestamp <= high
            ]
            since = range(*slice(start, None).indices(len(model)))
            if any(row < len(model) - len(kept) for row in since):
                with pytest.raises(EventEvictedError):
                    log.events_since(start)
            else:
                assert log.events_since(start) == model[start:]
            for view, recorded in views:
                _assert_addresses_absolute_rows(view, recorded, start, stop)

    def test_a_refused_timestamp_leaves_no_partial_row(self):
        log = _EightRowLog()
        for step in range(10):
            log.record(float(step), "workflow.query", "bra-1", "mba-1", step=step)
        with pytest.raises(TypeError):
            log.record("soon", "workflow.step", "bra-1", "mba-1")
        assert len(log) == log.count("workflow.query") == 10 and not log.count("workflow.step")
        assert log.events[2:] == log.by_category("workflow.query")
        assert log.latest("workflow.query").payload == {"step": 9}


AUCTION_ITEM = Item.build("lot", "Lot", "books", terms={"novel": 0.5}, price=100.0)


class TestAuctionProperties:
    @given(
        st.floats(min_value=1.0, max_value=500.0),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60)
    def test_winner_never_pays_more_than_their_limit(self, max_price, competitors, seed):
        house = AuctionHouse("m", seed=seed, competitor_count=competitors)
        result = house.run_auction(AUCTION_ITEM, bidder="consumer", max_price=max_price)
        assert result.rounds >= 0
        assert result.bids >= 0
        if result.winner == "consumer":
            assert result.winning_bid <= max_price + 1e-9
        if result.winner is not None:
            assert result.reserve_met

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30)
    def test_auctions_are_deterministic_per_seed(self, seed):
        first = AuctionHouse("m", seed=seed).run_auction(AUCTION_ITEM, "c", max_price=130.0)
        second = AuctionHouse("m", seed=seed).run_auction(AUCTION_ITEM, "c", max_price=130.0)
        assert first.winner == second.winner
        assert first.winning_bid == second.winning_bid


class TestNegotiationProperties:
    @given(
        st.floats(min_value=1.0, max_value=300.0),
        st.floats(min_value=0.0, max_value=150.0),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=80)
    def test_agreed_price_respects_both_parties(self, buyer_max, reserve, buyer_rate, seller_rate):
        service = NegotiationService("m", max_rounds=12)
        outcome = service.negotiate(
            AUCTION_ITEM, buyer_max=buyer_max, seller_reserve=reserve,
            buyer_concession=buyer_rate, seller_concession=seller_rate,
        )
        assert outcome.rounds <= 12
        if outcome.agreed:
            # Prices are rounded to cents, so allow half-a-cent slack per bound.
            assert outcome.final_price <= max(buyer_max, AUCTION_ITEM.price) + 0.005
            assert outcome.final_price >= min(reserve, buyer_max) - 0.005
        if buyer_max < reserve:
            assert not outcome.agreed
