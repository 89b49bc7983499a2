"""Unit tests for event records and logs."""

import pytest

from repro.platform.events import Event, EventLog


class TestEvent:
    def test_describe_mentions_parties(self):
        event = Event(12.0, "message", "alpha", "beta")
        text = event.describe()
        assert "alpha" in text and "beta" in text and "message" in text

    def test_events_are_immutable(self):
        event = Event(1.0, "x", "a", "b")
        with pytest.raises(AttributeError):
            event.timestamp = 2.0


class TestEventLog:
    def test_record_appends_and_returns_event(self):
        log = EventLog()
        event = log.record(3.0, "agent.created", "host", "agent-1", agent_type="BRA")
        assert len(log) == 1
        assert event.payload["agent_type"] == "BRA"

    def test_by_category_filters(self):
        log = EventLog()
        log.record(1.0, "a", "x", "y")
        log.record(2.0, "b", "x", "y")
        log.record(3.0, "a", "x", "z")
        assert len(log.by_category("a")) == 2

    def test_involving_matches_source_and_target(self):
        log = EventLog()
        log.record(1.0, "a", "x", "y")
        log.record(2.0, "b", "y", "z")
        log.record(3.0, "c", "p", "q")
        assert len(log.involving("y")) == 2

    def test_categories_in_order(self):
        log = EventLog()
        for category in ("one", "two", "three"):
            log.record(0.0, category, "s", "t")
        assert log.categories() == ["one", "two", "three"]

    def test_between_filters_by_time(self):
        log = EventLog()
        for timestamp in (1.0, 5.0, 10.0):
            log.record(timestamp, "x", "s", "t")
        assert len(log.between(2.0, 9.0)) == 1

    def test_clear(self):
        log = EventLog()
        log.record(1.0, "x", "s", "t")
        log.clear()
        assert len(log) == 0

    def test_events_returns_copy(self):
        log = EventLog()
        log.record(1.0, "x", "s", "t")
        events = log.events
        events.append("junk")
        assert len(log) == 1
