"""What recording costs the heap: a step or a sample is a row, not an object."""

import gc
from array import array

from repro.platform.events import EventLog
from repro.platform.metrics import Timer

_STEPS = 10_000


def test_recorded_steps_add_no_objects_for_the_collector_to_walk():
    """Every protocol step of every request is recorded, so an object per
    step is what a full collection spends its time on.  The payloads here
    hold atomic values only, which CPython leaves untracked; a payload that
    holds a container is tracked whoever keeps it."""
    log, timer = EventLog(), Timer("workflow.step_ms")
    log.record(0.0, "workflow.step", "bra-1", "mba-1", step=-1, item="book-1")
    gc.collect()
    tracked = len(gc.get_objects())
    for step in range(_STEPS):
        log.record(float(step), "workflow.step", "bra-1", "mba-1", step=step, item="book-1")
        timer.record(0.25)
    gc.collect()
    grown = len(gc.get_objects()) - tracked
    assert len(log) == _STEPS + 1 and log.count("workflow.step") == _STEPS + 1
    assert grown < 50, f"{_STEPS} recorded steps left {grown} tracked objects behind"


def test_timer_samples_are_packed_doubles():
    timer = Timer("latency")
    timer.record(3)
    assert isinstance(timer.samples, array) and timer.samples.typecode == "d"
    assert timer.samples[0] == 3.0


def test_string_columns_hold_one_object_per_distinct_string():
    """A category built per call (``f"transfer.{kind}"``) is a new string
    each time; the log keeps the first and points every later row at it."""
    log = EventLog()
    kind = "replication"
    for step in range(_STEPS):
        log.record(
            float(step), f"transfer.{kind}", f"buyer-server-{step % 2}",
            f"buyer-server-{1 - step % 2}", payload_bytes=step,
        )
    assert log.count("transfer.replication") == _STEPS
    assert len({id(category) for category in log.categories()}) == 1
    assert len({id(event.source) for event in log}) == 2
    assert len({id(event.target) for event in log}) == 2


def test_payload_columns_hold_one_key_tuple_per_payload_shape():
    """A payload is a tuple of its values beside a key tuple shared by every
    row of the same shape; a payload-less row points at the one ``()``.
    Every reader rebuilds a fresh dict, so no reader can change the log."""
    log = EventLog()
    for step in range(_STEPS):
        if step % 2:
            log.record(float(step), "workflow.step", "bra-1", "mba-1", step=step, item="book-1")
        else:
            log.record(float(step), "workflow.idle", "bra-1", "mba-1")
    assert len({id(keys) for keys in log._keys}) == 2
    assert len(log._shapes) == 2
    empty = [row for row in range(_STEPS) if not log._keys[row]]
    assert len(empty) == _STEPS // 2
    shared = {id(log._keys[row]) for row in empty} | {id(log._values[row]) for row in empty}
    assert shared == {id(tuple())}

    recorded = {"step": _STEPS - 1, "item": "book-1"}
    reads = [
        lambda: log.events[_STEPS - 1].payload,
        lambda: list(log)[_STEPS - 1].payload,
        lambda: log.latest("workflow.step").payload,
        lambda: log.last_payload("workflow.step"),
    ]
    for read in reads:
        payload = read()
        assert payload == recorded and list(payload) == ["step", "item"]
        assert payload is not read()
        payload["scribble"] = True
        payload["step"] = -1
    for read in reads:
        assert read() == recorded
    assert log.latest("workflow.idle").payload == {}
    assert log.last_payload("workflow.idle") == {}
