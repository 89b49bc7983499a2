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
