"""What a retained WAL entry costs the heap: a row, not an object.

A replicated fleet's set-up leaves every entry in the log until the first
anti-entropy tick truncates it, so the log's cost per entry beside the
payload's own values is paid for every consumer, and a consumer's
superseded profile versions would be paid for too if the rows kept them.
"""

import gc
import tracemalloc
from types import SimpleNamespace

from repro.core.items import Item
from repro.core.profile import Profile
from repro.core.profile_learning import FeedbackEvent, ProfileLearner
from repro.core.ratings import InteractionKind
from repro.ecommerce.databases import UserDB
from repro.ecommerce.replication import ReplicationLog, ReplicationManager

_ROWS = 10_000
#: Bytes a row may hold beside the payload's values: five column slots
#: (40) and a one-value tuple (48), with room for the lists' spare
#: capacity.  An entry object plus a copy of the payload dict is ~330.
_ROW_BAR = 112


def _bytes_held_by_the_log() -> int:
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, "*/repro/ecommerce/replication.py")]
    )
    return sum(stat.size for stat in snapshot.statistics("filename"))


def test_a_retained_entry_is_a_row_of_columns():
    dumps = [Profile(f"consumer-{row}").to_dict() for row in range(_ROWS)]
    log = ReplicationLog()
    log.append("store-profile", {"profile": dumps[0]}, 0.0)
    tracemalloc.start()
    try:
        before = _bytes_held_by_the_log()
        for row, dump in enumerate(dumps):
            log.append("store-profile", {"profile": dump}, float(row))
        held = _bytes_held_by_the_log() - before
    finally:
        tracemalloc.stop()
    assert len(log) == _ROWS + 1
    assert log.entries_since(_ROWS)[0].payload["profile"] is dumps[-1]
    per_row = held / _ROWS
    assert per_row <= _ROW_BAR, f"{per_row:.0f} B per retained WAL entry, bar {_ROW_BAR}"


def test_truncation_gives_the_rows_back():
    """Truncating the whole log leaves its columns empty, not holding the
    rows' slots or value tuples."""
    log = ReplicationLog()
    tracemalloc.start()
    try:
        before = _bytes_held_by_the_log()
        for row in range(_ROWS):
            log.append("login", {"user_id": "consumer-1", "timestamp": float(row)}, float(row))
        filled = _bytes_held_by_the_log() - before
        assert log.truncate_through(log.last_seq) == _ROWS
        gc.collect()  # empties the tuple free list, which tracemalloc counts
        emptied = _bytes_held_by_the_log() - before
    finally:
        tracemalloc.stop()
    assert len(log) == 0 and log.entries_since(log.last_seq) == []
    assert filled > 80 * _ROWS
    assert emptied < filled / 100, (filled, emptied)


#: Bytes one learning update may leave held in the whole package while
#: its ``store-profile`` row is retained: the row's column slots, with room
#: for the lists' spare capacity.  A row that kept its own version would
#: hold that dump's changed nodes too: ~1 800 B per update here, against
#: ~40 B for the row alone.
_VERSION_BAR = 96


def _bytes_held_by_repro() -> int:
    gc.collect()  # empties the free lists, which tracemalloc counts
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, "*/repro/*")]
    )
    return sum(stat.size for stat in snapshot.statistics("filename"))


def test_retained_rows_hold_one_profile_version_per_consumer():
    """A primary whose peer never acknowledges keeps every learning update's
    row; the rows of one consumer share its latest dump."""
    db, learner = UserDB(), ProfileLearner()
    host = SimpleNamespace(is_running=False)  # ships nothing: every row stays
    server = SimpleNamespace(
        name="primary", user_db=db, profile_learner=learner,
        context=SimpleNamespace(now=0.0, host=host),
    )
    manager = ReplicationManager(server)
    db.register("consumer-1", "Consumer 1")
    profile = db.profile("consumer-1")
    items = [
        Item(f"item-{index}", f"item {index}", "books", f"sub-{index % 4}",
             terms=((f"term-{index % 16}", 1.0), ("book", 0.5)), price=1.0)
        for index in range(_ROWS)
    ]
    learner.apply(profile, FeedbackEvent("consumer-1", items[0], InteractionKind.QUERY))
    tracemalloc.start()
    try:
        before = _bytes_held_by_repro()
        for at, item in enumerate(items):
            event = FeedbackEvent("consumer-1", item, InteractionKind.QUERY, timestamp=float(at))
            learner.apply(profile, event)
        held = _bytes_held_by_repro() - before
    finally:
        tracemalloc.stop()
    entries = manager.log.entries_since(0)
    assert len(entries) == _ROWS + 2
    assert [entry.op for entry in entries[2:]] == ["store-profile"] * _ROWS
    latest = entries[-1].payload["profile"]
    assert all(entry.payload["profile"] is latest for entry in entries[1:])
    assert latest == profile.to_dict()
    per_row = held / _ROWS
    assert per_row <= _VERSION_BAR, f"{per_row:.0f} B per learning update, bar {_VERSION_BAR}"
