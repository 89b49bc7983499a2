"""What a retained WAL entry costs the heap: a row, not an object.

A replicated fleet's set-up leaves every entry in the log until the first
anti-entropy tick truncates it, so the log's cost per entry beside the
payload's own values is paid for every consumer.
"""

import gc
import tracemalloc

from repro.core.profile import Profile
from repro.ecommerce.replication import ReplicationLog

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
