"""Event records and the event log: a ring of the most recent rows.

The scheduler in :mod:`repro.platform.clock` executes callbacks; the classes
here provide a *recorded* view of what happened so that the workflow
benchmarks (Figures 4.2 and 4.3 of the paper) can assert the exact message
sequence between agents.

What a recorded step costs.  Every protocol step of every request is
recorded, so :class:`EventLog` keeps one object per step at most, its
payload's values: a step is one row across six columns (a packed double
for the timestamp; a reference each to the category, source and target
strings and to the payload's key tuple, one object per distinct payload
shape; a tuple of the payload's values).  That is 48 bytes beside the
value tuple (40 bytes plus 8 per value); the caller's keyword dict would be
64 bytes empty and 184 with one to five keys.  A payload-less row points
both payload columns at the one empty tuple.  The collector untracks a
tuple of atomic values the first time it looks at it; a payload that holds
a container is tracked whoever keeps it.  :class:`Event` is therefore a
*view*: readers (iteration, ``by_category``, ``latest``, ...) get fresh
``Event`` objects built from the columns, each with a fresh payload dict
(``dict(zip(keys, values))``, keys in record order), equal to the ones
recorded, and two reads of the same row are ``==`` but not ``is``.  The
string columns hold one object per distinct string: callers build
categories and parties with f-strings, and a column would otherwise keep a
copy per row.

What the log keeps.  The columns are rings of
:attr:`EventLog.RETAINED_ROWS` slots: recording a row overwrites the
oldest, so the log's size does not depend on how long the platform runs.
Rows keep absolute numbers: ``len(log)`` counts every row ever recorded,
and ``events[i]``, ``events[start:stop]`` and ``events_since(start)``
address absolute rows.  ``events`` is a read-only :class:`EventRows`
sequence over the rows recorded so far, whose index or slice builds only
the rows it names, and through which no reader can change the log.  A read
that needs a row the ring has overwritten raises
:class:`~repro.errors.EventEvictedError` (not an ``IndexError``, which
sequence helpers take for the end): it never returns fewer rows or other
rows, and that holds for a view made before its rows were overwritten.
``count``, ``latest`` and ``last_payload`` stay exact over everything
recorded and O(1), from one tally per category.  ``by_category``,
``involving``, ``between``, ``categories()`` and iteration read the
retained rows only, by scanning their columns.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import eq, index
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import EventEvictedError

__all__ = ["Event", "EventLog", "EventRows"]


@dataclass(frozen=True)
class Event:
    """An immutable record of something that happened in the simulation."""

    timestamp: float
    category: str
    source: str
    target: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """Human-readable one-line description used by example scripts."""
        return (
            f"[{self.timestamp:10.3f}ms] {self.category:<22s} "
            f"{self.source} -> {self.target}"
        )


def _event(
    timestamp: float,
    category: str,
    source: str,
    target: str,
    keys: Tuple[str, ...],
    values: Tuple[Any, ...],
) -> Event:
    """The :class:`Event` view of one row of :class:`EventLog`'s columns."""
    return Event(timestamp, category, source, target, dict(zip(keys, values)))


class _Ring:
    """The columns of an :class:`EventLog` and the number of rows recorded
    into them.  Absolute row ``r`` lives in slot ``r % size`` until row
    ``r + size`` overwrites it.  :class:`EventRows` views share the ring, so
    they see what it has overwritten since they were made."""

    __slots__ = ("timestamps", "categories", "sources", "targets", "keys", "values",
                 "columns", "size", "recorded")

    def __init__(self, size: int) -> None:
        self.timestamps = array("d", [0.0]) * size
        self.categories: List[str] = [""] * size
        self.sources: List[str] = [""] * size
        self.targets: List[str] = [""] * size
        self.keys: List[Tuple[str, ...]] = [()] * size
        self.values: List[Tuple[Any, ...]] = [()] * size
        self.columns = (
            self.timestamps, self.categories, self.sources, self.targets,
            self.keys, self.values,
        )
        self.size = size
        self.recorded = 0

    @property
    def first(self) -> int:
        """The oldest row still retained."""
        return max(0, self.recorded - self.size)

    def _check(self, start: int) -> None:
        if start < self.recorded - self.size:
            raise EventEvictedError(
                f"event row {start} was overwritten: the log retains its last "
                f"{self.size} rows ({self.first}..{self.recorded - 1})"
            )

    def ordered(self, column: Any, start: int, stop: int) -> Any:
        """Rows ``start`` to ``stop - 1`` (retained, ``start < stop``) of
        ``column``, oldest first, as a fresh list or array."""
        head, tail = start % self.size, stop % self.size
        if head < tail:
            return column[head:tail]
        return column[head:] + column[:tail]

    def event(self, row: int) -> Event:
        self._check(row)
        slot = row % self.size
        return _event(*(column[slot] for column in self.columns))

    def events(self, start: int, stop: int) -> Iterator[Event]:
        """Rows ``start`` to ``stop - 1`` (``stop <= recorded``), built
        lazily from a copy of their slots taken now."""
        if start >= stop:
            return iter(())
        self._check(start)
        return map(_event, *(self.ordered(column, start, stop) for column in self.columns))


class EventRows(Sequence[Event]):
    """:attr:`EventLog.events`: absolute rows ``0`` to ``length - 1`` of the
    log's ring, read-only.  A row the ring has overwritten since raises
    :class:`~repro.errors.EventEvictedError`; ``clear`` gives the log a
    new ring, so a view made before it still reads the rows it covers.  An
    index or a slice builds the :class:`Event` views of just the rows it
    names; a slice is a list.  A view is ``==`` to a list or tuple of the
    same events."""

    __slots__ = ("_ring", "_length")

    def __init__(self, ring: _Ring, length: int) -> None:
        self._ring = ring
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, key: Union[int, slice]) -> Union[Event, List[Event]]:
        if isinstance(key, slice):
            start, stop, step = key.indices(self._length)
            if step == 1:
                return list(self._ring.events(start, stop))
            return [self[row] for row in range(start, stop, step)]
        row = index(key)
        if row < 0:
            row += self._length
        if not 0 <= row < self._length:
            raise IndexError("event index out of range")
        return self._ring.event(row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (EventRows, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventRows({self._length} rows)"


class EventLog:
    """Log of the most recent :attr:`RETAINED_ROWS` events, with simple
    query helpers.

    The buyer agent server and the marketplaces record every protocol step
    here; integration tests assert the numbered sequences from Figures 4.1,
    4.2 and 4.3 against it.

    Storage is a :class:`_Ring` of one column per :class:`Event` field,
    except that the payload is two — its key tuple and its value tuple —
    plus, per category, how many rows it has recorded and the columns of
    its latest row.  Every reader builds its :class:`Event` views from the
    columns on the way out.
    """

    #: How many of the most recent rows the log keeps: 16 384 is ~4x the
    #: largest window a reader in this repository takes (the wall-clock
    #: harness's fixed phase of ``trade``, ~4.2k rows).
    RETAINED_ROWS = 16_384

    def __init__(self) -> None:
        self._ring = _Ring(self.RETAINED_ROWS)
        # Per category: [rows recorded, the columns of the latest one].
        self._tallies: Dict[str, List[Any]] = {}
        # Each distinct category / source / target string, as first recorded.
        self._strings: Dict[str, str] = {}
        # Each distinct payload key tuple, as first recorded.
        self._shapes: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    def record(
        self,
        timestamp: float,
        category: str,
        source: str,
        target: str,
        **payload: Any,
    ) -> None:
        # ``payload`` is this call's own keyword dict and dies with it: the
        # log keeps its interned key tuple and a tuple of its values.  No
        # ``Event`` is built here; readers build their views from the columns.
        ring = self._ring
        row = ring.recorded
        slot = row % ring.size
        # The one write that can refuse its value goes first, so a bad
        # timestamp leaves the ring and the tallies as they were.
        ring.timestamps[slot] = timestamp
        intern = self._strings.setdefault
        category = intern(category, category)
        source = intern(source, source)
        target = intern(target, target)
        # An empty payload's key and value tuples are both the one ``()``.
        keys = tuple(payload)
        keys = self._shapes.setdefault(keys, keys)
        values = tuple(payload.values())
        ring.categories[slot] = category
        ring.sources[slot] = source
        ring.targets[slot] = target
        ring.keys[slot] = keys
        ring.values[slot] = values
        ring.recorded = row + 1
        latest = (ring.timestamps[slot], category, source, target, keys, values)
        tally = self._tallies.get(category)
        if tally is None:
            self._tallies[category] = [1, latest]
        else:
            tally[0] += 1
            tally[1] = latest

    def append(self, event: Event) -> None:
        self.record(
            event.timestamp, event.category, event.source, event.target, **event.payload
        )

    @property
    def events(self) -> "EventRows":
        """Every row recorded so far, by absolute row number, as a read-only
        sequence: an index or a slice builds only the rows it names."""
        return EventRows(self._ring, self._ring.recorded)

    def events_since(self, row: int) -> List[Event]:
        """``events[row:]``: O(slice), not O(log)."""
        return self.events[row:]

    def __len__(self) -> int:
        """Every row ever recorded, retained or not."""
        return self._ring.recorded

    def _retained(self, column: Any) -> Any:
        ring = self._ring
        if not ring.recorded:
            return column[:0]
        return ring.ordered(column, ring.first, ring.recorded)

    def __iter__(self) -> Iterator[Event]:
        """The retained rows, oldest first."""
        return self._ring.events(self._ring.first, self._ring.recorded)

    def _rows(self, matches: Iterator[bool]) -> List[Event]:
        """The retained rows whose entry of ``matches`` is true."""
        first, event = self._ring.first, self._ring.event
        return [event(first + offset) for offset, match in enumerate(matches) if match]

    def by_category(self, category: str) -> List[Event]:
        """The retained rows of ``category``."""
        return self._rows(map(category.__eq__, self._retained(self._ring.categories)))

    def count(self, category: str) -> int:
        """How many events of ``category`` were ever recorded."""
        tally = self._tallies.get(category)
        return tally[0] if tally else 0

    def latest(self, category: str) -> Optional[Event]:
        """The most recently recorded event of ``category`` (None when absent)."""
        tally = self._tallies.get(category)
        return _event(*tally[1]) if tally else None

    def last_payload(self, category: str) -> Optional[Dict[str, Any]]:
        """Payload of the most recent ``category`` event (None when absent)."""
        latest = self.latest(category)
        return None if latest is None else latest.payload

    def involving(self, participant: str) -> List[Event]:
        """The retained rows ``participant`` sent or received."""
        return self._rows(
            participant in parties
            for parties in zip(
                self._retained(self._ring.sources), self._retained(self._ring.targets)
            )
        )

    def categories(self) -> List[str]:
        """The categories of the retained rows in record order."""
        return list(self._retained(self._ring.categories))

    def between(self, start: float, end: float) -> List[Event]:
        """The retained rows stamped from ``start`` to ``end`` inclusive."""
        return self._rows(
            start <= timestamp <= end for timestamp in self._retained(self._ring.timestamps)
        )

    def clear(self) -> None:
        self.__init__()
