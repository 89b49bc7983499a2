"""Event records and the append-only event log.

The scheduler in :mod:`repro.platform.clock` executes callbacks; the classes
here provide a *recorded* view of what happened so that the workflow
benchmarks (Figures 4.2 and 4.3 of the paper) can assert the exact message
sequence between agents.

What a recorded step costs.  Every protocol step of every request is
recorded and the record must stay complete, so :class:`EventLog` keeps one
object per step at most, its payload's values: a step is one row across six
columns (a packed double for the timestamp; a reference each to the
category, source and target strings and to the payload's key tuple, one
object per distinct payload shape; a tuple of the payload's values) plus
one packed row number in its category's index.  That is 56 bytes beside the
value tuple (40 bytes plus 8 per value); the caller's keyword dict would be
64 bytes empty and 184 with one to five keys.  A payload-less row points
both payload columns at the one empty tuple.  The collector untracks a
tuple of atomic values the first time it looks at it; a payload that holds
a container is tracked whoever keeps it.  :class:`Event` is therefore a
*view*: readers (iteration, ``by_category``, ``latest``, ...) get fresh
``Event`` objects built from the columns, each with a fresh payload dict
(``dict(zip(keys, values))``, keys in record order), equal to the ones
recorded, and two reads of the same row are ``==`` but not ``is``.
``events`` builds none of them: it is a read-only :class:`EventRows`
sequence over the rows recorded so far, whose index or slice
(``events[start:]``, as ``events_since(start)``) builds only the rows it
names, and through which no reader can change the log.  The string columns
hold one object per distinct string: callers build categories and parties
with f-strings, and a column would otherwise keep a copy per row.  The
category index makes ``count``, ``latest`` and ``last_payload`` O(1) and
``by_category`` O(matches); ``involving`` and ``between`` still scan their
columns.  The log is unbounded — dropping old rows changes what
``events_since(row)`` and ``events[start:]`` readers see, which is a policy
about what to keep and not a representation (ROADMAP item 4).
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice
from operator import eq, index
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

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


class EventRows(Sequence[Event]):
    """:attr:`EventLog.events`: the first ``length`` rows of the log's
    columns, read-only.  The log only appends to its columns (``clear``
    replaces them), so the rows a view covers never change after it is
    made.  An index or a slice builds the :class:`Event` views of just the
    rows it names; a slice is a list.  A view is ``==`` to a list or tuple
    of the same events."""

    __slots__ = ("_columns", "_length")

    def __init__(self, columns: Tuple[Any, ...], length: int) -> None:
        self._columns = columns
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Event]:
        return islice(map(_event, *self._columns), self._length)

    def __getitem__(self, key: Union[int, slice]) -> Union[Event, List[Event]]:
        if isinstance(key, slice):
            start, stop, step = key.indices(self._length)
            if step == 1:
                return list(map(_event, *(column[start:stop] for column in self._columns)))
            return [self[row] for row in range(start, stop, step)]
        row = index(key)
        if row < 0:
            row += self._length
        if not 0 <= row < self._length:
            raise IndexError("event index out of range")
        return _event(*(column[row] for column in self._columns))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (EventRows, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventRows({self._length} rows)"


class EventLog:
    """Append-only log of events with simple query helpers.

    The buyer agent server and the marketplaces record every protocol step
    here; integration tests assert the numbered sequences from Figures 4.1,
    4.2 and 4.3 against it.

    Storage is one column per :class:`Event` field, except that the payload
    is two — its key tuple and its value tuple — row ``i`` of every column
    being the ``i``-th recorded step, plus the rows of each category in
    record order.  Every reader builds its :class:`Event` views from the
    columns on the way out.
    """

    def __init__(self) -> None:
        self._timestamps = array("d")
        self._categories: List[str] = []
        self._sources: List[str] = []
        self._targets: List[str] = []
        self._keys: List[Tuple[str, ...]] = []
        self._values: List[Tuple[Any, ...]] = []
        self._columns = (
            self._timestamps, self._categories, self._sources, self._targets,
            self._keys, self._values,
        )
        self._rows: Dict[str, array] = {}
        # Each distinct category / source / target string, as first recorded.
        self._strings: Dict[str, str] = {}
        # Each distinct payload key tuple, as first recorded.
        self._shapes: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    def _store(
        self,
        timestamp: float,
        category: str,
        source: str,
        target: str,
        payload: Dict[str, Any],
    ) -> None:
        # The one append that can refuse its value goes first, so a bad
        # timestamp leaves every column as long as it was.
        self._timestamps.append(timestamp)
        intern = self._strings.setdefault
        category = intern(category, category)
        try:
            rows = self._rows[category]
        except KeyError:
            rows = self._rows[category] = array("q")
        rows.append(len(self._categories))
        self._categories.append(category)
        self._sources.append(intern(source, source))
        self._targets.append(intern(target, target))
        # An empty payload's key and value tuples are both the one ``()``.
        keys = tuple(payload)
        self._keys.append(self._shapes.setdefault(keys, keys))
        self._values.append(tuple(payload.values()))

    def _view(self, row: int) -> Event:
        return _event(
            self._timestamps[row],
            self._categories[row],
            self._sources[row],
            self._targets[row],
            self._keys[row],
            self._values[row],
        )

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
        self._store(timestamp, category, source, target, payload)

    def append(self, event: Event) -> None:
        self._store(
            event.timestamp, event.category, event.source, event.target, event.payload
        )

    @property
    def events(self) -> "EventRows":
        """The rows recorded so far, as a read-only sequence: an index or a
        slice builds only the rows it names."""
        return EventRows(self._columns, len(self))

    def events_since(self, row: int) -> List[Event]:
        """``events[row:]``: O(slice), not O(log)."""
        return self.events[row:]

    def __len__(self) -> int:
        return len(self._categories)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def by_category(self, category: str) -> List[Event]:
        return [self._view(row) for row in self._rows.get(category, ())]

    def count(self, category: str) -> int:
        """How many events of ``category`` were recorded."""
        return len(self._rows.get(category, ()))

    def latest(self, category: str) -> Optional[Event]:
        """The most recently recorded event of ``category`` (None when absent)."""
        rows = self._rows.get(category)
        return self._view(rows[-1]) if rows else None

    def last_payload(self, category: str) -> Optional[Dict[str, Any]]:
        """Payload of the most recent ``category`` event (None when absent)."""
        rows = self._rows.get(category)
        return self._view(rows[-1]).payload if rows else None

    def involving(self, participant: str) -> List[Event]:
        return [
            self._view(row)
            for row, parties in enumerate(zip(self._sources, self._targets))
            if participant in parties
        ]

    def categories(self) -> List[str]:
        """The sequence of event categories in record order."""
        return list(self._categories)

    def between(self, start: float, end: float) -> List[Event]:
        return [
            self._view(row)
            for row, timestamp in enumerate(self._timestamps)
            if start <= timestamp <= end
        ]

    def clear(self) -> None:
        self.__init__()
