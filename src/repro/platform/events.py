"""Event records and the append-only event log.

The scheduler in :mod:`repro.platform.clock` executes callbacks; the classes
here provide a *recorded* view of what happened so that the workflow
benchmarks (Figures 4.2 and 4.3 of the paper) can assert the exact message
sequence between agents.

What a recorded step costs.  Every protocol step of every request is
recorded and the record must stay complete, so :class:`EventLog` keeps no
object per step: a step is one row across five columns (a packed double for
the timestamp; a reference each to the category, source and target strings
and to the keyword dict the caller's ``**payload`` already made) plus one
packed row number in its category's index — 48 bytes beside the payload,
and nothing the cyclic garbage collector has to walk unless the payload
itself holds a container.  :class:`Event` is therefore a *view*: readers
(``events``, iteration, ``by_category``, ``latest``, ...) get fresh
``Event`` objects built from the columns, equal to the ones recorded, and
two reads of the same row are ``==`` but not ``is``.  The string columns
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
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Event", "EventLog"]


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


class EventLog:
    """Append-only log of events with simple query helpers.

    The buyer agent server and the marketplaces record every protocol step
    here; integration tests assert the numbered sequences from Figures 4.1,
    4.2 and 4.3 against it.

    Storage is one column per :class:`Event` field, row ``i`` of every column
    being the ``i``-th recorded step, plus the rows of each category in
    record order.  Every reader builds its :class:`Event` views from the
    columns on the way out.
    """

    def __init__(self) -> None:
        self._timestamps = array("d")
        self._categories: List[str] = []
        self._sources: List[str] = []
        self._targets: List[str] = []
        self._payloads: List[Dict[str, Any]] = []
        self._columns = (
            self._timestamps, self._categories, self._sources, self._targets, self._payloads
        )
        self._rows: Dict[str, array] = {}
        # Each distinct category / source / target string, as first recorded.
        self._strings: Dict[str, str] = {}

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
        self._payloads.append(payload)

    def _view(self, row: int) -> Event:
        return Event(
            self._timestamps[row],
            self._categories[row],
            self._sources[row],
            self._targets[row],
            self._payloads[row],
        )

    def record(
        self,
        timestamp: float,
        category: str,
        source: str,
        target: str,
        **payload: Any,
    ) -> Event:
        # ``payload`` is this call's own keyword dict, so the log keeps it
        # as it is: nobody else holds a reference to copy it away from.
        self._store(timestamp, category, source, target, payload)
        # Nearly every caller drops the returned event, and the frozen
        # ``__init__`` would pay one ``object.__setattr__`` call per field
        # for it — half of what recording a step costs.  Filling the
        # instance dict is under half of that.  Readers' views still come
        # from ``Event(...)``: an instance whose ``__dict__`` was touched is
        # the larger object, which shows when ``events`` builds one per row.
        event = object.__new__(Event)
        fields = event.__dict__
        fields["timestamp"] = timestamp
        fields["category"] = category
        fields["source"] = source
        fields["target"] = target
        fields["payload"] = payload
        return event

    def append(self, event: Event) -> None:
        self._store(
            event.timestamp, event.category, event.source, event.target, event.payload
        )

    @property
    def events(self) -> List[Event]:
        return list(self)

    def events_since(self, row: int) -> List[Event]:
        """``events[row:]`` from that slice of each column: O(slice), not O(log)."""
        return list(map(Event, *(column[row:] for column in self._columns)))

    def __len__(self) -> int:
        return len(self._categories)

    def __iter__(self) -> Iterator[Event]:
        return map(Event, *self._columns)

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
        return dict(self._payloads[rows[-1]]) if rows else None

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
