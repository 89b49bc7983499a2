"""Differential property test: the WAL's rows read back as the entries appended.

``ReplicationLog`` keeps each retained entry as a row of columns and builds
``ReplicationLogEntry`` views on the way out.  Random sequences of
``append`` / ``truncate_through`` / ``entries_since`` run against the log
and against a plain list of entries (the log as it was once stored), and
every answer must match: each entry's ``seq``, ``op``, ``timestamp`` and
``payload`` (key order included, over payloads of mixed shapes), the
shipment size, ``last_seq``, ``truncated_seq``, ``len`` and which
``ReplicationError`` each refused call raises.
"""

from hypothesis import given, settings, strategies as st

from repro.ecommerce.replication import (
    ENTRY_OVERHEAD_BYTES,
    ReplicationLog,
    ReplicationLogEntry,
)
from repro.errors import ReplicationError

OPS = ("register", "store-profile", "interaction", "login", "unregister")
KEYS = ("user_id", "timestamp", "display_name", "profile", "interaction")
values = st.one_of(
    st.none(),
    st.integers(-5, 5),
    st.floats(allow_nan=False, width=32),
    st.text(max_size=4),
    st.tuples(st.integers(0, 3), st.text(max_size=2)),
)
payloads = st.lists(st.sampled_from(KEYS), unique=True, max_size=4).flatmap(
    lambda keys: st.lists(values, min_size=len(keys), max_size=len(keys)).map(
        lambda vals: dict(zip(keys, vals))
    )
)
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"), st.sampled_from(OPS), payloads,
            st.floats(0.0, 1e6, allow_nan=False),
        ),
        st.tuples(st.just("truncate"), st.integers(-2, 40)),
        st.tuples(st.just("since"), st.integers(-2, 40)),
    ),
    max_size=60,
)


class ReferenceLog:
    """The log as a list of whole entries: what the rows must read back as."""

    def __init__(self) -> None:
        self.entries = []
        self.base = 0

    @property
    def last_seq(self) -> int:
        return self.base + len(self.entries)

    def append(self, op, payload, timestamp):
        self.entries.append(ReplicationLogEntry(self.last_seq + 1, op, dict(payload), timestamp))

    def entries_since(self, seq):
        if seq < 0:
            raise ReplicationError("non-negative")
        if seq < self.base:
            raise ReplicationError("truncated")
        return self.entries[seq - self.base:]

    def truncate_through(self, seq):
        if seq <= self.base:
            return 0
        if seq > self.last_seq:
            raise ReplicationError("only reaches")
        dropped = seq - self.base
        del self.entries[:dropped]
        self.base = seq
        return dropped


REFUSALS = ("non-negative", "truncated", "only reaches")


def answer(call):
    """What ``call`` returns, or a tuple naming the refusal it raised."""
    try:
        return call()
    except ReplicationError as error:
        return tuple(refusal for refusal in REFUSALS if refusal in str(error))


def as_rows(entries):
    return [
        (entry.seq, entry.op, entry.timestamp, entry.payload, list(entry.payload))
        for entry in entries
    ]


@settings(max_examples=200, deadline=None)
@given(steps=steps)
def test_rows_read_back_as_the_entries_appended(steps):
    log, reference = ReplicationLog(), ReferenceLog()
    for step in steps:
        if step[0] == "append":
            _, op, payload, timestamp = step
            reference.append(op, payload, timestamp)
            entry = log.append(op, dict(payload), timestamp)
            assert as_rows([entry]) == as_rows(reference.entries[-1:])
        elif step[0] == "truncate":
            assert answer(lambda: log.truncate_through(step[1])) == answer(
                lambda: reference.truncate_through(step[1])
            )
        else:
            expected = answer(lambda: reference.entries_since(step[1]))
            shipped = answer(lambda: log.entries_since(step[1]))
            if isinstance(expected, tuple):
                assert shipped == expected
            else:
                assert as_rows(shipped) == as_rows(expected)
                sizes = [ENTRY_OVERHEAD_BYTES + len(repr(entry.payload)) for entry in expected]
                assert [entry.payload_bytes() for entry in shipped] == sizes
                assert log.shipment_bytes(shipped) == sum(sizes)
                assert log.shipment_bytes(shipped) == sum(sizes)  # from the kept sizes
                for entry in shipped:  # a reader's dict is its own
                    entry.payload["scribble"] = True
        assert (log.last_seq, log.truncated_seq, len(log)) == (
            reference.last_seq, reference.base, len(reference.entries)
        )
    assert as_rows(log.entries_since(log.truncated_seq)) == as_rows(reference.entries)


def test_append_hands_back_the_callers_dict_and_keeps_only_its_values():
    log = ReplicationLog()
    payload = {"user_id": "ann", "timestamp": 1.0}
    entry = log.append("login", payload, 1.0)
    assert entry.payload is payload
    shipped = log.entries_since(0)[0]
    assert shipped == entry and shipped.payload is not payload
    assert list(shipped.payload) == ["user_id", "timestamp"]


def test_rows_of_one_shape_share_one_key_tuple():
    log = ReplicationLog()
    for step in range(100):
        log.append("login", {"user_id": f"user-{step}", "timestamp": float(step)}, float(step))
        log.append("unregister", {"user_id": f"user-{step}"}, float(step))
    assert len({id(keys) for keys in log._keys}) == 2
    assert len({id(op) for op in log._ops}) == 2
