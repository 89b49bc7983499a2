"""The one walk of a hop equals the two passes it replaced.

``capture_state`` must return what ``copy.deepcopy`` per attribute returned
(same values, same aliasing, nothing mutable shared with the original) and
charge what ``_estimate`` charged for it — for the shapes the walk handles
itself and for everything it hands back to ``copy.deepcopy`` / ``_estimate``.
"""

import copy
import enum
import pickle

from hypothesis import given, settings, strategies as st

from repro.agents.security import AgentCredential
from repro.agents.serialization import (
    RUNTIME_ATTRIBUTES,
    _MAX_DEPTH,
    _MEMO_DEPTH,
    _estimate,
    capture_state,
    estimate_payload_bytes,
)
from repro.core.items import Item
from repro.ecommerce.transactions import TransactionKind, TransactionRecord
from repro.wire import WireValue


# ---------------------------------------------------------------------------
# Shapes the walk does not handle itself
# ---------------------------------------------------------------------------


class Colour(enum.Enum):
    RED = "red"
    BLUE = "blue"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Count(int):
    pass


class Tag(str):
    pass


class Bag(dict):
    pass


class Row(list):
    pass


class Box:
    """A plain object: sized through ``vars``, copied through ``__reduce_ex__``."""

    def __init__(self, **fields):
        vars(self).update(fields)

    def __eq__(self, other):
        return type(other) is Box and vars(self) == vars(other)

    __hash__ = None


class _Agent:
    """Stands in for an aglet: instance attributes plus the runtime bindings."""

    def __init__(self, state):
        self._context, self._proxy, self._info = object(), object(), object()
        vars(self).update(state)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

words = st.text(alphabet="abcxyz-", max_size=8)
numbers = st.floats(allow_nan=False, allow_infinity=False, width=32)

credentials = st.builds(
    AgentCredential, agent_id=words, owner=words, issued_at=numbers,
    expires_at=numbers, session_key=words, signature=words,
)
transactions = st.builds(
    TransactionRecord, transaction_id=words, user_id=words, item_id=words,
    marketplace=words, kind=st.sampled_from(TransactionKind),
    price=st.floats(0, 100), list_price=st.floats(0, 100), timestamp=numbers, seller=words,
)
items = st.builds(
    Item.build, item_id=st.text(alphabet="abc", min_size=1, max_size=4), name=words,
    category=words, subcategory=words,
    terms=st.dictionaries(st.text(alphabet="abc", min_size=1, max_size=3),
                          st.floats(0, 1), max_size=3),
    price=st.floats(0, 100), seller=words,
)
wire_values = st.one_of(credentials, transactions, items)

hashable = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), numbers, words,
    st.binary(max_size=6), st.sampled_from(Colour), st.sampled_from(Level),
    st.builds(Count, st.integers(-5, 5)), st.builds(Tag, words),
)
leaves = st.one_of(
    hashable, wire_values, st.frozensets(hashable, max_size=3), st.sets(hashable, max_size=3),
)
keys = st.one_of(words, st.integers(-5, 5), st.none(), st.tuples(words, st.integers(0, 3)))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(keys, children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.lists(children, max_size=3).map(Row),
        st.dictionaries(words, children, max_size=3).map(Bag),
        st.dictionaries(st.sampled_from(["a", "b", "c"]), children, max_size=3)
        .map(lambda fields: Box(**fields)),
    )


def _nest(value, levels, kind):
    """``value`` wrapped ``levels`` deep, past where the size walk truncates."""
    for _ in range(levels):
        value = {"list": [value], "dict": {"in": value}, "tuple": (value,),
                 "box": Box(inner=value)}[kind]
    return value


values = st.recursive(leaves, _containers, max_leaves=12)
deep_values = st.builds(
    _nest, values, st.integers(0, _MAX_DEPTH + 3),
    st.sampled_from(["list", "dict", "tuple", "box"]),
)
states = st.dictionaries(st.text(alphabet="abcdefgh_", min_size=1, max_size=6),
                         deep_values, max_size=4)


# ---------------------------------------------------------------------------
# What "the same copy" means
# ---------------------------------------------------------------------------

_ATOMS = (str, bytes, int, float, type(None), enum.Enum)
_IMMUTABLE = _ATOMS + (WireValue, frozenset)


def _shape(copied, original, seen):
    """``copied``'s graph as nested tuples: the type and content of every
    node, a back-reference where one repeats (aliases, cycles), and whether
    the node is the original's own object."""
    if isinstance(copied, WireValue):
        return ("by reference", repr(copied), copied is original)
    if isinstance(copied, _ATOMS):
        return (type(copied).__name__, repr(copied))
    if id(copied) in seen:
        return ("again", seen[id(copied)])
    seen[id(copied)] = len(seen)
    if isinstance(copied, (set, frozenset)):
        body = tuple(sorted(map(repr, copied)))
    elif isinstance(copied, dict):
        body = tuple(
            (_shape(key, other_key, seen), _shape(value, other_value, seen))
            for (key, value), (other_key, other_value) in zip(copied.items(), original.items())
        )
    elif isinstance(copied, (list, tuple)):
        body = tuple(_shape(a, b, seen) for a, b in zip(copied, original))
    else:
        body = _shape(vars(copied), vars(original), seen)
    size = len(vars(copied) if isinstance(copied, Box) else copied)
    return (type(copied).__name__, copied is original, size, body)


def _mutable_nodes(value, found):
    """ids of every mutable container reachable from ``value``."""
    if isinstance(value, _IMMUTABLE) or id(value) in found:
        return found
    if not isinstance(value, tuple):
        found[id(value)] = value
    if isinstance(value, dict):
        children = [*value, *value.values()]
    elif isinstance(value, (list, tuple)):
        children = value
    elif isinstance(value, set):
        children = ()
    else:
        children = vars(value).values()
    for child in children:
        _mutable_nodes(child, found)
    return found


def _check_capture(state):
    """Every claim of the module docstring, for one state."""
    twin = pickle.loads(pickle.dumps(state))  # equal, and every size memo cold
    agent = _Agent(state)
    snapshot = capture_state(agent)
    assert list(snapshot) == list(state)
    assert not set(snapshot) & set(RUNTIME_ATTRIBUTES)

    # (a) the copy: per attribute, what copy.deepcopy makes.
    captured_nodes = {}
    for key, original in state.items():
        reference = copy.deepcopy(original)
        assert _shape(snapshot[key], original, {}) == _shape(reference, original, {})
        mine = _mutable_nodes(snapshot[key], {})
        assert not set(mine) & set(_mutable_nodes(original, {}))  # nothing shared
        assert not set(mine) & set(captured_nodes)  # aliasing across attributes is cut
        captured_nodes.update(mine)

    # (b) the size: what _estimate charges, memo cold and warm alike.
    cold = snapshot.payload_bytes
    assert cold == _estimate(twin)
    assert cold == estimate_payload_bytes(snapshot) == _estimate(state)
    assert capture_state(agent).payload_bytes == cold
    return snapshot


class TestWalkEqualsTwoPasses:
    @given(states)
    @settings(max_examples=200, deadline=None)
    def test_generated_states(self, state):
        snapshot = _check_capture(state)
        assert snapshot == {key: copy.deepcopy(value) for key, value in state.items()}

    @given(values, st.sampled_from(["list", "dict", "row", "box"]))
    @settings(max_examples=100, deadline=None)
    def test_aliases_survive_inside_an_attribute_and_are_cut_across(self, payload, kind):
        shared = {"list": [payload], "dict": {"k": payload}, "row": Row([payload]),
                  "box": Box(inner=payload)}[kind]
        state = {
            "twice": [shared, shared, {"again": shared}, (shared,)],
            "other": shared,
            "deep": _nest([shared, shared], _MAX_DEPTH, "list"),
        }
        snapshot = _check_capture(state)
        first, second, inside, in_tuple = snapshot["twice"]
        assert first is second is inside["again"] is in_tuple[0]
        assert first is not shared and snapshot["other"] is not first
        assert snapshot["other"] is not shared

    @given(values, st.integers(0, _MAX_DEPTH + 2))
    @settings(max_examples=100, deadline=None)
    def test_cycles(self, payload, levels):
        loop = [payload]
        loop.append(loop)
        table = {"payload": payload}
        table["self"] = table
        box = Box(payload=payload, ring=[])
        box.ring.append({"box": box, "loop": loop})
        state = {"loop": loop, "table": table, "box": box,
                 "deep": _nest(loop, levels, "dict")}
        snapshot = _check_capture(state)
        assert snapshot["loop"][1] is snapshot["loop"] is not loop
        assert snapshot["table"]["self"] is snapshot["table"] is not table
        ring = snapshot["box"].ring[0]
        assert ring["box"] is snapshot["box"] is not box
        assert ring["loop"][1] is ring["loop"] is not snapshot["loop"]


# ---------------------------------------------------------------------------
# Goldens: the size memo of a value object, depth by depth
# ---------------------------------------------------------------------------


def _credential():
    return AgentCredential(
        agent_id="MBA-1@buyer-server", owner="alice", issued_at=10.0, expires_at=60010.0,
        session_key="0" * 32, signature="f" * 64,
    )


def _transaction():
    return TransactionRecord(
        "txn-market-1-1", "alice", "book-1", "market-1", TransactionKind.DIRECT_PURCHASE,
        12.5, 12.5, 100.0, seller="seller-a",
    )


def _item():
    return Item.build("book-1", "Dune", "books", "scifi",
                      {"desert": 0.9, "spice": 0.7, "epic": 0.4}, 12.5, "seller-a")


class TestValueObjectSizes:
    """The integers are what ``_estimate`` returned before credentials and
    transaction records memoized their size; the memo must not move them."""

    def test_sizes_per_depth_are_pinned(self):
        for build, by_depth in (
            (_credential, {0: 811, 1: 811, 2: 811, 3: 811, 4: 811, 5: 811}),
            (_transaction, {0: 1565, 1: 1565, 2: 1565, 3: 1565, 4: 1589, 5: 1602}),
        ):
            warm = build()
            for depth, expected in by_depth.items():
                assert _estimate(build(), depth) == expected  # memo cold
                assert _estimate(warm, depth) == expected  # warm from depth 0 on

    def test_memo_is_used_down_to_depth_3_only(self):
        assert _MEMO_DEPTH == 3
        for build in (_credential, _transaction, _item):
            for depth in range(_MEMO_DEPTH + 1):
                value = build()
                size = _estimate(value, depth)
                assert value._wire_bytes == size  # written ...
                object.__setattr__(value, "_wire_bytes", -1)
                assert _estimate(value, depth) == -1  # ... and read
            for depth in (4, 5):
                value = build()
                size = _estimate(value, depth)
                assert not hasattr(value, "_wire_bytes")  # not written ...
                object.__setattr__(value, "_wire_bytes", -1)
                assert _estimate(value, depth) == size  # ... and not read

    def test_a_hop_sizes_them_like_the_estimate(self):
        credential, transaction = _credential(), _transaction()
        state = {"credential": credential, "transaction": transaction,
                 "outcome": {"transaction": transaction, "ok": True, "error": None}}
        snapshot = _check_capture(state)
        assert snapshot.payload_bytes == 64 + (58 + 811) + (59 + 1565) + (
            55 + 64 + (59 + 1565) + (50 + 8) + (53 + 8))
        assert snapshot["credential"] is credential
        assert snapshot["outcome"]["transaction"] is snapshot["transaction"] is transaction
