"""State capture and restore for migrating or deactivated aglets.

When an aglet is dispatched to another host or deactivated to storage, the
runtime captures its instance state (everything except its binding to the
local context) and later restores it — the Python analogue of Aglets moving
"program code as well as the states of all the objects it is carrying".

**Ownership rule: capture copies, restore consumes.**  :func:`capture_state`
deep-copies the state once, and that one copy is the whole isolation
guarantee: origin, storage and destination share no mutable state.  A
snapshot is consumed by exactly one :func:`restore_state`, which installs
its values as they are; every caller (``dispatch`` → ``_receive``,
``deactivate`` → ``activate``, ``clone``) hands over a snapshot nothing else
references and drops it afterwards.

**A hop is one walk.**  :func:`_walk` makes that copy and counts the bytes
the network model charges for it in a single pass.  It handles itself the
shapes an aglet's state is made of — exact ``str``/``int``/``float``/
``bool``/``None``, ``dict``, ``list`` — and hands everything else (tuples,
sets, bytes, subclasses, objects, anything nested past ``_MAX_DEPTH``, a
container met twice) to the standard deep copy and :func:`_estimate`, so the
copy protocol and the size rules each keep one home.  Frozen value objects
(:class:`repro.wire.WireValue`) take that fallback, cross by reference and
are sized once — at ``depth <= _MEMO_DEPTH`` (3) only: truncation changes a
transaction record's size below depth 3, an item's (MBA ``results`` carry
them at 3) below 4, a credential's below 6.
"""

from __future__ import annotations

import copy
import sys
from typing import Any, Dict, Tuple

from repro.errors import SerializationError
from repro.wire import WireValue

__all__ = ["capture_state", "restore_state", "estimate_payload_bytes", "StateSnapshot"]

#: Instance attributes owned by the runtime rather than the agent; they are
#: never part of a migration payload and are re-bound on arrival.
RUNTIME_ATTRIBUTES = ("_context", "_proxy", "_info")


class StateSnapshot(dict):
    """A captured agent state: a plain dict plus the wire size its capture measured."""

    __slots__ = ("payload_bytes",)


#: ``_estimate`` truncates below this nesting level.
_MAX_DEPTH = 8
#: A :class:`WireValue`'s deepest leaf (the ``vars`` of a transaction kind's
#: ``__objclass__``) sits five levels below the object itself.
_MEMO_DEPTH = _MAX_DEPTH - 5
#: Exact types the walk sizes itself, beside ``str``, ``list`` and ``dict``.
_ATOM_BYTES = {type(None): 8, bool: 8, int: 16, float: 16}


def _estimate(value: Any, depth: int = 0) -> int:
    """Rough, deterministic size estimate of a Python value in bytes.

    The simulated network charges these bytes, so the result for a given
    state is part of every reproducible artifact.  A :class:`WireValue` met
    at ``depth <= _MEMO_DEPTH`` is sized once; deeper, where truncation
    gives it another size, the memo is neither read nor written.
    """
    if depth > _MAX_DEPTH:
        return 64
    if value is None or isinstance(value, bool):
        return 8
    if isinstance(value, (int, float)):
        return 16
    if isinstance(value, (str, bytes)):
        return 48 + len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 56 + sum(_estimate(item, depth + 1) for item in value)
    if isinstance(value, dict):
        return 64 + sum(
            _estimate(key, depth + 1) + _estimate(item, depth + 1)
            for key, item in value.items()
        )
    if hasattr(value, "__dict__"):
        if depth > _MEMO_DEPTH or not isinstance(value, WireValue):
            return 64 + _estimate(vars(value), depth + 1)
        size = getattr(value, "_wire_bytes", None)
        if size is None:
            size = 64 + _estimate(vars(value), depth + 1)
            object.__setattr__(value, "_wire_bytes", size)
        return size
    return int(sys.getsizeof(value)) if hasattr(sys, "getsizeof") else 64


def estimate_payload_bytes(state: Dict[str, Any]) -> int:
    """Estimate how many bytes a captured state occupies on the wire."""
    return _estimate(state)


def _walk(value: Any, depth: int, memo: Dict[int, Any]) -> Tuple[Any, int]:
    """``(deepcopy(value, memo), _estimate(value, depth))`` in one pass.

    ``memo`` is the deep copy's own: copies by ``id`` of the original and,
    under ``id(memo)``, the originals (alive while their ids are keys).  An
    alias or a cycle — a container already in it — takes the fallback.
    """
    cls = type(value)
    if depth <= _MAX_DEPTH:
        if cls is str:
            return value, 48 + len(value)
        if cls in _ATOM_BYTES:
            return value, _ATOM_BYTES[cls]
        if (cls is dict or cls is list) and id(value) not in memo:
            copied = memo[id(value)] = cls()
            memo[id(memo)].append(value)
            depth += 1
            if cls is list:
                size = 56
                for item in value:
                    item, item_size = _walk(item, depth, memo)
                    copied.append(item)
                    size += item_size
                return copied, size
            size = 64
            for key, item in value.items():
                item, item_size = _walk(item, depth, memo)
                key, key_size = _walk(key, depth, memo)
                copied[key] = item
                size += key_size + item_size
            return copied, size
    return copy.deepcopy(value, memo), _estimate(value, depth)


def capture_state(agent: Any) -> StateSnapshot:
    """Capture the migratable state of ``agent`` and its size on the wire.

    Runtime bindings (context, proxy, info record) are excluded; everything
    else is deep-copied, one memo per attribute.  Objects that cannot be
    deep-copied make the agent non-migratable: :class:`SerializationError`.
    """
    snapshot = StateSnapshot()
    size = 64
    for key, value in vars(agent).items():
        if key in RUNTIME_ATTRIBUTES:
            continue
        memo: Dict[int, Any] = {}
        memo[id(memo)] = []
        try:
            snapshot[key], value_size = _walk(value, 1, memo)
        except Exception as exc:  # pragma: no cover - defensive
            raise SerializationError(
                f"attribute {key!r} of {type(agent).__name__} cannot be serialized: {exc}"
            ) from exc
        size += 48 + len(key) + value_size
    snapshot.payload_bytes = size
    return snapshot


def restore_state(agent: Any, snapshot: Dict[str, Any]) -> None:
    """Install a captured state onto ``agent``, consuming ``snapshot``.

    The values are installed as they are: the caller must hold the only
    reference to ``snapshot`` and drop it afterwards (see the module
    docstring).
    """
    if not isinstance(snapshot, dict):
        raise SerializationError(
            f"state snapshot must be a dict, got {type(snapshot).__name__}"
        )
    for key, value in snapshot.items():
        if key in RUNTIME_ATTRIBUTES:
            continue
        setattr(agent, key, value)
