"""State capture and restore for migrating or deactivated aglets.

When an aglet is dispatched to another host or deactivated to storage, the
runtime captures its instance state (everything except its binding to the
local context) and later restores it — the Python analogue of Aglets moving
"program code as well as the states of all the objects it is carrying".

**Ownership rule: capture copies, restore consumes.**  :func:`capture_state`
deep-copies the state once, and that one copy is the whole isolation
guarantee: origin and destination share no mutable state, and an agent
deactivated to storage cannot be mutated behind the runtime's back.  A
snapshot is consumed by exactly one :func:`restore_state`, which installs
its values as they are; every caller (``dispatch`` → ``_receive``,
``deactivate`` → ``activate``, ``clone``) hands over a snapshot nothing else
references and drops it afterwards.  Immutable value objects
(:class:`repro.core.items.Item`) travel by reference — their
``__deepcopy__`` returns ``self``.  A hop therefore costs one deep copy of
the aglet's mutable containers plus one size estimate, which the network
model charges as the migration payload.
"""

from __future__ import annotations

import copy
import sys
from typing import Any, Dict, Tuple

from repro.errors import SerializationError

__all__ = ["capture_state", "restore_state", "estimate_payload_bytes", "StateSnapshot"]

#: Instance attributes owned by the runtime rather than the agent; they are
#: never part of a migration payload and are re-bound on arrival.
RUNTIME_ATTRIBUTES = ("_context", "_proxy", "_info")


class StateSnapshot(dict):
    """A captured agent state: a plain dict with a payload-size estimate."""

    @property
    def payload_bytes(self) -> int:
        return estimate_payload_bytes(self)


#: ``_estimate`` truncates below this nesting level.
_MAX_DEPTH = 8
#: Deepest level at which a memoized size is exact: the deepest leaf of an
#: object that opts in sits (at most) four levels below the object itself.
_MEMO_DEPTH = _MAX_DEPTH - 4


def _estimate(value: Any, depth: int = 0) -> int:
    """Rough, deterministic size estimate of a Python value in bytes.

    The simulated network charges these bytes, so the result for a given
    state is part of every reproducible artifact.  An immutable value object
    opts into having its size computed once by declaring a ``_wire_bytes``
    slot (:class:`repro.core.items.Item`).  Two rules keep the memo equal to
    the walk:

    - objects are sized through ``vars(value)``, so the memo must not live in
      the instance ``__dict__`` (it would be counted into the next estimate);
    - the walk truncates at ``depth > _MAX_DEPTH``, so the same object has
      another size when met deep inside a structure.  The memo is read and
      written only at ``depth <= _MEMO_DEPTH``, where the object's deepest
      leaf (for an item: a term of a ``(term, weight)`` pair of ``terms``,
      four levels down) is still walked; deeper objects take the walk.  MBA
      ``results`` carry items at depth 3.
    """
    if depth > _MAX_DEPTH:
        return 64
    if value is None or isinstance(value, bool):
        return 8
    if isinstance(value, (int, float)):
        return 16
    if isinstance(value, str):
        return 48 + len(value)
    if isinstance(value, bytes):
        return 48 + len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 56 + sum(_estimate(item, depth + 1) for item in value)
    if isinstance(value, dict):
        return 64 + sum(
            _estimate(key, depth + 1) + _estimate(item, depth + 1)
            for key, item in value.items()
        )
    if hasattr(value, "__dict__"):
        if depth > _MEMO_DEPTH or not hasattr(type(value), "_wire_bytes"):
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


def capture_state(agent: Any) -> StateSnapshot:
    """Capture the migratable state of ``agent``.

    Runtime bindings (context, proxy, info record) are excluded; everything
    else is deep-copied — the one copy a hop makes.  Objects that cannot be
    deep-copied make the agent non-migratable, which surfaces as
    :class:`SerializationError`.
    """
    state: Dict[str, Any] = {}
    for key, value in vars(agent).items():
        if key in RUNTIME_ATTRIBUTES:
            continue
        try:
            state[key] = copy.deepcopy(value)
        except Exception as exc:  # pragma: no cover - defensive
            raise SerializationError(
                f"attribute {key!r} of {type(agent).__name__} cannot be serialized: {exc}"
            ) from exc
    return StateSnapshot(state)


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
