"""Versioned shard map: the single source of truth for consumer placement.

Before this module, knowledge of "which server owns which partition of the
consumer community" was duplicated across the fleet's ``_shard_owner`` list,
the coordinator agent's ``shard_map`` dict, the replication ring wiring and
the gateway's routing — and a promotion failover mutated them all in
lockstep by hand.  :class:`ShardMap` makes that knowledge first-class:

- **base placement**: a consumer's founding shard is the CRC32 of their id
  (stable across processes, unlike ``hash(str)``) modulo the founding shard
  count, frozen at construction so later splits never move it;
- an **epoch number**, bumped atomically on every topology change, that
  consumers (fleet routing, the coordinator's domain registry) can key
  caches and sync decisions on;
- the **shard → owner** assignment itself, keyed by server *name* so the
  map never dereferences a server object (and therefore never reads dead
  memory);
- a **per-shard migration state machine** (``steady`` / ``migrating`` with
  a typed :class:`ShardMigration` record) so an in-flight handback or
  split is visible to every layer instead of being a private loop
  variable;
- **split lineage**: when a hot shard splits, the child shard ids and the
  per-split membership choice are recorded here, so routing a consumer
  through one or more historical splits is a pure deterministic function
  of this map — any two replicas of the map route identically.

The map is a plain in-memory structure with no clock, network or metrics
dependencies: mutating it is free of simulation side effects, which is
what lets the fleet keep its byte-identity guarantees (an idle map is
byte-invisible; only the elastic *operations* that use it touch the
simulated world).

Shard ids are dense: ``0 .. num_shards-1``, with splits appending
``num_shards`` — so callers may keep indexing per-shard arrays by id.

:func:`merge_topk` folds the per-shard answers of a fleet fan-out back into
the global ranking.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union,
)

from repro.errors import ShardMapError

__all__ = [
    "SHARD_STEADY",
    "SHARD_MIGRATING",
    "ShardMigration",
    "ShardMap",
    "merge_topk",
    "split_membership",
]

#: Shard states.  ``steady`` shards are served by their owner with no
#: transfer in flight; ``migrating`` shards have a :class:`ShardMigration`
#: record attached (a handback awaiting its atomic flip, or a split child
#: still receiving its movers).
SHARD_STEADY = "steady"
SHARD_MIGRATING = "migrating"


def _stable_hash(text: str) -> int:
    """Deterministic across processes (``hash(str)`` is salted per run)."""
    return zlib.crc32(text.encode("utf-8"))


def merge_topk(
    ranked_lists: Iterable[List[Tuple[str, float]]],
    top_k: int,
) -> List[Tuple[str, float]]:
    """Fold per-shard ranked ``(user_id, score)`` lists into the global top-k.

    **Why the merge is exact.**  Every consumer lives in exactly one shard,
    and a candidate's score depends only on the target and that candidate.
    A member of the global top-k is beaten by at most k-1 candidates
    globally, hence by at most k-1 within its own shard, so it appears in its
    shard's top-k list.  Re-sorting the union with the key of the
    single-index and brute-force paths (score descending, user id ascending)
    and trimming to k therefore reproduces their ranking byte for byte.  That
    key is a strict total order over distinct consumers, so equal-score
    candidates order by user id **regardless of shard count or fan-out
    arrival order**.

    Duplicate user ids across lists are collapsed to their best score before
    ranking.  Disjointness is the steady-state single-owner invariant, but a
    degraded fan-out can transiently break it: a stale replica answering for
    an unreachable shard may still contain a consumer who migrated away (or
    was drained to a survivor) before the crash, and scoring them twice must
    not push a genuine neighbour out of the top-k.
    """
    best: Dict[str, float] = {}
    for ranked in ranked_lists:
        for user_id, score in ranked:
            current = best.get(user_id)
            if current is None or score > current:
                best[user_id] = score
    merged = sorted(best.items(), key=lambda pair: (-pair[1], pair[0]))
    return merged[:top_k]


def split_membership(user_id: str, parent: int, split_index: int) -> bool:
    """Whether ``user_id`` moves to the child of split ``split_index`` of ``parent``.

    The deterministic membership function behind live shard splitting: a
    stable hash over the consumer id, the parent shard id and the ordinal
    of the split (a shard can split more than once; each split re-cuts the
    *remaining* community).  Pure and stateless so the migration loop, the
    routing path and any reference reimplementation agree byte for byte.
    """
    return _stable_hash(f"{user_id}|split|{parent}|{split_index}") % 2 == 1


@dataclass(frozen=True)
class ShardMigration:
    """One in-flight ownership change of a single shard.

    ``kind`` is free-form provenance ("handback", "split", "scale-in", ...);
    what matters mechanically is ``flip_on_commit``: a handback keeps the
    source as owner until the atomic commit flips ownership to ``target``,
    while a split child is owned by its target from the start (movers land
    on it one by one) and commit merely marks it steady.
    """

    shard: int
    kind: str
    source: str
    target: str
    started_epoch: int
    flip_on_commit: bool = True


class ShardMap:
    """Epoch-versioned shard → owner assignments with migration states.

    Listeners subscribe with :meth:`subscribe` and are invoked as
    ``listener(shard_map, reason, shards)`` after every epoch bump; the
    ``reason`` string ("promote", "migration-begin", "migration-commit",
    "migration-abort", "split-begin", ...) lets a listener distinguish the
    existing failover path (which already syncs the coordinator through its
    own message) from the elastic operations that need a fresh sync.
    """

    def __init__(self, owners: Union[Mapping[int, str], Iterable[str]]) -> None:
        if isinstance(owners, Mapping):
            assignments = {int(shard): str(owner) for shard, owner in owners.items()}
        else:
            assignments = {index: str(owner) for index, owner in enumerate(owners)}
        if not assignments:
            raise ShardMapError("a shard map needs at least one shard")
        if sorted(assignments) != list(range(len(assignments))):
            raise ShardMapError(
                f"shard ids must be dense 0..n-1, got {sorted(assignments)}"
            )
        self._owners: Dict[int, str] = dict(sorted(assignments.items()))
        #: Founding shard count, the modulus of :meth:`base_shard`: frozen
        #: so splits re-cut ownership without moving anybody's base shard.
        self._base_shards = len(self._owners)
        self._states: Dict[int, str] = {shard: SHARD_STEADY for shard in self._owners}
        self._migrations: Dict[int, ShardMigration] = {}
        #: parent shard id → child shard ids, in split order.  Routing
        #: replays the splits through :func:`split_membership`.
        self._splits: Dict[int, List[int]] = {}
        self._parents: Dict[int, int] = {}
        self.epoch: int = 1
        self._listeners: List[Callable[["ShardMap", str, Tuple[int, ...]], None]] = []

    # -- read side -----------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._owners)

    def shard_ids(self) -> List[int]:
        return list(self._owners)

    def owner_of(self, shard: int) -> str:
        self._require(shard)
        return self._owners[shard]

    def shards_of(self, owner: str) -> List[int]:
        """Every shard ``owner`` currently serves (empty for retired hosts)."""
        return [shard for shard, name in self._owners.items() if name == owner]

    def owners(self) -> List[str]:
        """Distinct serving owners, in first-shard order (stable, not sorted)."""
        seen: List[str] = []
        for name in self._owners.values():
            if name not in seen:
                seen.append(name)
        return seen

    def state_of(self, shard: int) -> str:
        self._require(shard)
        return self._states[shard]

    def migration_of(self, shard: int) -> Optional[ShardMigration]:
        self._require(shard)
        return self._migrations.get(shard)

    def migrating(self) -> Dict[int, ShardMigration]:
        """Every in-flight migration, keyed by shard id."""
        return dict(self._migrations)

    def splits_of(self, parent: int) -> Tuple[int, ...]:
        """Child shard ids created by splitting ``parent``, in split order."""
        self._require(parent)
        return tuple(self._splits.get(parent, ()))

    def parent_of(self, shard: int) -> Optional[int]:
        """The shard this one was split from, or ``None`` for a base shard."""
        self._require(shard)
        return self._parents.get(shard)

    def base_shard(self, user_id: str) -> int:
        """The founding shard ``user_id`` hashes to (before any split)."""
        return _stable_hash(user_id) % self._base_shards

    def route(self, user_id: str, base_shard: int) -> int:
        """Replay ``base_shard`` through the recorded split lineage.

        Deterministic: every decision is :func:`split_membership` over the
        consumer id and the split's identity, so a newly routed consumer and
        the migration loop that moved an existing one always agree.
        """
        shard = base_shard
        self._require(shard)
        moved = True
        while moved:
            moved = False
            for index, child in enumerate(self._splits.get(shard, ())):
                if split_membership(user_id, shard, index):
                    shard = child
                    moved = True
                    break
        return shard

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot (sorted, stable) for stats and the CA."""
        return {
            "epoch": self.epoch,
            "num_shards": self.num_shards,
            "assignments": {shard: owner for shard, owner in sorted(self._owners.items())},
            "states": {shard: state for shard, state in sorted(self._states.items())},
            "migrations": {
                shard: {
                    "kind": migration.kind,
                    "source": migration.source,
                    "target": migration.target,
                    "started_epoch": migration.started_epoch,
                }
                for shard, migration in sorted(self._migrations.items())
            },
            "splits": {parent: list(children) for parent, children in sorted(self._splits.items())},
        }

    # -- write side ----------------------------------------------------------------

    def subscribe(self, listener: Callable[["ShardMap", str, Tuple[int, ...]], None]) -> None:
        self._listeners.append(listener)

    def reassign(self, shards: Iterable[int], owner: str, reason: str = "assign") -> None:
        """Move ``shards`` to ``owner`` in one atomic epoch bump.

        The promotion-failover path: a dead server's shards all flip to the
        promoted replica holder at once, observers see a single new epoch.
        In-flight migrations on those shards follow the new owner — a crash
        mid-split reassigns the child to the promoted server and the split
        simply continues against it.
        """
        shards = tuple(shards)
        for shard in shards:
            self._require(shard)
        if not shards:
            return
        for shard in shards:
            self._owners[shard] = owner
            migration = self._migrations.get(shard)
            if migration is not None and migration.target != owner:
                self._migrations[shard] = ShardMigration(
                    shard=shard,
                    kind=migration.kind,
                    source=migration.source,
                    target=owner,
                    started_epoch=migration.started_epoch,
                    flip_on_commit=migration.flip_on_commit,
                )
        self._bump(reason, shards)

    def begin_migration(self, shard: int, kind: str, target: str) -> ShardMigration:
        """Mark ``shard`` migrating toward ``target`` (owner unchanged until commit)."""
        self._require(shard)
        if shard in self._migrations:
            raise ShardMapError(
                f"shard {shard} already has a migration in flight "
                f"({self._migrations[shard].kind!r})"
            )
        migration = ShardMigration(
            shard=shard,
            kind=kind,
            source=self._owners[shard],
            target=target,
            started_epoch=self.epoch,
            flip_on_commit=True,
        )
        self._migrations[shard] = migration
        self._states[shard] = SHARD_MIGRATING
        self._bump("migration-begin", (shard,))
        return migration

    def begin_split(self, parent: int, owner: str, source: str) -> int:
        """Create the child shard of a split of ``parent``, owned by ``owner``.

        The child is born ``migrating`` (its movers arrive one at a time)
        but *owned* from the start — queries for consumers already moved
        route to it immediately.  Returns the new shard id (always
        ``num_shards`` before the call: ids stay dense).  The split lineage
        is recorded before any consumer moves, so registrations racing the
        migration route exactly like the movers themselves.
        """
        self._require(parent)
        child = self.num_shards
        self._owners[child] = owner
        self._states[child] = SHARD_MIGRATING
        self._migrations[child] = ShardMigration(
            shard=child,
            kind="split",
            source=source,
            target=owner,
            started_epoch=self.epoch,
            flip_on_commit=False,
        )
        self._splits.setdefault(parent, []).append(child)
        self._parents[child] = parent
        self._bump("split-begin", (parent, child))
        return child

    def commit_migration(self, shard: int) -> ShardMigration:
        """Finish ``shard``'s migration: flip ownership (handback) and go steady."""
        self._require(shard)
        migration = self._migrations.pop(shard, None)
        if migration is None:
            raise ShardMapError(f"shard {shard} has no migration to commit")
        if migration.flip_on_commit:
            self._owners[shard] = migration.target
        self._states[shard] = SHARD_STEADY
        self._bump("migration-commit", (shard,))
        return migration

    def abort_migration(self, shard: int) -> ShardMigration:
        """Abandon ``shard``'s migration: ownership stays where it is now."""
        self._require(shard)
        migration = self._migrations.pop(shard, None)
        if migration is None:
            raise ShardMapError(f"shard {shard} has no migration to abort")
        self._states[shard] = SHARD_STEADY
        self._bump("migration-abort", (shard,))
        return migration

    # -- internals -----------------------------------------------------------------

    def _require(self, shard: int) -> None:
        if shard not in self._owners:
            raise ShardMapError(f"{shard} is not a shard of this map")

    def _bump(self, reason: str, shards: Tuple[int, ...]) -> None:
        self.epoch += 1
        for listener in list(self._listeners):
            listener(self, reason, shards)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardMap(epoch={self.epoch}, shards={self.num_shards}, "
            f"owners={self._owners!r}, migrating={sorted(self._migrations)})"
        )
