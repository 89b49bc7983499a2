"""Cross-server replication of buyer agent server state.

The paper's platform assumes buyer agent servers that keep "servicing a
consumer community" as hosts come and go (§3.2, §1 fault tolerance).  This
module makes the fleet an honest distributed system: every buyer agent
server streams its durable mutations to one or more replica peers over the
simulated network, and a crashed server's consumers are restored from those
replicas — without a single read against the dead host's memory.

**Design.**  Five pieces:

- :class:`ReplicationLog` — the primary's write-ahead log.  Every durable
  UserDB mutation (registration, profile snapshot, observational rating,
  transaction, login, unregistration) becomes a row with a monotonic
  sequence number: the op, the payload's interned key tuple beside a tuple
  of its values, the timestamp and a wire-size memo, one column each.  A
  :class:`ReplicationLogEntry` — what a replica applies — is a view built
  for a shipment: :meth:`ReplicationLog.append` wraps the mutation's own
  payload dict, :meth:`ReplicationLog.entries_since` builds the rows it
  returns.  In-place profile *learning* updates —
  which never pass through ``UserDB.store_profile`` — are captured through a
  :class:`~repro.core.profile_learning.ProfileLearner` update hook that
  snapshots the changed profile.  The log is **bounded**: once every peer has
  acknowledged a long enough prefix, the manager captures a
  :class:`ReplicationSnapshot` and truncates the acknowledged prefix
  (:meth:`ReplicationManager.maybe_truncate`), so long-running platforms do
  not grow memory without limit.  Truncation never drops an entry any peer
  still needs — the truncation point is the *minimum* acknowledged sequence
  number across peers.
- :class:`ReplicaState` — one primary's mirror hosted on a peer server: a
  shadow :class:`~repro.ecommerce.databases.UserDB` plus the sequence number
  of the last applied entry.  Entries apply strictly in sequence order;
  duplicates are skipped, gaps stall the replica until anti-entropy fills
  them, so a replica is always a *prefix* of the primary's history.  A fresh
  replica (a peer added after the log was truncated, e.g. the new ring
  successor picked during a promotion failover) is bootstrapped from the
  primary's latest snapshot instead of the truncated entries.
- :class:`ReplicationSnapshot` — the primary's durable consumer state at a
  known sequence number: one immutable dump per consumer.  Bootstrapping a
  replica from a snapshot is byte-identical to replaying entries ``1..seq``.
  Snapshots are built **incrementally**: the manager records the consumer
  every WAL entry names (its two capture hooks are the only doors into the
  log, and nothing durable changes without an entry), and a truncation
  re-captures just those consumers into a copy of the previous snapshot's
  ``user id → dump`` map, dropping the ones that unregistered.  Untouched
  dumps are shared between successive snapshots and never written, so a
  snapshot already handed out does not change.  The map's order depends on
  that history and does not matter: ``bootstrap`` walks ``sorted(state)``
  and the wire size is ``len(repr(state))``, which no ordering changes.
- :class:`ReplicationManager` — one per participating server.  It owns the
  local WAL, the list of replica peers, and the replicas this server hosts
  for *other* primaries.  Writes stream synchronously when the network
  allows (each shipment is charged to the
  :class:`~repro.platform.network.SimulatedNetwork` via the transport, so
  replication traffic costs simulated time and bytes like any other
  transfer); when a peer is down, partitioned or the transfer is dropped,
  the entries stay in the log and a periodic anti-entropy task
  (:meth:`~repro.platform.clock.Scheduler.call_every`) re-ships everything
  the peer has not acknowledged once connectivity returns.  Peers can be
  removed at runtime (:meth:`remove_peer`), clearing the retired
  ``replication.lag.*`` gauges so metrics never report a stream that no
  longer exists.
- :class:`ReplicationRing` — who replicates to whom.  One successor walk
  (nearest running, replication-enabled, non-retired servers in fleet
  order) and the wire / retarget / rewire / unwire policy the fleet and the
  platform builder apply on founding, crash, recovery, join and
  decommission.

**One copy of each unchanged part of a profile version.**  A profile dump
(``Profile.to_dict()``) is immutable: nothing writes to the dict once
``to_dict()`` has returned it.  Its term dicts are the live vectors' own,
copied by the vector before its next write, and a learning update's dump
(:meth:`ReplicationManager._on_profile_update`) reuses every category and
sub-category node of the consumer's previous shipped dump that the event
did not touch, so successive versions share all but what changed.  The
dump a ``store-profile`` entry ships is the only copy of that version
outside the primary's live ``Profile``: the replica's shadow UserDB keeps
the shipped dict as it is and builds the ``Profile`` on its first read
(``UserDB.store_dump``; the built profile shares the dump's term dicts
copy-on-write), and a snapshot reuses the dict of each consumer's latest
``store-profile`` entry instead of dumping the live profile again.  The WAL
rows, the snapshot and every replica that applied the version hold the same
object.

**One profile version per consumer in the WAL.**  A retained
``store-profile`` row that a later version of the same consumer has
replaced reads the latest dump instead of its own: the consumer's rows
since its last ``register`` / ``unregister`` share one values cell
(:meth:`ReplicationLog.share_values`), and each row's wire size is fixed
from its own dump before the cell gives that dump up, so shipments are
charged the historic bytes.  A peer that has not applied a superseded row
gets it in the same batch as the row that replaced it
(:meth:`ReplicationLog.entries_since` returns the whole suffix, and a
replica applies a batch in one call), so after every batch a replica holds
the very dump the historic log would have left it with.  The latest dump of
each consumer is the one version the WAL rows, the snapshot and every
caught-up replica share.

**Replication semantics — what is durable, what is lost.**

- *Durable (replicated):* consumer registrations, full profile state
  (including every learning update, as post-update snapshots), observational
  ratings in arrival order (so accumulated values replay identically),
  transaction records, login stamps and unregistrations.  A consumer whose
  entries reached at least one live replica survives a primary crash with
  byte-identical profile, ratings and transactions.
- *Lost on crash:* entries appended after the last successful shipment to
  every replica (the replication lag tail), and the primary's soft state —
  BSMDB session records, agent instances, recommendation caches — which is
  rebuilt on the consumer's next login.  A consumer *registered* during a
  replication outage is reported as lost by the failover rather than
  silently resurrected empty.
- *Lag visibility:* :meth:`ReplicationManager.lag_of` reports the per-peer
  unacknowledged-entry count, mirrored into platform metrics as
  ``replication.lag.<primary>-><peer>`` gauges; anti-entropy catch-ups are
  recorded as ``replication.catch-up`` events in the platform event log.
- *WAL bound:* with a positive truncation threshold the retained log is
  bounded by ``threshold + (entries appended since the last anti-entropy
  tick) + (max per-peer lag)`` — a fixed bound whenever peers keep
  acknowledging.  ``replication.wal-truncated`` events and the
  ``replication.wal.truncated_entries`` counter make truncations observable.
  A retained entry costs its row: ~40 bytes of column slots beside the
  tuple of its payload's values (``tests/unit/test_wal_footprint.py``
  bounds it).  Each row is sized on its first shipment and keeps the
  figure, so a re-shipment never takes its ``repr`` again.
  A truncation costs one record per consumer written since the previous
  one (at most ``threshold`` + the tail of one tick — not the population)
  plus one shallow copy of the ``user id → dump`` map; only the first
  truncation of a server records everybody, and a profile is dumped afresh
  only for a consumer no ``store-profile`` entry has shipped.  Shipping a
  snapshot costs one ``repr`` per dump no earlier shipment sized: the
  re-captured consumers, not everybody.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import islice
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from repro.errors import NetworkError, ReplicationError
from repro.core.neighbors import ProfileNeighborIndex
from repro.core.profile import Profile
from repro.core.profile_learning import FeedbackEvent
from repro.ecommerce.databases import UserDB
from repro.platform.clock import RecurringCallback

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ecommerce.buyer_server import BuyerAgentServer

__all__ = [
    "ReplicationLogEntry",
    "ReplicationLog",
    "ReplicationSnapshot",
    "ReplicaState",
    "ReplicationManager",
    "ReplicationRing",
]

#: Fixed per-entry framing overhead charged to the network, on top of the
#: payload's own (repr-estimated) size.
ENTRY_OVERHEAD_BYTES = 48

#: Fixed framing overhead of one snapshot shipment.
SNAPSHOT_OVERHEAD_BYTES = 256

#: The wire size :class:`ReplicationLog` keeps for a row no shipment has
#: sized yet.
_UNSIZED = -1


@dataclass(frozen=True, slots=True)
class ReplicationLogEntry:
    """One write-ahead-log entry: a durable mutation with a sequence number.

    The unit a replica applies, and a view: :class:`ReplicationLog` keeps
    its entries as rows of columns and builds one only to hand it out, so
    an entry lives as long as the shipment that carries it."""

    seq: int
    op: str
    payload: Dict[str, Any]
    timestamp: float

    def payload_bytes(self) -> int:
        """Deterministic wire-size estimate used to charge the network."""
        return ENTRY_OVERHEAD_BYTES + len(repr(self.payload))


def _entry(
    seq: int, op: str, keys: Tuple[str, ...], values: Sequence[Any], timestamp: float
) -> ReplicationLogEntry:
    """The :class:`ReplicationLogEntry` view of one row of the log."""
    return ReplicationLogEntry(seq, op, dict(zip(keys, values)), timestamp)


@dataclass(frozen=True)
class ReplicationSnapshot:
    """One primary's durable consumer state at ``seq``, a dump per consumer.

    ``state`` maps user id → the consumer's registration record fields,
    profile dict, observational interactions (arrival order) and transaction
    records.  Bootstrapping a :class:`ReplicaState` from a snapshot produces
    exactly the shadow UserDB that replaying entries ``1..seq`` would.
    Read-only once built: successive snapshots of a primary share the dumps
    of the consumers that did not change between them.
    """

    seq: int
    timestamp: float
    state: Dict[str, Dict[str, Any]]
    #: user id → that dump's term of the wire size, once a shipment sized it.
    sizes: Dict[str, int] = field(default_factory=dict, compare=False, repr=False)

    def payload_bytes(self) -> int:
        """Deterministic wire-size estimate used to charge the network:
        the overhead + ``len(repr(state))`` to the byte, as ``{}`` + a
        ``key: dump`` term per consumer (sized once) + ``, `` between them."""
        sizes = self.sizes  # ⊆ state: a capture drops what it re-dumps or removes
        for user_id in self.state.keys() - sizes.keys():
            sizes[user_id] = len(repr(user_id)) + 2 + len(repr(self.state[user_id]))
        separators = 2 * max(len(sizes) - 1, 0)
        return SNAPSHOT_OVERHEAD_BYTES + 2 + sum(sizes.values()) + separators


class ReplicationLog:
    """The primary's append-only write-ahead log with monotonic sequence numbers.

    The log can be **truncated**: :meth:`truncate_through` drops a fully
    acknowledged prefix (the caller — :meth:`ReplicationManager.maybe_truncate`
    — guarantees every peer is past it and a snapshot covers it).  Sequence
    numbers keep counting from where they were; only the storage goes.
    ``len(log)`` is the *retained* entry count, :attr:`last_seq` the newest
    sequence number ever appended.

    Storage is one row per retained entry across five columns: the op,
    one string per distinct op; the payload's key tuple, one object per
    payload shape, beside a tuple of its values; the timestamp, a packed
    double; and the wire size, a packed integer that is ``_UNSIZED`` until
    the row's first shipment.  A row's sequence number is implied:
    :attr:`truncated_seq` + 1 + its index.  That is ~40 bytes beside the
    value tuple.  :meth:`append` returns the one
    :class:`ReplicationLogEntry` view around the caller's own dict, and
    :meth:`entries_since` builds views, each with a fresh payload dict
    (keys in append order), for just the rows it returns.  A row's values
    may instead be a cell that rows share and the caller rewrites
    (:meth:`share_values`), which only :class:`ReplicationManager` does;
    a log nobody calls it on reads back exactly what was appended.
    """

    def __init__(self) -> None:
        self._ops: List[str] = []
        self._keys: List[Tuple[str, ...]] = []
        self._values: List[Sequence[Any]] = []  # a tuple, or a shared cell
        self._timestamps = array("d")
        self._sizes = array("q")
        self._columns = (self._ops, self._keys, self._values, self._timestamps, self._sizes)
        # Each distinct op string and payload key tuple, as first appended.
        self._strings: Dict[str, str] = {}
        self._shapes: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self._base_seq = 0  # every entry with seq <= _base_seq has been truncated

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest entry (0 when nothing was appended)."""
        return self._base_seq + len(self._ops)

    @property
    def truncated_seq(self) -> int:
        """Highest sequence number dropped by truncation (0 = never truncated)."""
        return self._base_seq

    def __len__(self) -> int:
        """Retained (untruncated) entry count — the log's actual memory."""
        return len(self._ops)

    def append(self, op: str, payload: Dict[str, Any], timestamp: float) -> ReplicationLogEntry:
        """Append one mutation; sequence numbers start at 1 and never skip.

        The log keeps ``payload``'s keys and values, not the dict; the entry
        returned wraps the dict itself, so it must be one nothing changes
        afterwards (every caller builds a fresh one per mutation)."""
        # The one write that can refuse its value goes first, so a bad
        # timestamp leaves every column as it was.
        self._timestamps.append(timestamp)
        keys = tuple(payload)
        self._ops.append(self._strings.setdefault(op, op))
        self._keys.append(self._shapes.setdefault(keys, keys))
        self._values.append(tuple(payload.values()))
        self._sizes.append(_UNSIZED)
        return ReplicationLogEntry(self.last_seq, op, payload, self._timestamps[-1])

    def entries_since(self, seq: int) -> List[ReplicationLogEntry]:
        """Every retained entry with a sequence number strictly greater than ``seq``.

        Asking for entries below the truncation point raises — the caller
        must bootstrap the peer from the snapshot instead (see
        :meth:`ReplicationManager._ship`).
        """
        if seq < 0:
            raise ReplicationError(f"sequence numbers are non-negative, got {seq}")
        if seq < self._base_seq:
            raise ReplicationError(
                f"entries through seq {self._base_seq} have been truncated; "
                f"bootstrap from the snapshot instead of replaying from {seq}"
            )
        first = seq - self._base_seq
        if first >= len(self._ops):
            return []
        return list(map(
            _entry,
            range(seq + 1, self.last_seq + 1),
            self._ops[first:],
            self._keys[first:],
            self._values[first:],
            self._timestamps[first:],
        ))

    def share_values(self, seq: int, cell: List[Any]) -> None:
        """Make retained row ``seq`` read its payload's values from ``cell``,
        a list the caller rewrites later, instead of its own tuple: every row
        that shares ``cell`` reads what it holds when :meth:`entries_since`
        builds the row.  The caller fixes a row's size (:meth:`fix_size`)
        before the row's own values leave ``cell``."""
        self._values[self._row(seq)] = cell

    def fix_size(self, seq: int) -> None:
        """Size retained row ``seq`` from the payload it reads now, unless a
        shipment already has: the figure :meth:`shipment_bytes` would keep."""
        row = self._row(seq)
        if self._sizes[row] == _UNSIZED:
            payload = dict(zip(self._keys[row], self._values[row]))
            self._sizes[row] = ENTRY_OVERHEAD_BYTES + len(repr(payload))

    def _row(self, seq: int) -> int:
        if not self._base_seq < seq <= self.last_seq:
            raise ReplicationError(
                f"seq {seq} is not retained: the log holds "
                f"{self._base_seq + 1}..{self.last_seq}"
            )
        return seq - self._base_seq - 1

    def shipment_bytes(self, entries: Sequence[ReplicationLogEntry]) -> int:
        """The wire size of shipping ``entries``, retained rows of this log:
        the sum of their :meth:`~ReplicationLogEntry.payload_bytes`.

        A row is sized once, from its entry's payload, on its first
        shipment; the size column keeps the figure and every later shipment
        (a second peer, a catch-up) reads it.  Sound because no payload
        changes after :meth:`append`: its values are immutable, or a
        ``to_dict()`` dump that every holder (the replicas' shadow UserDBs,
        the snapshot) only reads.  A row whose shared values cell later
        reads another dump was sized from its own first (:meth:`fix_size`).
        """
        sizes, first = self._sizes, self._base_seq + 1
        total = 0
        for entry in entries:
            row = entry.seq - first
            size = sizes[row]
            if size == _UNSIZED:
                size = sizes[row] = entry.payload_bytes()
            total += size
        return total

    def truncate_through(self, seq: int) -> int:
        """Drop every entry with a sequence number ``<= seq``; return the count.

        The caller is responsible for the safety invariant: ``seq`` must not
        exceed any peer's acknowledged sequence number, or unacknowledged
        entries would be lost.
        """
        if seq <= self._base_seq:
            return 0
        if seq > self.last_seq:
            raise ReplicationError(
                f"cannot truncate through {seq}: the log only reaches {self.last_seq}"
            )
        dropped = seq - self._base_seq
        for column in self._columns:
            del column[:dropped]
        self._base_seq = seq
        return dropped


class ReplicaState:
    """One primary's replicated state, hosted on a peer server.

    The shadow :class:`UserDB` is rebuilt purely from log entries, applied
    strictly in sequence order: :meth:`apply_entries` skips entries at or
    below ``applied_seq`` (duplicate shipments are idempotent) and stops at
    the first gap (anti-entropy re-ships the full missing suffix later), so
    the shadow is always an exact prefix of the primary's mutation history.
    A replica created after the primary truncated its log starts from a
    :meth:`bootstrap` snapshot instead of sequence 1.  Profiles arrive as
    dumps and the shadow keeps them as they are (``UserDB.store_dump``): a
    ``Profile`` is built only when something reads it.
    """

    def __init__(self, primary: str) -> None:
        self.primary = primary
        self.applied_seq = 0
        self.db = UserDB()
        # What degraded / hedged reads search; see neighbor_index().
        self._neighbor_index: Optional[ProfileNeighborIndex] = None

    def neighbor_index(self) -> ProfileNeighborIndex:
        """A :class:`ProfileNeighborIndex` over this replica's shadow profiles.

        Built on first use and *fed*, not provided: the shadow DB changes only
        in :meth:`_apply` and :meth:`bootstrap`, so an applied ``register`` /
        ``store-profile`` marks that consumer dirty, ``unregister`` removes
        it, and a read's ``sync()`` re-indexes exactly the consumers whose
        profiles changed since the last read — O(dirty), lazily at query
        time; an apply costs a ``None`` check while no index exists.
        Answers are byte-identical to brute force:
        ``find_similar_users`` over ``db.profiles()``.
        :meth:`bootstrap` swaps the shadow DB wholesale, so it drops the
        index; the next read rebuilds against the restored state.
        """
        if self._neighbor_index is None:
            self._neighbor_index = ProfileNeighborIndex(profiles=self.db.profiles())
        return self._neighbor_index

    def apply_entries(self, entries: List[ReplicationLogEntry]) -> int:
        """Apply an ordered batch; return how many entries were applied."""
        applied = 0
        for entry in entries:
            if entry.seq <= self.applied_seq:
                continue  # duplicate shipment — already applied
            if entry.seq != self.applied_seq + 1:
                break  # gap — wait for anti-entropy to ship the full suffix
            self._apply(entry)
            self.applied_seq = entry.seq
            applied += 1
        return applied

    def bootstrap(self, snapshot: ReplicationSnapshot) -> None:
        """Replace this replica's state with a full snapshot at ``snapshot.seq``.

        Equivalent — byte for byte — to having applied entries
        ``1..snapshot.seq`` in order.  Bootstrapping backwards (the replica
        already applied past the snapshot) is refused: a replica never
        regresses its prefix.
        """
        if snapshot.seq < self.applied_seq:
            raise ReplicationError(
                f"replica of {self.primary!r} already applied seq {self.applied_seq}; "
                f"refusing to regress to snapshot seq {snapshot.seq}"
            )
        db = UserDB()
        for user_id in sorted(snapshot.state):
            dump = snapshot.state[user_id]
            db.register(
                user_id, dump["display_name"], timestamp=dump["registered_at"]
            )
            db.store_dump(dump["profile"])
            for interaction in dump["interactions"]:
                db.record_interaction(interaction)
            for transaction in dump["transactions"]:
                db.record_transaction(transaction)
            record = db.user(user_id)
            record.logins = dump["logins"]
            record.last_login_at = dump["last_login_at"]
        self.db = db
        self.applied_seq = snapshot.seq
        # The old shadow DB (and any index built over it) is gone wholesale.
        self._neighbor_index = None

    def _apply(self, entry: ReplicationLogEntry) -> None:
        payload = entry.payload
        index = self._neighbor_index
        if entry.op == "register":
            self.db.register(
                payload["user_id"],
                payload.get("display_name", ""),
                timestamp=payload.get("timestamp", 0.0),
            )
            if index is not None:
                index.on_profile_update(self.db.profile(payload["user_id"]))
        elif entry.op == "unregister":
            self.db.unregister(payload["user_id"])
            if index is not None:
                index.remove(payload["user_id"])
        elif entry.op == "store-profile":
            dump = payload["profile"]
            self.db.store_dump(dump)
            if index is not None:
                index.on_profile_update(self.db.profile(dump["user_id"]))
        elif entry.op == "interaction":
            self.db.record_interaction(payload["interaction"])
        elif entry.op == "transaction":
            self.db.record_transaction(payload["transaction"])
        elif entry.op == "login":
            self.db.record_login(payload["user_id"], payload.get("timestamp", 0.0))
        elif entry.op == "login-stats":
            self.db.restore_login_stats(
                payload["user_id"],
                payload.get("logins", 0),
                payload.get("last_login_at", 0.0),
            )
        else:
            raise ReplicationError(f"unknown replication op {entry.op!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicaState(primary={self.primary!r}, applied_seq={self.applied_seq}, "
            f"consumers={len(self.db)})"
        )


class ReplicationManager:
    """Streams one buyer agent server's mutations to its replica peers.

    Attach with :meth:`BuyerAgentServer.enable_replication`; wire peers with
    :meth:`replicate_to`.  The manager hooks the server's UserDB mutation
    listener and the profile learner's update hook, so every durable write is
    logged and (network permitting) shipped immediately; the scheduled
    anti-entropy task re-ships anything a peer missed and — when a
    ``truncate_threshold`` is configured — snapshots and truncates the
    fully-acknowledged WAL prefix so the log stays bounded.  The log holds
    one profile version per consumer: a superseded ``store-profile`` row
    reads the consumer's latest dump (see :meth:`_append_and_stream`).
    """

    def __init__(
        self, server: "BuyerAgentServer", truncate_threshold: int = 0
    ) -> None:
        if truncate_threshold < 0:
            raise ReplicationError("WAL truncate threshold cannot be negative")
        self.server = server
        self.name = server.name
        self.log = ReplicationLog()
        #: Snapshot + truncate once every peer has acknowledged this many
        #: entries beyond the current truncation point (0 = never truncate).
        self.truncate_threshold = truncate_threshold
        #: The latest snapshot captured at truncation time (None before the
        #: first truncation).  Bootstraps peers whose acknowledged prefix has
        #: been truncated away.
        self.snapshot: Optional[ReplicationSnapshot] = None
        #: Consumers named by a WAL entry appended since :attr:`snapshot` was
        #: installed — the only ones whose dump in it can be out of date.
        self._touched: Set[str] = set()
        #: user id → the profile dump of that consumer's latest
        #: ``store-profile`` entry: the entry's own dict, which the snapshot
        #: reuses.  A ``register`` / ``unregister`` entry drops it, since it
        #: no longer is that consumer's profile.
        self._dumps: Dict[str, Dict[str, Any]] = {}
        #: user id → (seq of that consumer's latest retained
        #: ``store-profile`` row, the one-slot values cell every retained
        #: ``store-profile`` row of the consumer since its last ``register``
        #: / ``unregister`` reads).  Truncation drops a consumer whose
        #: latest row it dropped; see :meth:`_append_and_stream`.
        self._versions: Dict[str, Tuple[int, List[Any]]] = {}
        self.peers: List["BuyerAgentServer"] = []
        #: Highest sequence number each peer has acknowledged applying.
        self._acked: Dict[str, int] = {}
        #: Replicas this server hosts for *other* primaries (name → state).
        self.hosted: Dict[str, ReplicaState] = {}
        self._anti_entropy_task: Optional[RecurringCallback] = None
        server.user_db.add_mutation_listener(self._on_mutation)
        server.profile_learner.add_update_hook(self._on_profile_update)

    # -- wiring ---------------------------------------------------------------

    def replicate_to(self, peer: "BuyerAgentServer") -> ReplicaState:
        """Start streaming this server's WAL to ``peer``.

        The peer must have replication enabled too (it hosts the
        :class:`ReplicaState`).  Returns the replica state, which lives on
        the peer — exactly where a failover will look for it.  A
        peer added after the log was truncated is bootstrapped from the
        latest snapshot on the next shipment (synchronously if the network
        allows, else by anti-entropy).
        """
        if peer is self.server:
            raise ReplicationError(f"server {self.name!r} cannot replicate to itself")
        if peer.replication is None:
            raise ReplicationError(
                f"peer {peer.name!r} must enable replication before hosting a replica"
            )
        if any(existing is peer for existing in self.peers):
            raise ReplicationError(
                f"server {self.name!r} already replicates to {peer.name!r}"
            )
        state = peer.replication.host_replica(self.name)
        self.peers.append(peer)
        self._acked[peer.name] = min(state.applied_seq, self.log.last_seq)
        if self.log.last_seq > self._acked[peer.name]:
            self._ship(peer, [])
        return state

    def remove_peer(self, peer_name: str) -> None:
        """Stop streaming to ``peer_name`` and retire its lag gauge.

        Used when the :class:`ReplicationRing` moves the stream elsewhere:
        the peer's acknowledgement no longer holds WAL truncation back, and
        the ``replication.lag.*`` gauge is removed rather than left frozen
        at its last pre-retirement value.  The replica the peer hosts is
        left in place (its host may be down); the peer drops it when it is
        rewired on recovery.
        """
        if peer_name not in self._acked:
            raise ReplicationError(
                f"{self.name!r} does not replicate to {peer_name!r}"
            )
        self.peers = [peer for peer in self.peers if peer.name != peer_name]
        del self._acked[peer_name]
        self.server.context.transport.metrics.remove_gauge(
            f"replication.lag.{self.name}->{peer_name}"
        )

    def host_replica(self, primary: str) -> ReplicaState:
        """Create (or return) the replica this server hosts for ``primary``."""
        if primary not in self.hosted:
            self.hosted[primary] = ReplicaState(primary)
        return self.hosted[primary]

    def discard_replica(self, primary: str) -> Optional[ReplicaState]:
        """Drop the replica hosted for ``primary`` (None when none is hosted).

        Called when the replica has been consumed by a promotion failover
        (its state now lives in the promoted server's own UserDB) or when a
        recovered host purges replicas for primaries that no longer stream
        to it.
        """
        return self.hosted.pop(primary, None)

    # -- capture hooks --------------------------------------------------------

    def _on_mutation(self, op: str, payload: Dict[str, Any]) -> None:
        if op == "store-profile":
            user_id = payload["profile"]["user_id"]
        elif op == "interaction":
            user_id = payload["interaction"].user_id
        elif op == "transaction":
            user_id = payload["transaction"].user_id
        else:
            user_id = payload["user_id"]
        self._append_and_stream(op, payload, user_id)

    def _on_profile_update(
        self, profile: Profile, event: Optional[FeedbackEvent] = None
    ) -> None:
        # In-place learning updates never pass through store_profile; snapshot
        # the whole profile so replicas converge to the exact post-update state.
        # The consumer's last shipped dump lends every node the event left as
        # it was, so this entry holds only what the event changed.
        user_id = profile.user_id
        self._append_and_stream(
            "store-profile", {"profile": profile.to_dict(self._dumps.get(user_id))}, user_id
        )

    def _append_and_stream(
        self, op: str, payload: Dict[str, Any], user_id: str
    ) -> None:
        """The one door into the WAL: every entry names the consumer it changes.

        A ``store-profile`` row joins the consumer's values cell: the
        consumer's previous latest row is sized from its own dump, then the
        cell takes the new dump, so every retained ``store-profile`` row of
        the consumer reads the latest one (see the module docstring for why
        replicas cannot tell).  A ``register`` / ``unregister`` row starts
        a fresh cell.
        """
        self._touched.add(user_id)
        log = self.log
        entry = log.append(op, payload, timestamp=self.server.context.now)
        if op == "store-profile":
            dump = self._dumps[user_id] = payload["profile"]
            latest = self._versions.get(user_id)
            if latest is None:
                cell = [dump]
            else:
                superseded, cell = latest
                log.fix_size(superseded)
                cell[0] = dump
            log.share_values(entry.seq, cell)
            self._versions[user_id] = (entry.seq, cell)
        elif op == "register" or op == "unregister":
            self._dumps.pop(user_id, None)
            self._versions.pop(user_id, None)
        if not self.server.context.host.is_running:
            return  # crashed primaries cannot ship; the tail is the lag
        for peer in self.peers:
            self._ship(peer, [entry])

    # -- shipping -------------------------------------------------------------

    def _ship(self, peer: "BuyerAgentServer", entries: List[ReplicationLogEntry]) -> int:
        """Ship ``entries`` to ``peer``; return how many it applied.

        A peer that missed earlier entries is sent the full unacknowledged
        suffix instead (replicas apply strictly in order); a peer whose
        acknowledged prefix has been truncated away — a stream retargeted
        after promotion, or a peer that discarded its replica — is first
        bootstrapped from the latest snapshot.  Network failures — peer
        down, partition, dropped transfer — leave the entries in the log for
        the next anti-entropy pass and are counted in
        ``replication.deferred``.
        """
        transport = self.server.context.transport
        state = peer.replication.host_replica(self.name)
        if state.applied_seq < self._acked[peer.name]:
            # The peer lost (or discarded) our replica since we last shipped:
            # trust the replica's actual prefix, not our stale bookkeeping.
            self._acked[peer.name] = state.applied_seq
        acked = self._acked[peer.name]
        if acked < self.log.truncated_seq:
            # The entries the peer needs next were truncated: bootstrap it
            # from the snapshot, then stream the retained suffix as usual.
            if self.snapshot is None:
                raise ReplicationError(
                    f"log of {self.name!r} truncated through "
                    f"{self.log.truncated_seq} without a snapshot"
                )
            try:
                transport.deliver(
                    self.name,
                    peer.name,
                    "replication-snapshot",
                    self.snapshot.payload_bytes(),
                )
            except NetworkError:
                transport.metrics.counter("replication.deferred").increment()
                return 0
            state.bootstrap(self.snapshot)
            self._acked[peer.name] = state.applied_seq
            acked = state.applied_seq
            transport.metrics.counter("replication.snapshots_shipped").increment()
            transport.event_log.record(
                self.server.context.now,
                "replication.snapshot-bootstrap",
                self.name,
                peer.name,
                snapshot_seq=self.snapshot.seq,
            )
            entries = []
        if not entries or entries[0].seq <= acked or entries[0].seq > acked + 1:
            entries = self.log.entries_since(acked)
        if not entries:
            self._record_lag(peer)
            return 0
        payload_bytes = self.log.shipment_bytes(entries)
        try:
            transport.deliver(self.name, peer.name, "replication", payload_bytes)
        except NetworkError:
            transport.metrics.counter("replication.deferred").increment()
            return 0
        applied = state.apply_entries(entries)
        self._acked[peer.name] = state.applied_seq
        transport.metrics.counter("replication.entries_shipped").increment(applied)
        self._record_lag(peer)
        return applied

    def _record_lag(self, peer: "BuyerAgentServer") -> None:
        metrics = self.server.context.transport.metrics
        metrics.gauge(f"replication.lag.{self.name}->{peer.name}").set(
            self.lag_of(peer.name)
        )

    def catch_up(self, peer_name: str) -> int:
        """Immediately re-ship the unacknowledged suffix to one peer.

        The read-repair nudge: a stale-answered fleet query calls this for
        the replica holder that served it, instead of waiting for the next
        scheduled anti-entropy tick.  Ships synchronously (charged to the
        simulated network like any shipment; deferred on network failure)
        and returns the peer's remaining lag — 0 means the replica is now an
        exact copy of the primary's durable history.  A crashed primary
        cannot ship; the call is then a no-op returning the current lag.
        """
        peer = next((p for p in self.peers if p.name == peer_name), None)
        if peer is None:
            raise ReplicationError(
                f"{self.name!r} does not replicate to {peer_name!r}"
            )
        if not self.server.context.host.is_running:
            return self.lag_of(peer_name)
        self._ship(peer, [])
        self._record_lag(peer)
        return self.lag_of(peer_name)

    def lag_of(self, peer_name: str) -> int:
        """Unacknowledged entries for ``peer_name`` (replication lag in ops)."""
        if peer_name not in self._acked:
            raise ReplicationError(f"{self.name!r} does not replicate to {peer_name!r}")
        return self.log.last_seq - self._acked[peer_name]

    def acked_seq(self, peer_name: str) -> int:
        """Highest sequence number ``peer_name`` has acknowledged."""
        if peer_name not in self._acked:
            raise ReplicationError(f"{self.name!r} does not replicate to {peer_name!r}")
        return self._acked[peer_name]

    # -- snapshot + truncation ------------------------------------------------

    def _capture_snapshot(self) -> ReplicationSnapshot:
        """The primary's durable consumer state at ``log.last_seq``.

        Built from the installed snapshot's per-consumer dumps, re-capturing
        only the consumers a WAL entry has named since (and dropping the
        ones that unregistered); before the first truncation every consumer
        counts as touched.  A touched consumer's profile is the dump of its
        latest ``store-profile`` entry, the same dict the entry shipped;
        only a consumer without one is dumped here.  Nothing durable changes
        without a WAL entry, so the result equals a dump of every consumer —
        at the cost of the touched ones.  A pure read: the previous
        snapshot's ``state`` is copied, never written, its dumps (and their
        sizes) are shared, and the touched set is consumed only where
        :meth:`maybe_truncate` installs it.
        """
        db = self.server.user_db
        state: Dict[str, Dict[str, Any]]
        if self.snapshot is None:
            state, sizes, touched = {}, {}, db.user_ids
        else:
            state, sizes = dict(self.snapshot.state), dict(self.snapshot.sizes)
            touched = sorted(self._touched)
        for user_id in touched:
            sizes.pop(user_id, None)
            if not db.is_registered(user_id):
                state.pop(user_id, None)
                continue
            record = db.user(user_id)
            dump = self._dumps.get(user_id)
            state[user_id] = {
                "display_name": record.display_name,
                "registered_at": record.registered_at,
                "logins": record.logins,
                "last_login_at": record.last_login_at,
                "profile": db.profile(user_id).to_dict() if dump is None else dump,
                "interactions": db.ratings.interactions_of(user_id),
                "transactions": db.transactions_of(user_id),
            }
        return ReplicationSnapshot(
            seq=self.log.last_seq,
            timestamp=self.server.context.now,
            state=state,
            sizes=sizes,
        )

    def maybe_truncate(self) -> int:
        """Snapshot + truncate the fully-acknowledged WAL prefix; return dropped count.

        The truncation point is ``min`` of every peer's acknowledged
        sequence number — **never** past an unacknowledged entry, so a
        lagging peer (down, partitioned, mid-catch-up) holds truncation back
        instead of losing its suffix.  Runs only when the acknowledged
        prefix beyond the current truncation point has reached
        :attr:`truncate_threshold` entries (0 disables truncation), so
        snapshot capture cost is amortised.
        """
        if self.truncate_threshold <= 0 or not self.peers:
            return 0
        safe = min(self._acked.values())
        if safe - self.log.truncated_seq < self.truncate_threshold:
            return 0
        self.snapshot = self._capture_snapshot()
        self._touched = set()
        dropped = self.log.truncate_through(safe)
        self._versions = {
            user_id: latest
            for user_id, latest in self._versions.items()
            if latest[0] > safe
        }
        transport = self.server.context.transport
        transport.metrics.counter("replication.wal.truncated_entries").increment(dropped)
        transport.event_log.record(
            self.server.context.now,
            "replication.wal-truncated",
            self.name,
            self.name,
            through_seq=safe,
            dropped=dropped,
            retained=len(self.log),
            snapshot_seq=self.snapshot.seq,
        )
        return dropped

    # -- anti-entropy ---------------------------------------------------------

    def anti_entropy_tick(self) -> int:
        """Re-ship every unacknowledged entry to every peer; return shipped count.

        Skips entirely while the primary host is down (a crashed server
        cannot send), records a ``replication.catch-up`` event whenever a
        lagging peer was actually caught up, and finishes by truncating the
        fully-acknowledged WAL prefix when the bound is configured.
        """
        if not self.server.context.host.is_running:
            return 0
        transport = self.server.context.transport
        shipped = 0
        for peer in self.peers:
            lagging = self.lag_of(peer.name) > 0
            applied = self._ship(peer, [])
            shipped += applied
            if applied and lagging:
                transport.event_log.record(
                    self.server.context.now,
                    "replication.catch-up",
                    self.name,
                    peer.name,
                    entries=applied,
                    remaining_lag=self.lag_of(peer.name),
                )
            self._record_lag(peer)
        self.maybe_truncate()
        return shipped

    @property
    def anti_entropy_scheduled(self) -> bool:
        return (
            self._anti_entropy_task is not None
            and not self._anti_entropy_task.cancelled
        )

    def start_anti_entropy(self, interval_ms: float) -> RecurringCallback:
        """Run :meth:`anti_entropy_tick` every ``interval_ms`` of simulated time."""
        if interval_ms <= 0:
            raise ReplicationError("anti-entropy interval must be positive")
        if self.anti_entropy_scheduled:
            raise ReplicationError(
                f"server {self.name!r} already has a scheduled anti-entropy task"
            )
        self._anti_entropy_task = self.server.context.host.scheduler.call_every(
            interval_ms, self.anti_entropy_tick, label=f"replication.{self.name}"
        )
        return self._anti_entropy_task

    def stop_anti_entropy(self) -> None:
        """Cancel the scheduled anti-entropy task (no-op when none is armed)."""
        if self._anti_entropy_task is not None:
            self._anti_entropy_task.cancel()
            self._anti_entropy_task = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicationManager({self.name!r}, wal={self.log.last_seq}, "
            f"retained={len(self.log)}, "
            f"peers={[peer.name for peer in self.peers]}, "
            f"hosts={sorted(self.hosted)})"
        )


class ReplicationRing:
    """Who replicates to whom: the fleet's ring-order replica placement.

    A server streams to its nearest *eligible* successors in fleet order —
    running host, replication enabled, not retired (:meth:`successors`).
    The four topology events keep every stream on that rule: :meth:`wire`
    (founding and join, outbound), :meth:`retarget` (a peer crashed or was
    decommissioned), :meth:`rewire` (a host recovered or joined, inbound)
    and :meth:`unwire` (decommission).  ``servers`` and ``retired`` are the
    fleet's own collections, shared so membership changes are seen here;
    the coordinator, when wired, is told the new replica list of every
    primary whose peers changed.
    """

    def __init__(
        self, servers: List["BuyerAgentServer"], retired: Set[str], coordinator=None
    ) -> None:
        self.servers = servers
        self.retired = retired
        self.coordinator = coordinator

    def successors(
        self, primary: "BuyerAgentServer", skip: Sequence["BuyerAgentServer"] = ()
    ) -> Iterator["BuyerAgentServer"]:
        """Eligible replica hosts after ``primary`` in ring order, nearest first.

        Passes over crashed hosts, retired servers, servers without
        replication and anything in ``skip``; wraps around the fleet list
        once and never yields ``primary`` itself.
        """
        index = self.servers.index(primary)
        total = len(self.servers)
        for offset in range(1, total):
            candidate = self.servers[(index + offset) % total]
            if candidate.name in self.retired or candidate.replication is None:
                continue
            if not candidate.context.host.is_running or candidate in skip:
                continue
            yield candidate

    def _streaming_primaries(
        self, other: "BuyerAgentServer"
    ) -> Iterator["BuyerAgentServer"]:
        """Every live, active, replicating server but ``other``, in fleet order."""
        for server in self.servers:
            if server is other or not server.context.host.is_running:
                continue
            if server.name in self.retired or server.replication is None:
                continue
            yield server

    def _register(self, primary: "BuyerAgentServer") -> None:
        if self.coordinator is not None:
            self.coordinator.register_replication(
                primary.name, [peer.name for peer in primary.replication.peers]
            )

    def wire(self, server: "BuyerAgentServer", factor: int) -> None:
        """Stream ``server``'s WAL to its first ``factor`` ring successors.

        Streams that already exist are kept and counted, so wiring is
        idempotent for a server that rejoins.
        """
        manager = server.replication
        for peer in islice(self.successors(server), factor):
            if peer not in manager.peers:
                manager.replicate_to(peer)
        self._register(server)

    def retarget(self, gone: "BuyerAgentServer") -> None:
        """Point primaries that replicated to ``gone`` at a new ring successor.

        A crashed or decommissioned peer never acknowledges again, so
        leaving it wired would both freeze the primary's WAL truncation
        (the truncation point is the minimum acknowledged sequence number)
        and leave the primary one replica short.  Each affected primary
        drops the peer and picks its nearest successor that is not already
        a peer; the new replica is bootstrapped from the primary's snapshot
        (when its log was truncated) or its full log, synchronously when
        the network allows.  With no eligible replacement the primary just
        drops the peer (documented degraded redundancy).
        """
        for primary in self._streaming_primaries(gone):
            manager = primary.replication
            if gone not in manager.peers:
                continue
            manager.remove_peer(gone.name)
            replacement = next(self.successors(primary, skip=manager.peers), None)
            if replacement is not None:
                manager.replicate_to(replacement)
            self._register(primary)

    def rewire(self, joined: "BuyerAgentServer") -> None:
        """Swap a recovered or newly joined host back in as a replica target.

        The inverse of :meth:`retarget`.  First ``joined`` drops the
        replicas it still hosts for primaries that no longer stream to it
        (they were retargeted while it was away; the orphans would only go
        staler).  Then every primary whose nearest successor is ``joined``
        but which streams to a stand-in instead retires its ring-farthest
        peer and streams to ``joined`` — the new replica bootstraps through
        the normal shipping path — so the ring converges to its ideal shape
        and ``joined`` is a promotion target for the next failure.  A host
        that does not replicate has nothing to rejoin.
        """
        if joined.replication is None:
            return
        hosted = joined.replication.hosted
        for primary in self.servers:
            if primary is joined or primary.replication is None:
                continue
            if primary.name in hosted and joined not in primary.replication.peers:
                joined.replication.discard_replica(primary.name)
        total = len(self.servers)
        for primary in self._streaming_primaries(joined):
            manager = primary.replication
            if joined in manager.peers:
                continue
            if next(self.successors(primary), None) is not joined:
                continue
            if manager.peers:
                index = self.servers.index(primary)
                farthest = max(
                    manager.peers,
                    key=lambda peer: (self.servers.index(peer) - index) % total,
                )
                manager.remove_peer(farthest.name)
                if (
                    farthest.context.host.is_running
                    and farthest.replication is not None
                ):
                    # The stand-in's replica is orphaned the moment the
                    # stream moves; a down stand-in drops it when it is
                    # itself rewired on recovery.
                    farthest.replication.discard_replica(primary.name)
            manager.replicate_to(joined)
            self._register(primary)

    def unwire(self, server: "BuyerAgentServer") -> None:
        """Take a decommissioned ``server`` out of the ring in both directions.

        Its anti-entropy task stops, its peers drop the replicas they host
        for it, it drops the replicas it hosts, and every primary that
        streamed to it is retargeted (the server must already be retired,
        so it is not picked again).
        """
        manager = server.replication
        if manager is None:
            return  # never hosted a replica, so nobody streams to it either
        manager.stop_anti_entropy()
        for peer in list(manager.peers):
            manager.remove_peer(peer.name)
            if peer.replication is not None:
                peer.replication.discard_replica(server.name)
        for primary_name in list(manager.hosted):
            manager.discard_replica(primary_name)
        self.retarget(server)
        self._register(server)
