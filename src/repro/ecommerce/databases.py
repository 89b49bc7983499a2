"""UserDB and BSMDB — the two databases of the recommendation mechanism.

§3.3 of the paper:

- **UserDB** "records the consumer user profile and consumer transaction
  records."  It also holds the observational ratings store the collaborative
  part of the mechanism needs (§2.3: "systems ... use observational ratings").
- **BSMDB** "records the E-commerce platform's marketplaces, sell server and
  coordinator server information.  The on-line BRA information and the
  corresponding MBA that migrate to marketplace will also be recorded."

Both are in-memory stores attached to the buyer agent server host; agents
reach them through host services rather than holding direct references so that
agent state stays serialisable for deactivation and migration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.errors import LoginError, UnknownUserError
from repro.core.profile import Profile
from repro.core.ratings import Interaction, RatingsStore
from repro.ecommerce.transactions import TransactionRecord

__all__ = ["UserRecord", "UserDB", "BSMDB", "MutationListener"]

#: Signature of a UserDB mutation listener: called with the operation name and
#: a payload dict *after* the mutation has been applied locally.  This is the
#: capture point of the replication write-ahead log (see
#: :mod:`repro.ecommerce.replication`): every durable consumer-state change —
#: registration, profile replacement, observational rating, transaction,
#: login, unregistration — flows through exactly one notifying method here.
MutationListener = Callable[[str, Dict[str, Any]], None]


@dataclass
class UserRecord:
    """Registration record of one consumer."""

    user_id: str
    display_name: str = ""
    registered_at: float = 0.0
    logins: int = 0
    last_login_at: float = 0.0


class UserDB:
    """Consumer registry: profiles, transactions and observational ratings."""

    def __init__(self) -> None:
        self._users: Dict[str, UserRecord] = {}
        # A consumer's profile is its ``Profile`` here, or built on first read
        # from its ``to_dict()`` dump in ``_dumps`` (see store_dump), or both.
        self._profiles: Dict[str, Profile] = {}
        self._dumps: Dict[str, Dict[str, Any]] = {}
        self._transactions: Dict[str, List[TransactionRecord]] = {}
        self.ratings = RatingsStore()
        self._profiles_version = 0
        self._mutation_listeners: List[MutationListener] = []

    # -- mutation listeners ------------------------------------------------------

    def add_mutation_listener(self, listener: MutationListener) -> None:
        """Register a callable fired after every durable mutation.

        Listeners receive ``(op, payload)`` where ``op`` is one of
        ``"register"``, ``"unregister"``, ``"store-profile"``,
        ``"transaction"``, ``"interaction"``, ``"login"`` or
        ``"login-stats"``.  The replication
        subsystem uses this to append every local write to its write-ahead
        log; adding the same listener twice is a no-op.
        """
        if listener not in self._mutation_listeners:
            self._mutation_listeners.append(listener)

    def _notify(self, op: str, **payload: Any) -> None:
        for listener in self._mutation_listeners:
            listener(op, payload)

    # -- registration -----------------------------------------------------------

    def register(self, user_id: str, display_name: str = "", timestamp: float = 0.0) -> UserRecord:
        """Register a consumer; registering twice is a login-protocol error."""
        if user_id in self._users:
            raise LoginError(f"user {user_id!r} is already registered")
        record = UserRecord(user_id=user_id, display_name=display_name or user_id,
                            registered_at=timestamp)
        self._users[user_id] = record
        self._profiles[user_id] = Profile(user_id)
        self._transactions[user_id] = []
        self._profiles_version += 1
        self._notify(
            "register",
            user_id=user_id,
            display_name=record.display_name,
            timestamp=timestamp,
        )
        return record

    def unregister(self, user_id: str) -> None:
        """Remove a consumer entirely (e.g. after migration to another server).

        Profile, transactions AND observational ratings go: a departed
        consumer must not linger as a collaborative neighbour or double-count
        if they are ever migrated back.  The profile set changes, so the
        membership version is bumped and any provider-backed neighbor index
        drops the consumer on its next sync.  Unknown consumers raise,
        mirroring the other accessors.
        """
        self._require(user_id)
        del self._users[user_id]
        self._profiles.pop(user_id, None)
        self._dumps.pop(user_id, None)
        del self._transactions[user_id]
        self.ratings.remove_user(user_id)
        self._profiles_version += 1
        self._notify("unregister", user_id=user_id)

    def is_registered(self, user_id: str) -> bool:
        return user_id in self._users

    def user(self, user_id: str) -> UserRecord:
        self._require(user_id)
        return self._users[user_id]

    def record_login(self, user_id: str, timestamp: float) -> None:
        record = self.user(user_id)
        record.logins += 1
        record.last_login_at = timestamp
        self._notify("login", user_id=user_id, timestamp=timestamp)

    def restore_login_stats(
        self, user_id: str, logins: int, last_login_at: float
    ) -> None:
        """Overwrite a consumer's aggregate login history (count + last stamp).

        The aggregate is all a copy of a consumer carries (see :meth:`adopt`),
        and restoring it must notify listeners — it is durable state, and the
        adopting server's own replication stream has to carry it onward.
        """
        record = self.user(user_id)
        record.logins = int(logins)
        record.last_login_at = float(last_login_at)
        self._notify(
            "login-stats",
            user_id=user_id,
            logins=int(logins),
            last_login_at=float(last_login_at),
        )

    def adopt(self, reader: "UserDB", user_id: str) -> None:
        """Copy ``user_id``'s complete durable state out of ``reader``.

        The one definition of what a consumer's durable record is:
        registration, learned profile, observational ratings in arrival
        order, transaction records and aggregate login history.  Promotion
        failover, shard handback and per-consumer migration all move a
        consumer with this call — ``reader`` is the live source UserDB or a
        replica's shadow — so a durable field added here moves everywhere.
        Every write goes through the notifying methods, so an adopting
        server that replicates streams the adopted history onward.
        """
        record = reader.user(user_id)
        self.register(user_id, record.display_name, timestamp=record.registered_at)
        dump = reader._dumps.get(user_id)
        # A replica's dump is the profile as shipped: build the copy from it
        # once instead of building the reader's profile and copying that.
        self.store_profile(
            reader.profile(user_id).copy() if dump is None else Profile.from_dict(dump)
        )
        for interaction in reader.ratings.interactions_of(user_id):
            self.record_interaction(interaction)
        for transaction in reader.transactions_of(user_id):
            self.record_transaction(transaction)
        self.restore_login_stats(user_id, record.logins, record.last_login_at)

    @property
    def user_ids(self) -> List[str]:
        return sorted(self._users)

    def __len__(self) -> int:
        return len(self._users)

    # -- profiles ----------------------------------------------------------------

    def profile(self, user_id: str) -> Profile:
        profile = self._profiles.get(user_id)
        if profile is None:
            self._require(user_id)
            profile = self._profiles[user_id] = Profile.from_dict(self._dumps[user_id])
        return profile

    def store_profile(self, profile: Profile) -> None:
        self._require(profile.user_id)
        self._profiles[profile.user_id] = profile
        self._dumps.pop(profile.user_id, None)
        self._profiles_version += 1
        if self._mutation_listeners:
            self._notify("store-profile", profile=profile.to_dict())

    def store_dump(self, dump: Dict[str, Any]) -> None:
        """Replace a consumer's profile with a :meth:`Profile.to_dict` dump.

        The dump is kept as it is, not copied: a dump is immutable by
        contract — nothing writes to it once ``to_dict()`` has returned it —
        so a replica holds the very dict its primary's WAL entry shipped,
        and the nodes it shares with that consumer's earlier dumps.
        The :class:`Profile` is built from it on the first read and kept,
        sharing the dump's term dicts copy-on-write; it is for reading,
        since an edit to it would not reach the dump that :meth:`adopt`
        copies.
        """
        user_id = dump["user_id"]
        self._require(user_id)
        self._dumps[user_id] = dump
        self._profiles.pop(user_id, None)
        self._profiles_version += 1
        if self._mutation_listeners:
            self._notify("store-profile", profile=dump)

    def profiles(self) -> List[Profile]:
        if self._dumps:  # build every profile that is still only a dump
            for user_id in self._dumps.keys() - self._profiles.keys():
                self.profile(user_id)
        return [self._profiles[user_id] for user_id in sorted(self._profiles)]

    def profiles_version(self) -> int:
        """Counter bumped whenever the profile *set* changes (registration or
        wholesale replacement).  In-place learning updates do not bump it —
        those are reported per consumer by ProfileLearner hooks — so the
        neighbor index can use this stamp to skip full reconciles."""
        return self._profiles_version

    # -- transactions --------------------------------------------------------------

    def record_transaction(self, transaction: TransactionRecord) -> None:
        self._require(transaction.user_id)
        self._transactions[transaction.user_id].append(transaction)
        self._notify("transaction", transaction=transaction)

    def transactions_of(self, user_id: str) -> List[TransactionRecord]:
        self._require(user_id)
        return list(self._transactions[user_id])

    def all_transactions(self) -> List[TransactionRecord]:
        return [txn for records in self._transactions.values() for txn in records]

    # -- behaviour -------------------------------------------------------------------

    def record_interaction(self, interaction: Interaction) -> float:
        """Record an observational rating; returns the accumulated value."""
        self._require(interaction.user_id)
        value = self.ratings.add(interaction)
        self._notify("interaction", interaction=interaction)
        return value

    def _require(self, user_id: str) -> None:
        if user_id not in self._users:
            raise UnknownUserError(f"user {user_id!r} is not registered")


@dataclass
class MBARecord:
    """Bookkeeping for one mobile buyer agent currently away from home."""

    mba_id: str
    owner: str
    bra_id: str
    task: str
    itinerary: List[str] = field(default_factory=list)
    dispatched_at: float = 0.0
    returned_at: Optional[float] = None
    authenticated: bool = False


@dataclass
class OnlineBRARecord:
    """Bookkeeping for one online consumer's BRA."""

    bra_id: str
    user_id: str
    logged_in_at: float
    deactivated: bool = False


class BSMDB:
    """Buyer Server Management Database (platform topology + agent tracking)."""

    def __init__(self) -> None:
        self.coordinator: Optional[str] = None
        self._marketplaces: List[str] = []
        self._seller_servers: List[str] = []
        self._online_bras: Dict[str, OnlineBRARecord] = {}
        self._mbas: Dict[str, MBARecord] = {}

    # -- platform topology ---------------------------------------------------------

    def set_coordinator(self, host_name: str) -> None:
        self.coordinator = host_name

    def add_marketplace(self, host_name: str) -> None:
        if host_name not in self._marketplaces:
            self._marketplaces.append(host_name)

    def add_seller_server(self, host_name: str) -> None:
        if host_name not in self._seller_servers:
            self._seller_servers.append(host_name)

    @property
    def marketplaces(self) -> List[str]:
        return list(self._marketplaces)

    @property
    def seller_servers(self) -> List[str]:
        return list(self._seller_servers)

    # -- online BRAs -----------------------------------------------------------------

    def record_bra_online(self, bra_id: str, user_id: str, timestamp: float) -> None:
        self._online_bras[user_id] = OnlineBRARecord(bra_id, user_id, timestamp)

    def record_bra_deactivated(self, user_id: str, deactivated: bool) -> None:
        if user_id in self._online_bras:
            self._online_bras[user_id].deactivated = deactivated

    def record_bra_offline(self, user_id: str) -> None:
        self._online_bras.pop(user_id, None)

    def online_bra(self, user_id: str) -> Optional[OnlineBRARecord]:
        return self._online_bras.get(user_id)

    def online_user_ids(self) -> List[str]:
        return sorted(self._online_bras)

    # -- dispatched MBAs ----------------------------------------------------------------

    def record_mba_dispatched(
        self,
        mba_id: str,
        owner: str,
        bra_id: str,
        task: str,
        itinerary: Iterable[str],
        timestamp: float,
    ) -> MBARecord:
        record = MBARecord(
            mba_id=mba_id,
            owner=owner,
            bra_id=bra_id,
            task=task,
            itinerary=list(itinerary),
            dispatched_at=timestamp,
        )
        self._mbas[mba_id] = record
        return record

    def record_mba_returned(self, mba_id: str, timestamp: float, authenticated: bool) -> None:
        if mba_id in self._mbas:
            self._mbas[mba_id].returned_at = timestamp
            self._mbas[mba_id].authenticated = authenticated

    def mba(self, mba_id: str) -> Optional[MBARecord]:
        return self._mbas.get(mba_id)

    def outstanding_mbas(self) -> List[MBARecord]:
        """MBAs dispatched but not yet returned."""
        return [record for record in self._mbas.values() if record.returned_at is None]

    def mba_history(self) -> List[MBARecord]:
        return list(self._mbas.values())
