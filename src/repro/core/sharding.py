"""Sharded neighbor index: partitioned similar-user search with exact merge.

The paper's buyer agent servers are a fleet — each server hosts a partition of
the consumer community and answers similar-user queries over its own
consumers (§3.2).  PR 1's :class:`~repro.core.neighbors.ProfileNeighborIndex`
is one monolithic index; this module partitions it:

- a :class:`ShardRouter` deterministically assigns every consumer to exactly
  one shard, either by **consumer hash** (CRC32 of the user id — stable
  across processes, unlike ``hash(str)``) or **by category** (the profile's
  top preference category, so consumers with the same dominant taste are
  co-located and category-filtered queries concentrate on few shards);
- a :class:`ShardedNeighborIndex` owns one independent
  :class:`ProfileNeighborIndex` per shard, each with the Cauchy-Schwarz
  norm-bound early termination enabled, and wires its own
  :class:`~repro.core.profile_learning.ProfileLearner` hook that invalidates
  — and when routing demands it, **migrates** — exactly the consumer whose
  profile changed;
- :func:`merge_topk` folds per-shard ranked lists back into the global
  ranking.

**Why the merge is exact.**  Every consumer lives in exactly one shard, and a
candidate's score depends only on the target and that candidate — never on
other candidates.  A member of the global top-k is beaten by at most k-1
candidates globally, hence by at most k-1 candidates within its own shard, so
it appears in its shard's top-k list.  Concatenating the per-shard top-k
lists therefore contains the global top-k, and re-sorting with the same
``(-score, user_id)`` key and trimming to k reproduces the single-index (and
brute-force) result byte for byte — the property suite in
``tests/property/test_sharding.py`` pins this down across shard counts and
both routing strategies.

**Replication semantics.**  Shard membership here is *derived* state: every
indexed profile is owned by exactly one durable store (a
:class:`~repro.ecommerce.databases.UserDB`), and the index reconciles against
it via providers, version stamps and learner hooks.  Nothing in this module
is itself replicated or durable — after a crash an index is rebuilt from
whichever UserDB (primary or replica-restored, see
:mod:`repro.ecommerce.replication`) survives, and because scores depend only
on profile contents the rebuilt index answers byte-identically.  The
*single-owner* invariant is what keeps :func:`merge_topk` exact across
failovers: a consumer drained to a new server disappears from the old
shard's provider before appearing in the new one, so no fan-out ever scores
them twice.  During a degraded fan-out (a shard unreachable mid-query) the
merge runs over the responses that arrived — ``None`` entries are skipped,
and the caller reports the gap instead of raising.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SimilarityError
from repro.core.neighbors import ProfileNeighborIndex
from repro.core.profile import Profile
from repro.core.profile_learning import FeedbackEvent
from repro.core.scoring import DEFAULT_BACKEND, resolve_backend
from repro.core.similarity import SimilarityConfig

__all__ = [
    "ROUTING_STRATEGIES",
    "ShardRouter",
    "ShardedNeighborIndex",
    "merge_topk",
    "find_similar_users_sharded",
]

ProfilesProvider = Callable[[], Iterable[Profile]]

#: Supported routing strategies.
ROUTING_STRATEGIES = ("hash", "category")


def _stable_hash(text: str) -> int:
    """Deterministic across processes (``hash(str)`` is salted per run)."""
    return zlib.crc32(text.encode("utf-8"))


class ShardRouter:
    """Assigns consumers to shards deterministically.

    ``hash`` routing spreads consumers uniformly by user id and never moves a
    consumer once placed.  ``category`` routing co-locates consumers whose
    *top preference category* (highest scalar preference, ties alphabetical —
    the order :meth:`Profile.top_categories` uses) hashes to the same shard;
    profiles with no categories at all fall back to hash routing, and a
    consumer whose dominant category changes under learning migrates shards.
    """

    def __init__(self, num_shards: int, strategy: str = "hash") -> None:
        if num_shards <= 0:
            raise SimilarityError(f"num_shards must be positive, got {num_shards}")
        if strategy not in ROUTING_STRATEGIES:
            raise SimilarityError(
                f"unknown routing strategy {strategy!r}; expected one of "
                f"{ROUTING_STRATEGIES}"
            )
        self.num_shards = num_shards
        self.strategy = strategy

    def shard_for_user(self, user_id: str) -> int:
        """Hash placement by user id (also the no-profile fallback)."""
        return _stable_hash(user_id) % self.num_shards

    def shard_for(self, profile: Profile) -> int:
        """The shard ``profile`` belongs to under this router's strategy."""
        if self.strategy == "category":
            top = profile.top_categories(1)
            if top:
                return _stable_hash(top[0][0]) % self.num_shards
            # No category preferences yet (fresh registration): fall back to
            # hash placement rather than crash; the consumer migrates to its
            # category shard once learning gives it a dominant category.
        return self.shard_for_user(profile.user_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardRouter(shards={self.num_shards}, strategy={self.strategy!r})"


def merge_topk(
    ranked_lists: Sequence[Optional[List[Tuple[str, float]]]],
    top_k: int,
) -> List[Tuple[str, float]]:
    """Fold per-shard ranked ``(user_id, score)`` lists into the global top-k.

    Uses the exact sort key of the single-index and brute-force paths
    (score descending, user id ascending), so as long as each input list is
    its shard's top-k, the result is identical to ranking all consumers in
    one index.  The ``(-score, user_id)`` key is a strict total order over
    distinct consumers, so equal-score candidates order deterministically by
    user id **regardless of shard count or fan-out arrival order** — the
    merge never leans on the enumeration order of the input lists.

    Duplicate user ids across lists are collapsed to their best score before
    ranking.  Disjointness is the steady-state single-owner invariant, but a
    degraded fan-out can transiently break it: a stale replica answering for
    an unreachable shard may still contain a consumer who migrated away (or
    was drained to a survivor) before the crash, and scoring them twice must
    not push a genuine neighbour out of the top-k.

    ``None`` entries — shards that timed out or were unreachable during a
    fleet fan-out — are tolerated and skipped, so a degraded query merges
    what it has instead of raising; callers report the gap via
    :class:`~repro.ecommerce.buyer_server.FleetQueryResult`.
    """
    best: Dict[str, float] = {}
    for ranked in ranked_lists:
        if ranked is None:
            continue
        for user_id, score in ranked:
            current = best.get(user_id)
            if current is None or score > current:
                best[user_id] = score
    merged = sorted(best.items(), key=lambda pair: (-pair[1], pair[0]))
    return merged[:top_k]


class ShardedNeighborIndex:
    """N independent :class:`ProfileNeighborIndex` shards behind one facade.

    The facade mirrors the single index's API (``build``/``add``/``remove``/
    ``attach_to``/``sync``/``find_similar``) so it drops into
    :class:`~repro.core.hybrid.AgentHybridRecommender` and
    :class:`~repro.ecommerce.buyer_server.RecommendationService` unchanged.
    Membership is owned here: shards are built *without* providers and the
    facade reconciles registrations, removals and — under category routing —
    migrations, so each shard only ever re-indexes its own consumers (the
    message-passing partitioning style: partitions reconcile their own
    membership and only the top-k lists cross the boundary).
    """

    def __init__(
        self,
        profiles: Optional[Iterable[Profile]] = None,
        provider: Optional[ProfilesProvider] = None,
        config: Optional[SimilarityConfig] = None,
        num_shards: int = 4,
        routing: str = "hash",
        provider_version: Optional[Callable[[], int]] = None,
        early_termination: bool = True,
        tight_term_bound: bool = True,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        self.config = config or SimilarityConfig()
        self.config.validate()
        self.router = ShardRouter(num_shards, routing)
        self.early_termination = early_termination
        self.tight_term_bound = tight_term_bound
        # Scoring kernel backend, passed through to every shard (see
        # repro.core.scoring) — all backends are score-identical, so the
        # exact-merge argument is unaffected by the choice.
        self.backend = resolve_backend(backend)
        self._shards: List[ProfileNeighborIndex] = [
            ProfileNeighborIndex(
                config=self.config,
                early_termination=early_termination,
                tight_term_bound=tight_term_bound,
                backend=self.backend,
            )
            for _ in range(num_shards)
        ]
        self._assignment: Dict[str, int] = {}
        # Learner-hook updates that would move or first-place a consumer are
        # deferred here and flushed by sync(): a batch of feedback events
        # between queries costs one placement each instead of an eager
        # re-index per event (see on_profile_update).
        self._pending: Dict[str, Profile] = {}
        self._provider = provider
        self._provider_version = provider_version
        self._last_provider_stamp: Optional[int] = None
        self._hooked = False
        self.queries = 0
        self.migrations = 0
        if profiles is not None:
            self.build(profiles)

    # -- shard introspection --------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self.router.num_shards

    @property
    def shards(self) -> List[ProfileNeighborIndex]:
        """The underlying shard indexes (read-only use: tests, benchmarks)."""
        return list(self._shards)

    def shard_of(self, user_id: str) -> Optional[int]:
        """The shard currently holding ``user_id`` (None when unknown)."""
        return self._assignment.get(user_id)

    def shard_sizes(self) -> List[int]:
        return [len(shard) for shard in self._shards]

    @property
    def bound_skips(self) -> int:
        """Total candidates skipped by the norm bound across all shards."""
        return sum(shard.bound_skips for shard in self._shards)

    @property
    def mutations(self) -> int:
        """Total per-consumer (re)index/drop operations across all shards.

        Monotone: unchanged between two reads exactly when no shard's
        contents changed, which is what batch-level memos key on.
        """
        return sum(shard.mutations for shard in self._shards)

    # -- population -----------------------------------------------------------

    def build(self, profiles: Iterable[Profile]) -> None:
        """Index ``profiles`` from scratch, discarding any previous state."""
        for shard in self._shards:
            shard.build([])
        self._assignment.clear()
        for profile in profiles:
            self.add(profile)

    def add(self, profile: Profile) -> None:
        """Index (or re-index) one consumer, moving shards if routing says so."""
        user_id = profile.user_id
        self._pending.pop(user_id, None)
        shard_id = self.router.shard_for(profile)
        previous = self._assignment.get(user_id)
        if previous is not None and previous != shard_id:
            self._shards[previous].remove(user_id)
            self.migrations += 1
        self._assignment[user_id] = shard_id
        self._shards[shard_id].add(profile)

    def remove(self, user_id: str) -> None:
        """Forget a consumer entirely."""
        self._pending.pop(user_id, None)
        shard_id = self._assignment.pop(user_id, None)
        if shard_id is not None:
            self._shards[shard_id].remove(user_id)

    # -- invalidation ---------------------------------------------------------

    def invalidate(self, user_id: str) -> None:
        """Mark one consumer's caches stale in its owning shard."""
        shard_id = self._assignment.get(user_id)
        if shard_id is not None:
            self._shards[shard_id].invalidate(user_id)

    def on_profile_update(
        self, profile: Profile, event: Optional[FeedbackEvent] = None
    ) -> None:
        """ProfileLearner hook: invalidate — and if needed migrate — one consumer.

        Invalidation is lazy end to end.  A consumer whose assigned shard is
        unchanged is marked dirty inside that shard (rebuilt on the next
        query there, exactly like the single index).  A consumer whose
        dominant category moved under category routing — or who was never
        placed at all — is *queued* for placement and flushed by the next
        :meth:`sync`: a burst of feedback events between queries costs one
        re-index per touched consumer instead of one per event, and
        untouched consumers are never recomputed.  Queries always sync
        first, so no lookup ever observes the deferred placement.
        """
        user_id = profile.user_id
        desired = self.router.shard_for(profile)
        current = self._assignment.get(user_id)
        if current is None or current != desired:
            self._pending[user_id] = profile
        else:
            self._shards[current].on_profile_update(profile, event)

    def attach_to(self, learner) -> None:
        """Register the invalidation/migration hook on a :class:`ProfileLearner`."""
        learner.add_update_hook(self.on_profile_update)
        self._hooked = True

    # -- synchronisation ------------------------------------------------------

    def sync(self) -> int:
        """Reconcile shard membership with the profile source; return rebuilds.

        Mirrors the single index's strategy: when every profile mutation is
        reported through learner hooks and the provider's membership stamp is
        unchanged, only hook-flagged dirty consumers are rebuilt (inside
        their own shard).  Otherwise a full reconcile routes every current
        profile, migrating those whose assignment changed and re-indexing
        those whose version stamp moved.
        """
        if self._provider is None or (
            self._hooked
            and self._provider_version is not None
            and self._last_provider_stamp is not None
            and self._provider_version() == self._last_provider_stamp
        ):
            flushed = self._flush_pending()
            return flushed + sum(shard.sync() for shard in self._shards)

        self._flush_pending()
        if self._provider_version is not None:
            self._last_provider_stamp = self._provider_version()
        current: Dict[str, Profile] = {}
        for profile in self._provider():
            current[profile.user_id] = profile
        for user_id in list(self._assignment):
            if user_id not in current:
                self.remove(user_id)
        rebuilt = 0
        for user_id, profile in current.items():
            desired = self.router.shard_for(profile)
            assigned = self._assignment.get(user_id)
            if assigned != desired or self._shards[desired].is_stale(profile):
                self.add(profile)
                rebuilt += 1
        # Flush any hook-flagged dirty consumers the reconcile did not touch.
        rebuilt += sum(shard.sync() for shard in self._shards)
        return rebuilt

    def _flush_pending(self) -> int:
        """Place every deferred consumer (migrations and first placements)."""
        if not self._pending:
            return 0
        deferred = list(self._pending.values())
        self._pending.clear()
        for profile in deferred:
            self.add(profile)
        return len(deferred)

    def rebalance(
        self, num_shards: Optional[int] = None, routing: Optional[str] = None
    ) -> int:
        """Re-route every indexed consumer, optionally resizing the fleet.

        Called when shard servers join or fail.  Returns how many consumers
        moved shards.  Scores are unaffected — only placement changes.
        """
        self._flush_pending()
        new_router = ShardRouter(
            num_shards if num_shards is not None else self.router.num_shards,
            routing if routing is not None else self.router.strategy,
        )
        profiles: List[Profile] = []
        for shard in self._shards:
            profiles.extend(shard.indexed_profiles())
        old_assignment = dict(self._assignment)
        self.router = new_router
        self._shards = [
            ProfileNeighborIndex(
                config=self.config,
                early_termination=self.early_termination,
                tight_term_bound=self.tight_term_bound,
                backend=self.backend,
            )
            for _ in range(new_router.num_shards)
        ]
        self._assignment.clear()
        moved = 0
        for profile in profiles:
            self.add(profile)
            if old_assignment.get(profile.user_id) != self._assignment[profile.user_id]:
                moved += 1
        return moved

    # -- queries --------------------------------------------------------------

    def find_similar(
        self,
        target: Profile,
        category: Optional[str] = None,
        config: Optional[SimilarityConfig] = None,
    ) -> List[Tuple[str, float]]:
        """Fan the query out to every shard and merge the top-k lists.

        Byte-for-byte identical to the single-index and brute-force results:
        each shard returns its exact local top-k (same scores, same
        discard-rule filtering) and :func:`merge_topk` re-ranks the union with
        the same deterministic key.
        """
        config = config or self.config
        config.validate()
        self.sync()
        self.queries += 1
        per_shard = [
            shard.find_similar(target, category=category, config=config)
            for shard in self._shards
        ]
        return merge_topk(per_shard, config.top_k)

    def find_similar_many(
        self,
        targets: Iterable[Profile],
        category: Optional[str] = None,
        config: Optional[SimilarityConfig] = None,
    ) -> List[List[Tuple[str, float]]]:
        """Batch fan-out: one result list per target, shard-major execution.

        Identical results to per-target :meth:`find_similar` calls.  The
        batch reconciles membership once and then streams every target
        through each shard's warm caches (one vectorized-block repack per
        shard for the numpy kernel) before merging per target — the
        neighbourhood work a shard does for one consumer in the batch is
        shared with every other consumer it hosts.
        """
        config = config or self.config
        config.validate()
        targets = list(targets)
        if not targets:
            return []
        self.sync()
        self.queries += len(targets)
        per_shard = [
            shard.find_similar_many(targets, category=category, config=config)
            for shard in self._shards
        ]
        return [
            merge_topk(
                [shard_results[position] for shard_results in per_shard],
                config.top_k,
            )
            for position in range(len(targets))
        ]

    def __len__(self) -> int:
        return len(self._assignment)

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._assignment

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedNeighborIndex(shards={self.shard_sizes()}, "
            f"routing={self.router.strategy!r}, migrations={self.migrations})"
        )


def find_similar_users_sharded(
    target: Profile,
    candidates: Iterable[Profile],
    config: Optional[SimilarityConfig] = None,
    category: Optional[str] = None,
    num_shards: int = 4,
    routing: str = "hash",
    index: Optional[ShardedNeighborIndex] = None,
) -> List[Tuple[str, float]]:
    """Drop-in sharded replacement for :func:`find_similar_users`.

    When ``index`` is omitted a transient sharded index is built over
    ``candidates`` (useful for one-off equivalence checks); pass a long-lived
    :class:`ShardedNeighborIndex` to amortise the precomputation.
    """
    if index is None:
        index = ShardedNeighborIndex(
            profiles=candidates,
            config=config,
            num_shards=num_shards,
            routing=routing,
        )
    return index.find_similar(target, category=category, config=config)
