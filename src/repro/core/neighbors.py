"""Precomputed neighbor index for the similarity algorithm (Figure 4.5).

:func:`repro.core.similarity.find_similar_users` compares the active profile
against *every* stored profile and re-flattens both hierarchical profiles for
every pair, which makes one similar-user search O(users × profile size).  That
is the hot path of the whole mechanism — the BRA runs it for every
recommendation request — so the index here restructures it:

- **One store.**  For every consumer the scoring kernel holds one row: the
  category preference vector, the flattened term vector and both vector
  norms, built once and reused across queries instead of recomputed per
  pair, stamped with the profile's change stamp (:func:`profile_stamp`).
  The index itself keeps only its input side — the profiles it was handed
  and which of them are dirty.
- **Score only what can reach the top-k.**  The scoring kernel
  (:mod:`repro.core.scoring`) answers the top-k itself: it skips every
  category-signature partition whose block-max bound is under the k-th
  best score it holds.  Only answer rows become ``(user_id, score)``
  pairs.  The Figure 4.5 discard rule ("if Consumer X's preference
  merchandise item value Tx [is] different from ... Ty, the similarity
  result will be discarded") is applied to rows that could enter the
  answer, reading each one's value from its own preference column, not to
  the whole community.
- **Incremental invalidation.**  :class:`~repro.core.profile_learning.ProfileLearner`
  fires an update hook per feedback event; the index marks exactly that
  consumer dirty and lazily re-indexes it on the next query.  The row's
  stamp is checked as a second line of defence so profiles replaced
  wholesale in UserDB are also picked up.

The indexed search is score-identical to the brute-force one: it replicates
the same cosine formulas over the same dictionaries (see the property suite in
``tests/property/test_neighbor_index.py``), so it can be swapped in anywhere
:func:`find_similar_users` is used today.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.profile import Profile
from repro.core.profile_learning import FeedbackEvent
from repro.core.scoring import DictKernel, TargetState
from repro.core.similarity import (
    SimilarityConfig,
    vector_norm as _norm,
)

__all__ = ["ProfileNeighborIndex", "profile_stamp"]

ProfilesProvider = Callable[[], Iterable[Profile]]


def profile_stamp(profile: Profile) -> Tuple[int, int, float, int]:
    """Cheap change stamp: object identity plus the learner's counters.

    The identity is sound inside the index: it holds each stamped profile
    in ``_profiles_by_id`` until a replacement arrives, which was created
    while the stamped one lived (so has another id), or through the
    learner hook, which marks the consumer dirty.
    """
    return (
        id(profile),
        profile.feedback_events,
        profile.updated_at,
        len(profile.categories),
    )


class ProfileNeighborIndex:
    """Neighbor search over one kernel row per consumer.

    The index can be fed two ways:

    - with a ``provider`` callable returning the current profiles (the way
      the recommendation service wires it to UserDB): every :meth:`sync`
      reconciles against the provider, picking up registrations, removals and
      version changes;
    - explicitly through :meth:`build` / :meth:`add` for offline datasets.

    Invalidation is incremental: :meth:`on_profile_update` (the hook handed to
    :meth:`~repro.core.profile_learning.ProfileLearner.add_update_hook` via
    :meth:`attach_to`) marks only the touched consumer dirty; everyone else's
    rows survive untouched.
    """

    def __init__(
        self,
        profiles: Optional[Iterable[Profile]] = None,
        provider: Optional[ProfilesProvider] = None,
        config: Optional[SimilarityConfig] = None,
        provider_version: Optional[Callable[[], int]] = None,
    ) -> None:
        self.config = config or SimilarityConfig()
        self.config.validate()
        self._kernel = DictKernel()
        self._provider = provider
        # When every profile mutation is reported through learner hooks
        # (attach_to) AND the provider exposes a membership version stamp,
        # sync() can skip the full per-profile reconcile entirely.
        self._provider_version = provider_version
        self._last_provider_stamp: Optional[int] = None
        self._hooked = False
        # Every consumer the index knows; the kernel holds a row for each
        # one that is not dirty.
        self._profiles_by_id: Dict[str, Profile] = {}
        self._dirty: Set[str] = set()
        self.rebuilds = 0
        self.queries = 0
        # Monotone stamp bumped on every row (re)index or drop;
        # RecommendationService.batch_refresh uses it to prove a cached
        # recommendation list is still current.
        self.mutations = 0
        if profiles is not None:
            self.build(profiles)

    # -- population ----------------------------------------------------------

    def build(self, profiles: Iterable[Profile]) -> None:
        """Index ``profiles`` from scratch, discarding any previous state."""
        self._profiles_by_id.clear()
        self._dirty.clear()
        self._kernel.reset()
        for profile in profiles:
            self.add(profile)

    def add(self, profile: Profile) -> None:
        """Index (or re-index) one consumer's profile immediately."""
        self._profiles_by_id[profile.user_id] = profile
        self._index_profile(profile)
        self._dirty.discard(profile.user_id)

    def remove(self, user_id: str) -> None:
        """Forget a consumer entirely."""
        self._profiles_by_id.pop(user_id, None)
        self._dirty.discard(user_id)
        if self._kernel.drop(user_id):
            self.mutations += 1

    # -- invalidation ---------------------------------------------------------

    def invalidate(self, user_id: str) -> None:
        """Mark one consumer's row stale; re-indexed lazily on next query."""
        if user_id in self._profiles_by_id:
            self._dirty.add(user_id)

    def on_profile_update(
        self, profile: Profile, event: Optional[FeedbackEvent] = None
    ) -> None:
        """ProfileLearner update hook: invalidate exactly this consumer."""
        self._profiles_by_id[profile.user_id] = profile
        self._dirty.add(profile.user_id)

    def attach_to(self, learner) -> None:
        """Register the invalidation hook on a :class:`ProfileLearner`."""
        learner.add_update_hook(self.on_profile_update)
        self._hooked = True

    def dirty_users(self) -> Set[str]:
        """The consumers whose rows are currently stale (for tests)."""
        return set(self._dirty)

    def indexed_profiles(self) -> List[Profile]:
        """The authoritative profile objects currently held by this index."""
        return list(self._profiles_by_id.values())

    @property
    def bound_skips(self) -> int:
        """Rows the kernel's bounds left unscored, over every query (a
        :meth:`build` keeps counting)."""
        return self._kernel.bound_skips

    # -- synchronisation ------------------------------------------------------

    def sync(self) -> int:
        """Reconcile rows with the profile source; return rebuild count.

        Normally a full reconcile against the provider (O(community), cheap
        per profile but linear).  When learner hooks are attached and the
        provider supplies a membership version stamp, an unchanged stamp
        proves the profile set did not change, so only hook-flagged dirty
        consumers are rebuilt — the common per-query case becomes O(dirty).
        """
        if (
            self._provider is not None
            and self._hooked
            and self._provider_version is not None
            and self._last_provider_stamp is not None
            and self._provider_version() == self._last_provider_stamp
        ):
            return self._rebuild_dirty()
        if self._provider is None:
            return self._rebuild_dirty()
        if self._provider_version is not None:
            self._last_provider_stamp = self._provider_version()
        current = {profile.user_id: profile for profile in self._provider()}
        # Every consumer the index knows, indexed or still pending.
        for user_id in [user_id for user_id in self._profiles_by_id if user_id not in current]:
            self.remove(user_id)
        rebuilt = 0
        for user_id, profile in current.items():
            self._profiles_by_id[user_id] = profile
            if user_id in self._dirty or self._kernel.stamp_of(user_id) != profile_stamp(profile):
                self._index_profile(profile)
                rebuilt += 1
        self._dirty.clear()
        return rebuilt

    def _rebuild_dirty(self) -> int:
        """Rebuild only hook-flagged consumers (no provider reconcile)."""
        # Sorted: the order fixes kernel row numbers and membership order,
        # which must not depend on how a set of strings happens to iterate.
        for user_id in sorted(self._dirty):
            self._index_profile(self._profiles_by_id[user_id])
        rebuilt = len(self._dirty)
        self._dirty.clear()
        return rebuilt

    # -- queries --------------------------------------------------------------

    def find_similar(
        self,
        target: Profile,
        category: Optional[str] = None,
        config: Optional[SimilarityConfig] = None,
    ) -> List[Tuple[str, float]]:
        """Indexed equivalent of :func:`repro.core.similarity.find_similar_users`.

        Returns the same ranked ``(user_id, similarity)`` list the brute-force
        search would: same scores, same discard-rule filtering, same
        deterministic tie-breaking.  The target itself is never included and
        does not need to be indexed.

        The target side (preference and flattened term vectors, norms) is
        rebuilt from the index's own row when, after ``sync()``, ``target``
        *is* that row's profile at that row's stamp (:func:`profile_stamp`:
        same object, same counters) — the row holds the output of the same
        calls on the same unchanged object — and flattened here otherwise (a
        detached copy, an unindexed consumer).  A profile edited in place
        *without* the learner is thus invisible as a target exactly as long
        as it is invisible as a row: until ``invalidate(user_id)``.

        A query is one :meth:`~repro.core.scoring.DictKernel.top_pairs`
        call: the kernel's exact ``sorted(valid, key=(-score, user_id))``
        prefix, where the discard rule ``|Tx − Ty| <= tolerance`` is asked
        only of rows whose score could enter it.
        """
        config = config or self.config
        config.validate()
        self.sync()
        self.queries += 1

        kernel = self._kernel
        if kernel.stamp_of(target.user_id) == profile_stamp(target):
            tq = kernel.target_of(target.user_id)
        else:
            prefs = target.preference_vector()
            terms = target.flattened_terms().weights()
            tq = TargetState(prefs, _norm(prefs), terms, _norm(terms))
        # Figure 4.5 discard rule, the brute-force predicate verbatim; a
        # consumer without the category has an implicit preference of 0.0.
        discard_rule = None
        if category is not None:
            discard_rule = (category, tq.prefs.get(category, 0.0), config.discard_tolerance)
        preference_weight = config.preference_weight
        term_weight = config.term_weight
        return kernel.top_pairs(
            tq,
            preference_weight,
            term_weight,
            preference_weight + term_weight,
            config.min_similarity,
            target.user_id,
            config.top_k,
            discard_rule,
        )

    # -- internals ------------------------------------------------------------

    def _index_profile(self, profile: Profile) -> None:
        self._kernel.put(
            profile.user_id,
            profile.preference_vector(),
            profile.flattened_terms().weights(),
            profile_stamp(profile),
        )
        self.rebuilds += 1
        self.mutations += 1

    def __len__(self) -> int:
        return len(self._kernel)

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._kernel

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProfileNeighborIndex(entries={len(self)}, "
            f"dirty={len(self._dirty)}, rebuilds={self.rebuilds})"
        )
