"""Precomputed neighbor index for the similarity algorithm (Figure 4.5).

:func:`repro.core.similarity.find_similar_users` compares the active profile
against *every* stored profile and re-flattens both hierarchical profiles for
every pair, which makes one similar-user search O(users × profile size).  That
is the hot path of the whole mechanism — the BRA runs it for every
recommendation request — so the index here restructures it:

- **Per-profile caches.**  For every consumer the index keeps the category
  preference vector, the flattened term vector and both vector norms, built
  once and reused across queries instead of recomputed per pair.
- **Select, then materialise.**  The scoring kernel scores every indexed
  consumer in one block (:mod:`repro.core.scoring`); the answer is selected
  on the bare score list and only the rows that can reach the top-k become
  ``(user_id, score)`` pairs.  The Figure 4.5 discard rule ("if Consumer X's
  preference merchandise item value Tx [is] different from ... Ty, the
  similarity result will be discarded") is applied to those few survivors
  from a per-category ``user → value`` map, not to the whole community.
- **Incremental invalidation.**  :class:`~repro.core.profile_learning.ProfileLearner`
  fires an update hook per feedback event; the index marks exactly that
  consumer dirty and lazily rebuilds its caches on the next query.  A version
  stamp (``feedback_events`` / ``updated_at``) is checked as a second line of
  defence so profiles replaced wholesale in UserDB are also picked up.

The indexed search is score-identical to the brute-force one: it replicates
the same cosine formulas over the same dictionaries (see the property suite in
``tests/property/test_neighbor_index.py``), so it can be swapped in anywhere
:func:`find_similar_users` is used today.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.profile import Profile
from repro.core.profile_learning import FeedbackEvent
from repro.core.scoring import (
    DEFAULT_BACKEND,
    create_kernel,
    resolve_backend,
    term_cosine_ceiling,
)
from repro.core.similarity import (
    SimilarityConfig,
    vector_norm as _norm,
)

__all__ = ["ProfileNeighborIndex", "find_similar_users_indexed"]

ProfilesProvider = Callable[[], Iterable[Profile]]


@dataclass
class _ProfileEntry:
    """Cached similarity inputs of one indexed consumer."""

    user_id: str
    profile: Profile
    prefs: Dict[str, float]
    pref_norm: float
    terms: Dict[str, float]
    term_norm: float
    #: L1 norm and max absolute weight of the flattened term vector — the
    #: Hölder-bound inputs for tight early termination.
    term_l1: float
    term_max: float
    version: Tuple[int, int, float, int]


def _version_of(profile: Profile) -> Tuple[int, int, float, int]:
    """Cheap change stamp: object identity plus the learner's counters."""
    return (
        id(profile),
        profile.feedback_events,
        profile.updated_at,
        len(profile.categories),
    )


class ProfileNeighborIndex:
    """Precomputed per-profile caches + category windows for neighbor search.

    The index can be fed two ways:

    - with a ``provider`` callable returning the current profiles (the way
      the recommendation service wires it to UserDB): every :meth:`sync`
      reconciles against the provider, picking up registrations, removals and
      version changes;
    - explicitly through :meth:`build` / :meth:`add` for offline datasets.

    Invalidation is incremental: :meth:`on_profile_update` (the hook handed to
    :meth:`~repro.core.profile_learning.ProfileLearner.add_update_hook` via
    :meth:`attach_to`) marks only the touched consumer dirty; everyone else's
    caches survive untouched.
    """

    def __init__(
        self,
        profiles: Optional[Iterable[Profile]] = None,
        provider: Optional[ProfilesProvider] = None,
        config: Optional[SimilarityConfig] = None,
        provider_version: Optional[Callable[[], int]] = None,
        early_termination: bool = False,
        tight_term_bound: bool = True,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        self.config = config or SimilarityConfig()
        self.config.validate()
        # Scoring kernel backend ("dict" | "numpy" | "auto"); platform wiring
        # passes PlatformConfig.scoring_backend.  The backends are
        # score-identical by construction (see repro.core.scoring and
        # tests/property/test_scoring_kernel.py).
        self.backend = resolve_backend(backend)
        self._kernel = create_kernel(self.backend)
        # Cauchy-Schwarz norm-bound candidate skipping (see find_similar).
        # Off by default so the index stays a drop-in reference implementation;
        # the sharded index turns it on inside every shard.
        self.early_termination = early_termination
        # With the bound on, additionally tighten the term-cosine ceiling
        # below 1 via cached L1/L-inf norms (Hölder); ``False`` keeps the
        # plain Cauchy-Schwarz ceiling for A/B comparison in the benchmarks.
        self.tight_term_bound = tight_term_bound
        self.bound_skips = 0
        self._provider = provider
        # When every profile mutation is reported through learner hooks
        # (attach_to) AND the provider exposes a membership version stamp,
        # sync() can skip the full per-profile reconcile entirely.
        self._provider_version = provider_version
        self._last_provider_stamp: Optional[int] = None
        self._hooked = False
        self._entries: Dict[str, _ProfileEntry] = {}
        self._profiles_by_id: Dict[str, Profile] = {}
        self._dirty: Set[str] = set()
        # category → user → scalar preference value (what the discard rule
        # reads), and the lazily sorted (value, user) window the
        # early-termination replay takes its candidate order from.
        self._category_values: Dict[str, Dict[str, float]] = {}
        self._sorted_windows: Dict[str, Tuple[List[float], List[str]]] = {}
        self.rebuilds = 0
        self.queries = 0
        # Monotone stamp bumped on every entry (re)index or drop; batch
        # consumers (AgentHybridRecommender.prepare_batch) use it to prove a
        # memoized neighbor list is still current.
        self.mutations = 0
        if profiles is not None:
            self.build(profiles)

    # -- population ----------------------------------------------------------

    def build(self, profiles: Iterable[Profile]) -> None:
        """Index ``profiles`` from scratch, discarding any previous state."""
        self._entries.clear()
        self._profiles_by_id.clear()
        self._dirty.clear()
        self._category_values.clear()
        self._sorted_windows.clear()
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
        self._drop_entry(user_id)

    # -- invalidation ---------------------------------------------------------

    def invalidate(self, user_id: str) -> None:
        """Mark one consumer's caches stale; rebuilt lazily on next query."""
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
        """The consumers whose caches are currently stale (for tests)."""
        return set(self._dirty)

    def indexed_profiles(self) -> List[Profile]:
        """The authoritative profile objects currently held by this index."""
        return list(self._profiles_by_id.values())

    def cached_entry(self, user_id: str) -> Optional[_ProfileEntry]:
        """The raw cached entry of one consumer (for tests/diagnostics)."""
        return self._entries.get(user_id)

    def is_stale(self, profile: Profile) -> bool:
        """Whether ``profile`` needs re-indexing (absent, dirty or changed).

        Used by reconciling owners (the sharded index) that manage membership
        themselves instead of handing this index a provider.
        """
        entry = self._entries.get(profile.user_id)
        return (
            entry is None
            or profile.user_id in self._dirty
            or entry.version != _version_of(profile)
        )

    # -- synchronisation ------------------------------------------------------

    def sync(self) -> int:
        """Reconcile caches with the profile source; return rebuild count.

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
        rebuilt = 0
        if self._provider is not None:
            if self._provider_version is not None:
                self._last_provider_stamp = self._provider_version()
            current: Dict[str, Profile] = {}
            for profile in self._provider():
                current[profile.user_id] = profile
            for user_id in list(self._entries):
                if user_id not in current:
                    self.remove(user_id)
            for user_id, profile in current.items():
                self._profiles_by_id[user_id] = profile
                entry = self._entries.get(user_id)
                if (
                    entry is None
                    or user_id in self._dirty
                    or entry.version != _version_of(profile)
                ):
                    self._index_profile(profile)
                    rebuilt += 1
        else:
            return self._rebuild_dirty()
        self._dirty.clear()
        return rebuilt

    def _rebuild_dirty(self) -> int:
        """Rebuild only hook-flagged consumers (no provider reconcile)."""
        rebuilt = 0
        # Sorted: the order fixes kernel row numbers and ``_entries`` order,
        # which must not depend on how a set of strings happens to iterate.
        for user_id in sorted(self._dirty):
            profile = self._profiles_by_id.get(user_id)
            if profile is None:
                self._drop_entry(user_id)
                continue
            self._index_profile(profile)
            rebuilt += 1
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

        The target side (preference and flattened term vectors, norms) is read
        from the index's own row when, after ``sync()``, ``target`` *is* that
        row's profile at that row's stamp (``_version_of``: same object, same
        counters) — the row holds the output of the same calls on the same
        unchanged object — and flattened here otherwise (a detached copy, an
        unindexed consumer).  A profile edited in place *without* the learner
        is thus invisible as a target exactly as long as it is invisible as a
        row: until ``invalidate(user_id)``.

        A query is one kernel block (every entry's exact score) and one
        :meth:`~repro.core.scoring.BlockScores.top_pairs` selection over it:
        the ``(top_k + 1)``-th largest bare score is a floor, only the rows
        at or above it are materialised and sorted by ``(-score, user_id)``,
        and the discard rule ``|Tx − Ty| <= tolerance`` is applied to those
        survivors, widening the floor when it leaves fewer than ``top_k``.

        ``early_termination`` does not change the answer or the work above;
        it additionally replays, in candidate order against a running k-th
        best score, the skip decisions a per-candidate loop would have made,
        and counts them in ``bound_skips`` (see :meth:`_replay_bound_skips`).
        A candidate's score *bound* takes the exact preference cosine and an
        upper bound on the term cosine from cached norms alone — exactly 0
        when either norm is 0, else by Cauchy-Schwarz
        (``dot(t, e) <= ||t||₂·||e||₂``, so at most 1) tightened by Hölder
        when ``tight_term_bound`` is on:
        ``dot(t, e) <= min(||t||∞·||e||₁, ||t||₁·||e||∞)``, whose quotient
        by ``||t||₂·||e||₂`` is below 1 for every vector that is not
        perfectly concentrated on the aligned term — the per-entry L1 norm
        and max weight are cached at index time.  The tight bound is
        inflated by one part in 10⁹ before comparing, and a candidate counts
        as skipped only when its bound is *strictly* below the k-th best
        score seen so far, so no candidate that could tie the k-th best is
        ever counted.
        """
        config = config or self.config
        config.validate()
        self.sync()
        self.queries += 1

        entry = self._entries.get(target.user_id)
        if entry is not None and entry.version == _version_of(target):
            target_prefs, pref_norm = entry.prefs, entry.pref_norm
            terms, term_norm = entry.terms, entry.term_norm
            term_l1, term_max = entry.term_l1, entry.term_max
        else:
            target_prefs = target.preference_vector()
            terms = target.flattened_terms().as_dict()
            pref_norm, term_norm = _norm(target_prefs), _norm(terms)
            term_l1 = term_max = 0.0
            if self.early_termination and self.tight_term_bound:
                abs_weights = [abs(value) for value in terms.values()]
                term_l1, term_max = sum(abs_weights), max(abs_weights, default=0.0)
        tq = self._kernel.prepare_target(
            target_prefs, pref_norm, terms, term_norm, term_l1, term_max
        )
        preference_weight = config.preference_weight
        term_weight = config.term_weight
        block = self._kernel.score_block(
            self._entries,
            tq,
            preference_weight,
            term_weight,
            preference_weight + term_weight,
        )
        if self.early_termination:
            candidates = self._candidate_ids(target_prefs, category, config)
            self._replay_bound_skips(block, tq, candidates, config, target.user_id)

        discard = None
        if category is not None:
            # Figure 4.5 discard rule, the brute-force predicate verbatim; a
            # consumer without the category has an implicit preference of 0.0.
            tolerance = config.discard_tolerance
            target_value = target_prefs.get(category, 0.0)
            values = self._category_values.get(category, {})

            def discard(user_id: str) -> bool:
                return not abs(target_value - values.get(user_id, 0.0)) <= tolerance

        return block.top_pairs(
            config.min_similarity, target.user_id, config.top_k, discard
        )

    def find_similar_many(
        self,
        targets: Iterable[Profile],
        category: Optional[str] = None,
        config: Optional[SimilarityConfig] = None,
    ) -> List[List[Tuple[str, float]]]:
        """One :meth:`find_similar` result list per target, in order: exactly
        the per-target calls, made after one ``sync()`` — which leaves a
        hooked index nothing to reconcile inside them."""
        self.sync()
        return [
            self.find_similar(target, category=category, config=config)
            for target in targets
        ]

    # -- scoring ---------------------------------------------------------------

    def _replay_bound_skips(
        self,
        block,
        tq,
        candidates: Iterable[str],
        config: SimilarityConfig,
        exclude_user: str,
    ) -> None:
        """Count in ``bound_skips`` what a per-candidate loop would have skipped.

        The kernel has scored every entry and
        :meth:`~repro.core.scoring.BlockScores.top_pairs` selects the answer
        from the whole block, so the bound has nothing left to save.  The
        sequential skip/heap decisions :meth:`find_similar` documents are
        only replayed over the block, in candidate order, because
        ``bound_skips`` is a frozen ledger and benchmark metric; ROADMAP
        item 3 deletes the bound and, with it, this replay,
        :meth:`_candidate_ids` and :meth:`_window`.
        """
        preference_weight = config.preference_weight
        term_weight = config.term_weight
        total_weight = preference_weight + term_weight
        scores = block.scores
        pref_cosines = block.pref_cosines
        row_of = block.row_of
        entries = self._entries
        tight = self.tight_term_bound
        top_k = config.top_k
        # Min-heap of the k best scores seen so far; its root is the score a
        # candidate must reach to possibly make the final top-k list.
        best_scores: List[float] = []
        skips = 0
        for user_id in candidates:
            if user_id == exclude_user:
                continue
            row = row_of[user_id]
            score = scores[row]
            if len(best_scores) < top_k:
                heapq.heappush(best_scores, score)
                continue
            kth_best = best_scores[0]
            entry = entries[user_id]
            term_bound = term_cosine_ceiling(
                tq, entry.term_norm, entry.term_l1, entry.term_max, tight
            )
            bound = (
                preference_weight * pref_cosines[row] + term_weight * term_bound
            ) / total_weight
            if bound < kth_best:
                # Even a perfectly aligned term vector could not lift this
                # candidate past the current k-th score.
                skips += 1
            elif score > kth_best:
                heapq.heapreplace(best_scores, score)
        self.bound_skips += skips

    # -- internals ------------------------------------------------------------

    def _candidate_ids(
        self,
        target_prefs: Dict[str, float],
        category: Optional[str],
        config: SimilarityConfig,
    ) -> Iterable[str]:
        """Candidates surviving the discard rule, in window order.

        Reached only from :meth:`_replay_bound_skips`, whose ``bound_skips``
        count this order defines; it goes when ROADMAP item 3 deletes the
        replay.
        """
        if category is None:
            return list(self._entries)

        tolerance = config.discard_tolerance
        target_value = target_prefs.get(category, 0.0)
        members = self._category_values.get(category, {})

        candidates: List[str] = []
        if members:
            values, user_ids = self._window(category)
            # Widen the bisect bounds by one ulp each way, then re-apply the
            # exact brute-force predicate: the window is a fast pre-filter,
            # |Tx - Ty| <= tolerance stays the single source of truth.
            low = math.nextafter(target_value - tolerance, -math.inf)
            high = math.nextafter(target_value + tolerance, math.inf)
            start = bisect_left(values, low)
            stop = bisect_right(values, high)
            for position in range(start, stop):
                if abs(target_value - values[position]) <= tolerance:
                    candidates.append(user_ids[position])
        if abs(target_value - 0.0) <= tolerance and len(members) < len(self._entries):
            # Consumers without the category have an implicit preference of
            # 0.0 and pass the discard rule whenever the target's own value
            # is within tolerance of zero.
            candidates.extend(
                user_id for user_id in self._entries if user_id not in members
            )
        return candidates

    def _window(self, category: str) -> Tuple[List[float], List[str]]:
        """One category's ``(values, user ids)`` sorted by value.

        Reached only from :meth:`_candidate_ids`, i.e. only from the replay.
        """
        cached = self._sorted_windows.get(category)
        if cached is None:
            pairs = sorted(
                (value, user_id)
                for user_id, value in self._category_values[category].items()
            )
            cached = ([pair[0] for pair in pairs], [pair[1] for pair in pairs])
            self._sorted_windows[category] = cached
        return cached

    def _index_profile(self, profile: Profile) -> None:
        user_id = profile.user_id
        old = self._entries.get(user_id)
        if old is not None:
            self._unlink_categories(old)
        prefs = profile.preference_vector()
        terms = profile.flattened_terms().as_dict()
        abs_weights = [abs(value) for value in terms.values()]
        entry = _ProfileEntry(
            user_id=user_id,
            profile=profile,
            prefs=prefs,
            pref_norm=_norm(prefs),
            terms=terms,
            term_norm=_norm(terms),
            term_l1=sum(abs_weights),
            term_max=max(abs_weights, default=0.0),
            version=_version_of(profile),
        )
        self._entries[user_id] = entry
        self._kernel.entry_changed(entry)
        for name, value in prefs.items():
            self._category_values.setdefault(name, {})[user_id] = value
            self._sorted_windows.pop(name, None)
        self.rebuilds += 1
        self.mutations += 1

    def _drop_entry(self, user_id: str) -> None:
        entry = self._entries.pop(user_id, None)
        if entry is not None:
            self._unlink_categories(entry)
            self._kernel.entry_removed(user_id)
            self.mutations += 1

    def _unlink_categories(self, entry: _ProfileEntry) -> None:
        for name in entry.prefs:
            bucket = self._category_values.get(name)
            if bucket is not None:
                bucket.pop(entry.user_id, None)
                if not bucket:
                    del self._category_values[name]
                self._sorted_windows.pop(name, None)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProfileNeighborIndex(entries={len(self._entries)}, "
            f"dirty={len(self._dirty)}, rebuilds={self.rebuilds})"
        )


def find_similar_users_indexed(
    target: Profile,
    candidates: Iterable[Profile],
    config: Optional[SimilarityConfig] = None,
    category: Optional[str] = None,
    index: Optional[ProfileNeighborIndex] = None,
) -> List[Tuple[str, float]]:
    """Drop-in indexed replacement for :func:`find_similar_users`.

    When ``index`` is omitted a transient index is built over ``candidates``
    (useful for one-off equivalence checks); pass a long-lived
    :class:`ProfileNeighborIndex` to amortise the precomputation across
    queries, which is where the speedup comes from.
    """
    if index is None:
        index = ProfileNeighborIndex(profiles=candidates, config=config)
    return index.find_similar(target, category=category, config=config)
