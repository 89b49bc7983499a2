"""The recommendation service a buyer agent server attaches to its host.

:class:`RecommendationService` wires the recommendation engines of
:mod:`repro.core` to one server's UserDB; the BRA fetches it from its host
whenever it needs to generate recommendation information (§3.3-2).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.cold_start import ColdStartPolicy, ColdStartStrategy
from repro.core.cross_sell import CrossSellRecommender
from repro.core.hybrid import AgentHybridRecommender
from repro.core.information_filtering import InformationFilteringRecommender
from repro.core.items import Item, ItemCatalogView
from repro.core.neighbors import ProfileNeighborIndex, profile_stamp
from repro.core.popularity import PopularityRecommender, WeeklyHottestRecommender
from repro.core.profile import Profile
from repro.core.profile_learning import ProfileLearner
from repro.core.recommender import Recommendation, RecommendationEngine
from repro.core.similarity import SimilarityConfig
from repro.ecommerce.databases import UserDB

__all__ = ["RecommendationService"]


class RecommendationService:
    """Recommendation engines wired to the buyer agent server's databases.

    The BRA fetches this service from its host whenever it needs to generate
    recommendation information (§3.3-2), so the engines always see the latest
    profiles and observational ratings in UserDB.
    """

    def __init__(
        self,
        user_db: UserDB,
        catalog: ItemCatalogView,
        similarity_config: Optional[SimilarityConfig] = None,
        now: Optional[callable] = None,
        profile_learner: Optional[ProfileLearner] = None,
    ) -> None:
        self.user_db = user_db
        self.catalog = catalog
        self.similarity_config = similarity_config or SimilarityConfig()
        self.now = now if now is not None else (lambda: 0.0)
        self.profile_learner = profile_learner

        def profile_of(user_id: str) -> Optional[Profile]:
            if not user_db.is_registered(user_id):
                return None
            return user_db.profile(user_id)

        # Neighbor search runs against the precomputed index, kept in sync
        # with UserDB by provider reconciliation and, when the learner is
        # known, by precise per-consumer invalidation hooks.
        self.neighbor_index = ProfileNeighborIndex(
            provider=user_db.profiles,
            config=self.similarity_config,
            provider_version=user_db.profiles_version,
        )
        if profile_learner is not None:
            self.neighbor_index.attach_to(profile_learner)

        self.hybrid = AgentHybridRecommender(
            ratings=user_db.ratings,
            catalog=catalog,
            profile_of=profile_of,
            neighbor_index=self.neighbor_index,
            similarity_config=self.similarity_config,
        )
        self.information_filtering = InformationFilteringRecommender(catalog, profile_of)
        self.popularity = PopularityRecommender(user_db.ratings, catalog)
        # §5.2 future-work extensions: weekly hottest and tied-sale suggestions.
        self.weekly_hottest = WeeklyHottestRecommender(
            user_db.ratings, now=self.now, catalog=catalog
        )
        self.cross_sell = CrossSellRecommender(user_db.ratings, catalog)
        self.cold_start = ColdStartPolicy(
            strategy=ColdStartStrategy.CONTENT_THEN_POPULARITY,
            content_recommender=self.information_filtering,
            popularity_recommender=self.popularity,
        )
        self.engine = RecommendationEngine(
            primary=self.hybrid,
            ratings=user_db.ratings,
            fallback=self.popularity,
        )
        # user_id -> ((k, inputs stamp, profile stamp) — see batch_refresh —
        # it was refreshed under, the refreshed list, the refresh generation
        # whose inputs the list was last known exact for)
        self._batch_cache: Dict[str, Tuple[Tuple, List[Recommendation], int]] = {}
        # The inputs of generation _refreshed_generation, held by reference
        # (see _inputs_unchanged): (user_id -> (profile, its stamp),
        # user_id -> (interaction list, its length), catalogue length).
        self._refreshed_inputs: Optional[Tuple[Dict, Dict, int]] = None
        self._refreshed_generation = 0
        self._refreshed_membership: Optional[int] = None
        self.cache_invalidations = 0
        #: Consumers all refreshes recomputed / answered without recomputing;
        #: ``refresh_revalidated`` counts the answered ones whose counters had
        #: moved but whose inputs compared equal.
        self.refresh_recomputed = 0
        self.refresh_unchanged = 0
        self.refresh_revalidated = 0
        self.last_batch_refresh_at: Optional[float] = None

    def recommend(
        self, user_id: str, k: int = 10, category: Optional[str] = None
    ) -> List[Recommendation]:
        """Recommendations for ``user_id`` (hybrid with popularity fallback)."""
        return self.engine.recommend(user_id, k=k, category=category)

    def recommend_many(
        self, user_ids: Iterable[str], k: int = 10, category: Optional[str] = None
    ) -> Dict[str, List[Recommendation]]:
        """Batch recommendations — identical output to per-user ``recommend``."""
        return self.engine.recommend_many(user_ids, k=k, category=category)

    def batch_refresh(
        self, user_ids: Iterable[str], k: int = 10
    ) -> Dict[str, List[Recommendation]]:
        """Bring the cached lists of ``user_ids`` up to date and return them.

        Equals ``recommend_many(user_ids, k)`` (call that to have everything
        recomputed) but recomputes only the consumers whose inputs changed.
        An entry's counters — ``(k, inputs stamp, profile stamp)`` — prove it
        current while they have not moved.  The inputs stamp, read after one
        ``neighbor_index.sync()``, covers all that ``recommend`` reads on a
        server: profiles and membership reach the index's monotone
        ``mutations`` counter (learner hook or ``profiles_version`` reconcile
        → re-index / drop); ratings, purchases and the popularity fallback
        hang off ``RatingsStore.revision``; the catalogue view is add-only
        over frozen items.  The consumer's own profile stamp covers the
        target side: a profile edited behind the index is still flattened
        fresh as a *target*.

        Moved counters prove nothing: a shard handed away and back moves them
        all and leaves the content as it was.  So when an entry of the last
        generation (the last refresh that computed or re-stamped anything)
        has moved counters, this server's inputs are compared once with that
        generation's, held by reference (:meth:`_inputs_unchanged`).  Equal
        inputs give equal lists, and those entries are re-stamped
        (``refresh_revalidated``); otherwise they are recomputed.  No request
        path reads the cache: :meth:`cached_recommendations` exposes it for
        inspection, and on-demand :meth:`recommend` calls always compute
        fresh.
        """
        index, db, cache = self.neighbor_index, self.user_db, self._batch_cache
        index.sync()
        stamp = (index.mutations, db.ratings.revision, len(self.catalog))
        if db.profiles_version() != self._refreshed_membership:
            # Consumers that left (handed back, migrated) leave no list behind.
            self._refreshed_membership = db.profiles_version()
            for user_id in [u for u in cache if not db.is_registered(u)]:
                self.invalidate_cached(user_id)
        validity, stale = {}, []
        for user_id in dict.fromkeys(user_ids):
            profile = self.hybrid.profile_of(user_id)
            valid = validity[user_id] = (
                k, stamp, None if profile is None else profile_stamp(profile)
            )
            if user_id not in cache or cache[user_id][0] != valid:
                stale.append(user_id)
        generation = self._refreshed_generation
        revalidated = [
            user_id for user_id in stale
            if user_id in cache
            and cache[user_id][2] == generation
            and cache[user_id][0][0] == k
        ]
        if revalidated and self._inputs_unchanged():
            kept = set(revalidated)
            stale = [user_id for user_id in stale if user_id not in kept]
        else:
            revalidated = []
        # An empty request still gets its k checked.
        fresh = self.recommend_many(stale, k=k) if stale or not validity else {}
        if fresh or revalidated:
            # Every requested list is now exact for the inputs as they are.
            self._refreshed_generation = generation = generation + 1
            self._refreshed_inputs = self._capture_inputs()
            for user_id, valid in validity.items():
                recs = fresh[user_id] if user_id in fresh else cache[user_id][1]
                cache[user_id] = (valid, recs, generation)
        self.refresh_recomputed += len(stale)
        self.refresh_unchanged += len(validity) - len(stale)
        self.refresh_revalidated += len(revalidated)
        self.last_batch_refresh_at = self.now()
        # Copies: what cached_recommendations serves later is not the caller's.
        return {user_id: list(cache[user_id][1]) for user_id in validity}

    def _capture_inputs(self) -> Tuple[Dict, Dict, int]:
        """References to what this server's lists are computed from now."""
        lists = self.user_db.ratings.interaction_lists()
        return (
            {
                profile.user_id: (profile, profile_stamp(profile))
                for profile in self.user_db.profiles()
            },
            {user_id: (history, len(history)) for user_id, history in lists.items()},
            len(self.catalog),
        )

    def _inputs_unchanged(self) -> bool:
        """Whether this server's recommendation inputs equal the last
        generation's — one comparison for every consumer, since anyone can
        be anyone's neighbour.

        Membership and each profile: the held profile must still be at its
        stamp, and be the current one or have an equal
        :meth:`Profile.content_key` (insertion order included).  Each interaction list: the same
        list at the same length (lists are append-only), or an equal ordered
        list (``Interaction`` is frozen).  The catalogue: its length (it
        only grows).
        """
        profiles, histories, catalog_size = self._refreshed_inputs
        current = self.user_db.profiles()
        if len(self.catalog) != catalog_size or len(current) != len(profiles):
            return False
        for profile in current:
            held = profiles.get(profile.user_id)
            if held is None:
                return False
            then, then_stamp = held
            if profile_stamp(then) != then_stamp or (
                profile is not then and profile.content_key() != then.content_key()
            ):
                return False
        lists = self.user_db.ratings.interaction_lists()
        if len(lists) != len(histories):
            return False
        for user_id, interactions in lists.items():
            held = histories.get(user_id)
            if held is None:
                return False
            then, size = held
            if len(interactions) != size or (
                interactions is not then and interactions != then
            ):
                return False
        return True

    def cached_recommendations(
        self, user_id: str, k: Optional[int] = None
    ) -> Optional[List[Recommendation]]:
        """The last batch-refreshed list for ``user_id`` (None when absent).

        With ``k`` the entry only qualifies when it was refreshed at exactly
        that list length — a cache hit must be byte-identical to a fresh
        ``recommend(user_id, k=k)``, and a list computed at a different ``k``
        is not a prefix/extension guarantee this cache is willing to make.
        """
        cached = self._batch_cache.get(user_id)
        if cached is None or (k is not None and cached[0][0] != k):
            return None
        return list(cached[1])

    def invalidate_cached(self, user_id: str) -> None:
        """Drop ``user_id``'s batch-refreshed list (no-op when absent)."""
        if self._batch_cache.pop(user_id, None) is not None:
            self.cache_invalidations += 1

    def weekly_hottest_list(
        self, k: int = 10, category: Optional[str] = None
    ) -> List[Recommendation]:
        """The weekly hottest merchandise (§5.2 future-work item 2)."""
        return self.weekly_hottest.recommend("*community*", k=k, category=category)

    def cross_sell_for(
        self,
        user_id: str,
        k: int = 5,
        category: Optional[str] = None,
        basket: Optional[List[str]] = None,
    ) -> List[Recommendation]:
        """Tied-sale suggestions for an explicit basket or the purchase history."""
        if basket:
            return self.cross_sell.recommend_for_basket(
                list(basket), k=k, category=category
            )
        return self.cross_sell.recommend(user_id, k=k, category=category)

    def recommend_for_query(
        self, user_id: str, query_items: List[Item], k: int = 10, extra: int = 5
    ) -> List[Recommendation]:
        """Rank live query results and append similar-consumer discoveries."""
        known_items = [item for item in query_items if item.item_id in self.catalog]
        unknown_items = [item for item in query_items if item.item_id not in self.catalog]
        for item in unknown_items:
            # Merchandise discovered at a marketplace but not yet in the local
            # view becomes part of the recommendation catalogue from now on.
            self.catalog.add(item)
            known_items.append(item)
        return self.hybrid.recommend_for_query(user_id, known_items, k=k, extra=extra)
