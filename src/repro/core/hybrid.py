"""The paper's recommendation mechanism: profile similarity + live results.

Section 4.4: "The generation of recommendation information is to find the
similar user's profile through the similarity. ... And then compare the
consumer Y's profile with the user queried merchandise information [and] the
recommendation information is generated."

Concretely the :class:`AgentHybridRecommender` does what the BRA asks the
mechanism to do in the Figure 4.2 workflow:

1. load the active consumer's hierarchical profile;
2. find the most similar other consumers in UserDB through the
   :class:`~repro.core.neighbors.ProfileNeighborIndex` (score-identical to
   :func:`repro.core.similarity.find_similar_users`), applying the Figure 4.5
   discard rule for the queried category — **once per request**: the one
   neighbour list serves both steps below;
3. collect the merchandise those similar consumers prefer (their observational
   ratings weighted by profile similarity);
4. when the consumer just ran a query, score the queried merchandise against
   the similar consumers' profiles and the consumer's own profile, so the
   returned recommendation list both re-ranks the live results and adds the
   "goods whose interest is closest" from the similar consumers (step 3, fed
   the list step 2 already found — nothing is written between ranking and
   discoveries, so a second lookup would return the same list).

Without other users (cold start) the mechanism degrades gracefully to the
consumer's own profile (information filtering), which is exactly the synergy
§2.3 motivates.

Both halves of §4.4 select before they materialise.  The neighbour search
picks its top-k on bare scores (:mod:`repro.core.neighbors`); the second half
works on bare ``(item_id, score)`` pairs: content candidates come from
:meth:`InformationFilteringRecommender.top_scores` (only the categories the
profile has are visited — any other item scores exactly 0), the blend and the
Figure 4.2 ranking sort pairs (:func:`~repro.core.recommender.ranked_pairs`),
and a :class:`Recommendation` is built only for the ``k`` (+ ``extra``) a
call returns.  Term vectors are read in place (:meth:`TermVector.weights`):
nothing here keeps them past the call.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import RecommendationError
from repro.core.items import Item, ItemCatalogView
from repro.core.information_filtering import InformationFilteringRecommender
from repro.core.neighbors import ProfileNeighborIndex
from repro.core.profile import Profile
from repro.core.ratings import RatingsStore
from repro.core.recommender import Recommendation, Recommender, ranked_pairs
from repro.core.similarity import (
    SimilarityConfig,
    cosine_similarity_cached,
    vector_norm,
)

__all__ = ["AgentHybridRecommender"]

ProfileProvider = Callable[[str], Optional[Profile]]


class AgentHybridRecommender(Recommender):
    """The paper's agent-based similarity recommender."""

    name = "agent-hybrid"

    def __init__(
        self,
        ratings: RatingsStore,
        catalog: ItemCatalogView,
        profile_of: ProfileProvider,
        neighbor_index: ProfileNeighborIndex,
        similarity_config: Optional[SimilarityConfig] = None,
        collaborative_weight: float = 0.6,
        content_weight: float = 0.4,
    ) -> None:
        if collaborative_weight < 0 or content_weight < 0:
            raise RecommendationError("mixing weights cannot be negative")
        if collaborative_weight + content_weight <= 0:
            raise RecommendationError("at least one mixing weight must be positive")
        self.ratings = ratings
        self.catalog = catalog
        self.profile_of = profile_of
        self.similarity_config = similarity_config or SimilarityConfig()
        self.collaborative_weight = collaborative_weight
        self.content_weight = content_weight
        self.neighbor_index = neighbor_index
        self._content = InformationFilteringRecommender(catalog, profile_of)

    # -- similar users ----------------------------------------------------------

    def similar_users(
        self, user_id: str, category: Optional[str] = None
    ) -> List[Tuple[str, float]]:
        """The similar-consumer list the mechanism bases recommendations on,
        from the :class:`ProfileNeighborIndex` (score-identical to the
        brute-force scan, just faster)."""
        target = self.profile_of(user_id)
        if target is None or target.is_empty():
            return []
        return self.neighbor_index.find_similar(
            target, category=category, config=self.similarity_config
        )

    # -- scoring helpers ---------------------------------------------------------

    def _neighbour_item_scores(
        self,
        user_id: str,
        neighbours: Sequence[Tuple[str, float]],
        category: Optional[str],
        excluded: set,
    ) -> Dict[str, float]:
        """Similarity-weighted preference of the neighbourhood for each item."""
        seen = set(self.ratings.items_of(user_id))
        scores: Dict[str, float] = {}
        weights: Dict[str, float] = {}
        for neighbour, similarity in neighbours:
            for item_id, value in self.ratings.user_vector(neighbour).items():
                if item_id in seen or item_id in excluded:
                    continue
                if category is not None and item_id in self.catalog:
                    if self.catalog.get(item_id).category != category:
                        continue
                scores[item_id] = scores.get(item_id, 0.0) + similarity * value
                weights[item_id] = weights.get(item_id, 0.0) + similarity
        return {
            item_id: scores[item_id] / weights[item_id]
            for item_id in scores
            if weights[item_id] > 0
        }

    def _normalized(self, raw: Dict[str, float]) -> Dict[str, float]:
        if not raw:
            return {}
        peak = max(raw.values())
        if peak <= 0:
            return {item_id: 0.0 for item_id in raw}
        return {item_id: value / peak for item_id, value in raw.items()}

    # -- Recommender interface -----------------------------------------------------

    def can_recommend(self, user_id: str) -> bool:
        """Whether ``user_id``'s profile carries any signal: the
        :class:`~repro.core.recommender.RecommendationEngine` asks before it
        calls :meth:`recommend`, and fills from its fallback otherwise."""
        profile = self.profile_of(user_id)
        return profile is not None and not profile.is_empty()

    def recommend(
        self,
        user_id: str,
        k: int = 10,
        category: Optional[str] = None,
        exclude: Iterable[str] = (),
    ) -> List[Recommendation]:
        profile = self.profile_of(user_id)
        if profile is None or profile.is_empty():
            return []
        neighbours = self.similar_users(user_id, category=category)
        return self._recommend(profile, neighbours, k, category, set(exclude))

    def _recommend(
        self,
        profile: Profile,
        neighbours: Sequence[Tuple[str, float]],
        k: int,
        category: Optional[str],
        excluded: set,
    ) -> List[Recommendation]:
        """Body of :meth:`recommend` for a consumer's non-empty ``profile``
        whose ``category`` neighbour list the caller already holds."""
        neighbour_scores = self._normalized(
            self._neighbour_item_scores(profile.user_id, neighbours, category, excluded)
        )
        content_scores = self._normalized(
            dict(self._content.top_scores(profile, max(k * 3, 30), category, excluded))
        )

        total_weight = self.collaborative_weight + self.content_weight
        blended: List[Tuple[str, float]] = []
        for item_id in set(neighbour_scores) | set(content_scores):
            score = (
                self.collaborative_weight * neighbour_scores.get(item_id, 0.0)
                + self.content_weight * content_scores.get(item_id, 0.0)
            ) / total_weight
            if score > 0:
                blended.append((item_id, score))
        return [
            Recommendation(
                item_id=item_id,
                score=score,
                source=self.name,
                reason=(
                    "preferred by similar consumers"
                    if item_id in neighbour_scores
                    else "matches your profile"
                ),
            )
            for item_id, score in ranked_pairs(blended, k)
        ]

    # -- query-time re-ranking (Figure 4.2 step "generate recommendation") ----------

    def recommend_for_query(
        self,
        user_id: str,
        query_items: Sequence[Item],
        k: int = 10,
        extra: int = 5,
    ) -> List[Recommendation]:
        """Rank live query results and append similar-consumer discoveries.

        Args:
            user_id: the querying consumer.
            query_items: merchandise returned by the marketplaces for the
                current query (the MBA's findings in Figure 4.2).
            k: how many ranked query results to return.
            extra: how many additional similar-consumer favourites to append
                beyond the query results (serendipitous discoveries).
        """
        profile = self.profile_of(user_id)
        query_categories = {item.category for item in query_items}
        category = (
            next(iter(query_categories)) if len(query_categories) == 1 else None
        )
        # ONE neighbour lookup serves the whole batch of query items (through
        # the index when wired in), and the per-(neighbour, category) term
        # vectors below are extracted and normed once rather than once per
        # item — the work shared across query items.  Scores are bit-identical
        # to evaluating each item on its own against the same neighbour list.
        neighbours = self.similar_users(user_id, category=category)
        neighbour_terms: Dict[Tuple[str, str], Tuple[Mapping[str, float], float]] = {}
        for neighbour_id, _ in neighbours:
            neighbour_profile = self.profile_of(neighbour_id)
            if neighbour_profile is None:
                continue
            for item_category in query_categories:
                known = neighbour_profile.categories.get(item_category)
                if known is not None:
                    terms = known.terms.weights()
                    neighbour_terms[neighbour_id, item_category] = (terms, vector_norm(terms))

        own_score = self._content.scorer_for(profile) if profile else None
        scored: List[Tuple[str, float]] = []
        for item in query_items:
            item_weights, item_norm = item.normed_terms()
            own_match = own_score(item, item_weights, item_norm) if own_score else 0.0
            neighbour_match = 0.0
            weight_total = 0.0
            for neighbour_id, similarity in neighbours:
                cached = neighbour_terms.get((neighbour_id, item.category))
                if cached is None:
                    continue
                match = cosine_similarity_cached(
                    cached[0], cached[1], item_weights, item_norm
                )
                neighbour_match += similarity * match
                weight_total += similarity
            if weight_total > 0:
                neighbour_match /= weight_total
            score = (
                self.content_weight * own_match
                + self.collaborative_weight * neighbour_match
            ) / (self.content_weight + self.collaborative_weight)
            scored.append((item.item_id, score))
        ranked = [
            Recommendation(
                item_id=item_id, score=score, source=self.name, reason="ranked query result"
            )
            for item_id, score in ranked_pairs(scored, k)
        ]

        # The discoveries are ``recommend(user_id, extra, category, already)``
        # served from the neighbour list above: same target profile, same
        # category, and nothing is written between the two steps.
        if extra > 0 and profile is not None and not profile.is_empty():
            already = {rec.item_id for rec in ranked} | {item.item_id for item in query_items}
            ranked.extend(self._recommend(profile, neighbours, extra, category, already))
        return ranked
