"""User-user collaborative filtering (the CF technique of §2.3).

"These systems build a database of user opinions of available items.  They
use the database to find users whose opinions are similar (i.e., those that
are highly correlated) and make predictions of user opinion on an item by
combining the opinions of other likeminded individuals."

The implementation is the classic user-kNN recommender over the observational
ratings store: neighbours are ranked by Pearson correlation (or cosine) of
their item-value vectors, and an unseen item's predicted value is the
similarity-weighted average of the neighbours' values for it.  It exhibits
the sparsity and cold-start limitations the paper discusses, which the
benchmark harness measures explicitly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import RecommendationError
from repro.core.items import ItemCatalogView
from repro.core.ratings import RatingsStore
from repro.core.recommender import Recommendation, Recommender
from repro.core.similarity import cosine_similarity, pearson_correlation

__all__ = ["CollaborativeFilteringRecommender"]


class CollaborativeFilteringRecommender(Recommender):
    """User-kNN collaborative filtering over the ratings store."""

    name = "collaborative-filtering"

    def __init__(
        self,
        ratings: RatingsStore,
        catalog: Optional[ItemCatalogView] = None,
        neighbours: int = 20,
        similarity: str = "pearson",
        min_overlap: int = 1,
    ) -> None:
        if neighbours <= 0:
            raise RecommendationError("neighbour count must be positive")
        if similarity not in ("pearson", "cosine"):
            raise RecommendationError(
                f"unknown similarity {similarity!r}; expected 'pearson' or 'cosine'"
            )
        if min_overlap < 1:
            raise RecommendationError("min_overlap must be at least 1")
        self.ratings = ratings
        self.catalog = catalog
        self.neighbours = neighbours
        self.similarity = similarity
        self.min_overlap = min_overlap
        # Both caches are stamped with ratings.revision: any interaction
        # added or removed bumps the stamp, so stale entries are never served.
        self._vector_cache: Optional[Tuple[int, Dict[str, Dict[str, float]]]] = None
        self._neighbourhood_cache: Dict[str, Tuple[int, List[Tuple[str, float]]]] = {}

    # -- neighbourhood ---------------------------------------------------------

    def _user_similarity(self, left: Dict[str, float], right: Dict[str, float]) -> float:
        if self.similarity == "pearson":
            return pearson_correlation(left, right)
        return cosine_similarity(left, right)

    def _vectors(self) -> Dict[str, Dict[str, float]]:
        """All user vectors, copied out of the store once per ratings state."""
        stamp = self.ratings.revision
        if self._vector_cache is None or self._vector_cache[0] != stamp:
            self._vector_cache = (
                stamp,
                {user: self.ratings.user_vector(user) for user in self.ratings.users},
            )
        return self._vector_cache[1]

    def neighbourhood(self, user_id: str) -> List[Tuple[str, float]]:
        """The ``neighbours`` most similar users with positive similarity."""
        stamp = self.ratings.revision
        cached = self._neighbourhood_cache.get(user_id)
        if cached is not None and cached[0] == stamp:
            return list(cached[1])
        vectors = self._vectors()
        target_vector = vectors.get(user_id) or self.ratings.user_vector(user_id)
        if not target_vector:
            self._neighbourhood_cache[user_id] = (stamp, [])
            return []
        scored: List[Tuple[str, float]] = []
        for other, other_vector in vectors.items():
            if other == user_id:
                continue
            overlap = sum(1 for item in target_vector if item in other_vector)
            if overlap < self.min_overlap:
                continue
            score = self._user_similarity(target_vector, other_vector)
            if score > 0:
                scored.append((other, score))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        result = scored[: self.neighbours]
        self._neighbourhood_cache[user_id] = (stamp, result)
        return list(result)

    def recommend(
        self,
        user_id: str,
        k: int = 10,
        category: Optional[str] = None,
        exclude: Iterable[str] = (),
    ) -> List[Recommendation]:
        excluded = set(exclude)
        seen = set(self.ratings.items_of(user_id))
        neighbourhood = self.neighbourhood(user_id)
        if not neighbourhood:
            return []

        # Candidate items: everything the neighbourhood interacted with.
        scores: Dict[str, float] = {}
        weights: Dict[str, float] = {}
        for neighbour, similarity in neighbourhood:
            for item_id, value in self.ratings.user_vector(neighbour).items():
                if item_id in seen or item_id in excluded:
                    continue
                if category is not None and self.catalog is not None:
                    if item_id in self.catalog and self.catalog.get(item_id).category != category:
                        continue
                scores[item_id] = scores.get(item_id, 0.0) + similarity * value
                weights[item_id] = weights.get(item_id, 0.0) + abs(similarity)

        recommendations = [
            Recommendation(
                item_id=item_id,
                score=scores[item_id] / weights[item_id],
                source=self.name,
                reason=f"liked by {len(neighbourhood)} similar consumers",
            )
            for item_id in scores
            if weights[item_id] > 0
        ]
        recommendations.sort(key=lambda rec: (-rec.score, rec.item_id))
        return recommendations[:k]
