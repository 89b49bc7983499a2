"""Tied-sale / cross-sell recommendations (§2.3 "Cross-sell", §5.2 item 2).

"A site might recommend additional products in the checkout process, based on
those products already in the shopping cart."  The recommender mines item
co-purchase counts from the ratings store and, given the consumer's purchase
history (or an explicit basket), suggests the items most often bought together
with them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.items import ItemCatalogView
from repro.core.ratings import InteractionKind, RatingsStore
from repro.core.recommender import Recommendation, Recommender

__all__ = ["CrossSellRecommender"]


class CrossSellRecommender(Recommender):
    """Recommend items frequently co-purchased with what the consumer bought."""

    name = "cross-sell"

    def __init__(
        self,
        ratings: RatingsStore,
        catalog: Optional[ItemCatalogView] = None,
        min_support: int = 1,
    ) -> None:
        self.ratings = ratings
        self.catalog = catalog
        self.min_support = max(1, int(min_support))

    def _basket_of(self, user_id: str) -> Set[str]:
        return {
            interaction.item_id
            for interaction in self.ratings.interactions_of(user_id)
            if interaction.kind is InteractionKind.BUY
        }

    def _eligible(self, item_id: str, category: Optional[str]) -> bool:
        if category is None or self.catalog is None:
            return True
        return item_id in self.catalog and self.catalog.get(item_id).category == category

    def recommend_for_basket(
        self,
        basket: Sequence[str],
        k: int = 10,
        category: Optional[str] = None,
        exclude: Iterable[str] = (),
    ) -> List[Recommendation]:
        """Checkout-time recommendations for an explicit basket of item ids."""
        excluded = set(exclude) | set(basket)
        co_counts = self.ratings.co_purchases()
        scores: Dict[str, int] = {}
        for (first, second), count in co_counts.items():
            if count < self.min_support:
                continue
            if first in basket and second not in excluded:
                scores[second] = scores.get(second, 0) + count
            if second in basket and first not in excluded:
                scores[first] = scores.get(first, 0) + count

        recommendations = [
            Recommendation(
                item_id=item_id,
                score=float(count),
                source=self.name,
                reason=f"bought together with items in your basket {count} times",
            )
            for item_id, count in scores.items()
            if self._eligible(item_id, category)
        ]
        recommendations.sort(key=lambda rec: (-rec.score, rec.item_id))
        return recommendations[:k]

    def recommend(
        self,
        user_id: str,
        k: int = 10,
        category: Optional[str] = None,
        exclude: Iterable[str] = (),
    ) -> List[Recommendation]:
        basket = sorted(self._basket_of(user_id))
        if not basket:
            return []
        return self.recommend_for_basket(basket, k=k, category=category, exclude=exclude)
