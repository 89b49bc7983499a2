"""Information filtering (the IF technique of §2.3).

"IF techniques build a profile of user preferences that is particularly
valuable when a user encounters new content that has not been rated before
... they do not depend on having other users in the system."

The recommender scores each catalogue item by how well its descriptive terms
and category match the consumer's learned hierarchical profile: a cosine match
between the item's term vector and the profile's terms for the item's
category, boosted by the scalar category preference.  Because it only needs
the consumer's own profile and the item content, it keeps working for brand
new items (no one has rated them yet) — the property the paper highlights —
but it cannot produce serendipitous cross-category discoveries.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import RecommendationError
from repro.core.items import Item, ItemCatalogView
from repro.core.profile import Profile, TermVector
from repro.core.recommender import Recommendation, Recommender
from repro.core.similarity import (
    cosine_similarity,
    cosine_similarity_cached,
    vector_norm,
)

__all__ = ["InformationFilteringRecommender"]

ProfileProvider = Callable[[str], Optional[Profile]]
#: ``(item, *item.normed_terms())`` -> score.
ItemScorer = Callable[[Item, Mapping[str, float], float], float]
#: A term vector with its norm, as ``cosine_similarity_cached`` takes them.
_NormedTerms = Tuple[Dict[str, float], float]


class InformationFilteringRecommender(Recommender):
    """Content-based recommender matching items against the consumer profile."""

    name = "information-filtering"

    def __init__(
        self,
        catalog: ItemCatalogView,
        profiles: ProfileProvider,
        category_boost: float = 0.3,
        subcategory_boost: float = 0.2,
    ) -> None:
        if category_boost < 0 or subcategory_boost < 0:
            raise RecommendationError("boost factors cannot be negative")
        self.catalog = catalog
        self.profiles = profiles
        self.category_boost = category_boost
        self.subcategory_boost = subcategory_boost

    # -- scoring -----------------------------------------------------------------

    def score_item(self, profile: Profile, item: Item) -> float:
        """Content match score of ``item`` against ``profile`` in [0, ~1.5]."""
        if not profile.has_category(item.category):
            return 0.0
        category = profile.category(item.category, create=False)

        term_match = cosine_similarity(category.terms.as_dict(), item.term_weights)

        max_preference = max(
            (c.preference for c in profile.categories.values()), default=0.0
        )
        category_part = 0.0
        if max_preference > 0:
            category_part = self.category_boost * (category.preference / max_preference)

        subcategory_part = 0.0
        if item.subcategory and item.subcategory in category.subcategories:
            sub = category.subcategories[item.subcategory]
            subcategory_part = self.subcategory_boost * cosine_similarity(
                sub.terms.as_dict(), item.term_weights
            )

        return term_match + category_part + subcategory_part

    def scorer_for(self, profile: Profile) -> ItemScorer:
        """:meth:`score_item` for one call that scores many items against
        ``profile``: the profile side — the maximum preference, and each
        category's and sub-category's term dict and norm — is computed once,
        on first use, instead of once per item.  Scores are ``==``
        :meth:`score_item`'s; the scorer must not outlive the call, since
        nothing invalidates it when the profile learns.
        """
        max_preference = max(
            (c.preference for c in profile.categories.values()), default=0.0
        )
        # (category, sub-category or "") -> that term vector as a dict, normed
        normed: Dict[Tuple[str, str], _NormedTerms] = {}

        def terms_of(category: str, subcategory: str, vector: TermVector) -> _NormedTerms:
            side = normed.get((category, subcategory))
            if side is None:
                weights = vector.as_dict()
                side = normed[category, subcategory] = (weights, vector_norm(weights))
            return side

        def score(item: Item, item_weights: Mapping[str, float], item_norm: float) -> float:
            category = profile.categories.get(item.category)
            if category is None:
                return 0.0

            terms, norm = terms_of(item.category, "", category.terms)
            term_match = cosine_similarity_cached(terms, norm, item_weights, item_norm)

            category_part = 0.0
            if max_preference > 0:
                category_part = self.category_boost * (category.preference / max_preference)

            subcategory_part = 0.0
            if item.subcategory and item.subcategory in category.subcategories:
                terms, norm = terms_of(
                    item.category, item.subcategory, category.subcategories[item.subcategory].terms
                )
                subcategory_part = self.subcategory_boost * cosine_similarity_cached(
                    terms, norm, item_weights, item_norm
                )

            return term_match + category_part + subcategory_part

        return score

    def can_recommend(self, user_id: str) -> bool:
        profile = self.profiles(user_id)
        return profile is not None and not profile.is_empty()

    def recommend(
        self,
        user_id: str,
        k: int = 10,
        category: Optional[str] = None,
        exclude: Iterable[str] = (),
    ) -> List[Recommendation]:
        profile = self.profiles(user_id)
        if profile is None or profile.is_empty():
            return []
        excluded = set(exclude)

        candidates = (
            self.catalog.in_category(category) if category is not None else list(self.catalog)
        )
        score_item = self.scorer_for(profile)
        recommendations: List[Recommendation] = []
        for item in candidates:
            if item.item_id in excluded:
                continue
            score = score_item(item, *item.normed_terms())
            if score > 0:
                recommendations.append(
                    Recommendation(
                        item_id=item.item_id,
                        score=score,
                        source=self.name,
                        reason=f"matches your interest in {item.category}",
                    )
                )
        recommendations.sort(key=lambda rec: (-rec.score, rec.item_id))
        return recommendations[:k]
