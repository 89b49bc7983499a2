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

The formula is written twice and no more: :meth:`score_item`, the per-item
reference the tests compare against, and :meth:`_category_scorer`, the same
score with one category's profile side bound once, which everything that
scores many items goes through (:meth:`scorer_for`, :meth:`top_scores`).  The
content pass :meth:`top_scores` walks **only the categories the profile has**
(or the one asked for) through ``catalog.in_category``.  That is exact: an
item of any other category scores 0.0 and ``score > 0`` drops it, and
``in_category`` membership is ``item.category == name`` by construction.  It
ranks bare ``(item_id, score)`` pairs under a total order, so the order
candidates are met in cannot show; :meth:`recommend` builds a
:class:`Recommendation` for each of the ``k`` it returns and nothing else.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import RecommendationError
from repro.core.items import Item, ItemCatalogView
from repro.core.profile import Profile
from repro.core.recommender import Recommendation, Recommender, ranked_pairs
from repro.core.similarity import (
    cosine_similarity,
    cosine_similarity_cached,
    vector_norm,
)

__all__ = ["InformationFilteringRecommender"]

ProfileProvider = Callable[[str], Optional[Profile]]
#: ``(item, *item.normed_terms())`` -> score.
ItemScorer = Callable[[Item, Mapping[str, float], float], float]


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

    def _category_scorer(self, profile: Profile, name: str) -> ItemScorer:
        """:meth:`score_item` for the items of category ``name``, which the
        profile has, with the profile side bound once: terms and norm, the
        preference share of the boost, every sub-category's terms and norm.
        The association is :meth:`score_item`'s, so scores are ``==``."""
        category = profile.categories[name]
        terms = category.terms.weights()
        norm = vector_norm(terms)
        max_preference = max(c.preference for c in profile.categories.values())
        category_part = 0.0
        if max_preference > 0:
            category_part = self.category_boost * (category.preference / max_preference)
        sub_sides = {}
        for sub_name, sub in category.subcategories.items():
            sub_terms = sub.terms.weights()
            sub_sides[sub_name] = (sub_terms, vector_norm(sub_terms))

        def score(item: Item, item_weights: Mapping[str, float], item_norm: float) -> float:
            matched = cosine_similarity_cached(terms, norm, item_weights, item_norm) + category_part
            side = sub_sides.get(item.subcategory) if item.subcategory else None
            if side is None:
                return matched
            sub_match = cosine_similarity_cached(*side, item_weights, item_norm)
            return matched + self.subcategory_boost * sub_match

        return score

    def scorer_for(self, profile: Profile) -> ItemScorer:
        """:meth:`score_item` for one call that scores many items against
        ``profile``: a category's side is bound on its first item, not once
        per item.  Scores are ``==`` :meth:`score_item`'s; the scorer must not
        outlive the call: nothing invalidates it when the profile learns."""
        sides: Dict[str, ItemScorer] = {}

        def score(item: Item, item_weights: Mapping[str, float], item_norm: float) -> float:
            side = sides.get(item.category)
            if side is None:
                if item.category not in profile.categories:
                    return 0.0
                side = sides[item.category] = self._category_scorer(profile, item.category)
            return side(item, item_weights, item_norm)

        return score

    def top_scores(
        self, profile: Profile, k: int, category: Optional[str], excluded: AbstractSet[str]
    ) -> List[Tuple[str, float]]:
        """The content pass: the ``k`` best ``(item_id, score)`` pairs of
        the catalogue (of ``category`` when given) for ``profile`` — positive
        scores only, ordered by ``(-score, item_id)``, not in ``excluded``.
        Visits only the categories the profile has (exact: module docstring).
        """
        categories = profile.categories
        pairs: List[Tuple[str, float]] = []
        for name in categories if category is None else categories.keys() & {category}:
            score_of = self._category_scorer(profile, name)
            for item in self.catalog.in_category(name):
                if item.item_id in excluded:
                    continue
                score = score_of(item, *item.normed_terms())
                if score > 0:
                    pairs.append((item.item_id, score))
        return ranked_pairs(pairs, k)

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
        return [
            Recommendation(
                item_id=item_id,
                score=score,
                source=self.name,
                reason=f"matches your interest in {self.catalog.get(item_id).category}",
            )
            for item_id, score in self.top_scores(profile, k, category, set(exclude))
        ]
