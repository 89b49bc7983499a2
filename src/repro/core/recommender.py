"""Recommender interface, recommendation records and the engine facade.

Every recommendation strategy in the library — the paper's agent/similarity
mechanism and the baselines it is compared with — implements the same small
:class:`Recommender` interface, so the benchmark harness and the buyer
recommendation agent (BRA) can swap engines freely.

The :class:`RecommendationEngine` is the facade the BRA actually calls: it
wraps the paper's hybrid recommender, filters out merchandise the consumer
already bought, fills a short list from a fallback recommender and annotates
each result with which engine produced it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import RecommendationError
from repro.core.items import Item, ItemCatalogView
from repro.core.ratings import InteractionKind, RatingsStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.hybrid import AgentHybridRecommender

__all__ = ["Recommendation", "Recommender", "RecommendationEngine"]


@dataclass(frozen=True)
class Recommendation:
    """One recommended merchandise item."""

    item_id: str
    score: float
    source: str
    reason: str = ""

    def __post_init__(self) -> None:
        if not self.item_id:
            raise RecommendationError("recommendation must reference an item")


class Recommender(abc.ABC):
    """Interface implemented by every recommendation strategy.

    ``recommend`` is the only serving entry point: batch serving
    (:meth:`RecommendationEngine.recommend_many`) calls it once per consumer,
    so a strategy keeps no per-batch state.  Derived state it reuses across
    calls (the hybrid recommender's neighbor index, the collaborative
    recommender's user-vector cache) is stamp-cached lazily.
    """

    #: Short machine-readable name used in benchmark tables and reasons.
    name: str = "recommender"

    @abc.abstractmethod
    def recommend(
        self,
        user_id: str,
        k: int = 10,
        category: Optional[str] = None,
        exclude: Iterable[str] = (),
    ) -> List[Recommendation]:
        """Produce up to ``k`` recommendations for ``user_id``.

        Args:
            user_id: the consumer asking for recommendations.
            category: optional merchandise category to focus on (the category
                of the consumer's current query in the Figure 4.2 workflow).
            exclude: item ids that must not be recommended (e.g. the items in
                the current query results, or items already bought).
        """


def ranked_pairs(pairs: List[Tuple[str, float]], k: int) -> List[Tuple[str, float]]:
    """The ``k`` best ``(item_id, score)`` pairs (sorts ``pairs`` in place):
    score descending, then item id — a total order over distinct ids."""
    pairs.sort(key=lambda pair: (-pair[1], pair[0]))
    return pairs[:k]


def _sorted_and_trimmed(
    recommendations: List[Recommendation], k: int
) -> List[Recommendation]:
    """Deterministic ordering: score descending, then item id."""
    ranked = sorted(recommendations, key=lambda rec: (-rec.score, rec.item_id))
    return ranked[:k]


class RecommendationEngine:
    """Facade used by the buyer recommendation agent.

    Combines the hybrid recommender (asked only when
    :meth:`~repro.core.hybrid.AgentHybridRecommender.can_recommend` finds a
    signal) with a fallback that fills what it leaves short, removes
    merchandise the consumer has already purchased and guarantees the output
    is deterministic, deduplicated and at most ``k`` items long.
    """

    def __init__(
        self,
        primary: "AgentHybridRecommender",
        ratings: Optional[RatingsStore] = None,
        fallback: Optional[Recommender] = None,
        exclude_purchased: bool = True,
    ) -> None:
        self.primary = primary
        self.fallback = fallback
        self.ratings = ratings
        self.exclude_purchased = exclude_purchased

    def recommend(
        self,
        user_id: str,
        k: int = 10,
        category: Optional[str] = None,
        exclude: Iterable[str] = (),
    ) -> List[Recommendation]:
        """Produce the final recommendation list for ``user_id``."""
        if k <= 0:
            raise RecommendationError("k must be positive")
        excluded: Set[str] = set(exclude)
        if self.exclude_purchased and self.ratings is not None:
            for interaction in self.ratings.interactions_of(user_id):
                if interaction.kind is InteractionKind.BUY:
                    excluded.add(interaction.item_id)

        recommendations: List[Recommendation] = []
        if self.primary.can_recommend(user_id):
            recommendations = self.primary.recommend(
                user_id, k=k, category=category, exclude=excluded
            )

        if len(recommendations) < k and self.fallback is not None:
            already = {rec.item_id for rec in recommendations} | excluded
            extra = self.fallback.recommend(
                user_id, k=k - len(recommendations), category=category, exclude=already
            )
            recommendations.extend(extra)

        deduplicated: Dict[str, Recommendation] = {}
        for rec in recommendations:
            if rec.item_id in excluded:
                continue
            if rec.item_id not in deduplicated or rec.score > deduplicated[rec.item_id].score:
                deduplicated[rec.item_id] = rec
        return _sorted_and_trimmed(list(deduplicated.values()), k)

    def recommend_many(
        self,
        user_ids: Iterable[str],
        k: int = 10,
        category: Optional[str] = None,
        exclude: Iterable[str] = (),
    ) -> Dict[str, List[Recommendation]]:
        """Recommendation lists for a batch of consumers at once.

        Output is guaranteed identical to calling :meth:`recommend` per user
        (including cold-start fallbacks): each user is served from the same
        code path as the single-user API.  Shared work is amortised by the
        strategies' stamp-cached derived state (warmed by the first user and
        reused for the rest).  Duplicate user ids collapse to one entry.
        """
        if k <= 0:
            raise RecommendationError("k must be positive")
        ids = list(dict.fromkeys(user_ids))
        excluded = tuple(exclude)
        return {
            user_id: self.recommend(user_id, k=k, category=category, exclude=excluded)
            for user_id in ids
        }
