"""Synthetic consumers with latent tastes.

Each consumer carries a hidden (latent) preference distribution over the
merchandise taxonomy: a weight per category, a favourite sub-category within
each liked category, and an affinity for a subset of the descriptive terms.
Consumers are grouped into *taste groups*: members of the same group share the
same category weights (with individual noise), which gives collaborative
filtering real structure to discover.

The latent tastes also define the ground truth for evaluation: an item is
*relevant* to a consumer when it scores above a threshold under the consumer's
latent utility, so precision/recall of a recommender can be measured without
any human-labelled data — this reproduction's substitute for the dataset the
paper never published.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.core.items import Item
from repro.workload.products import TAXONOMY

__all__ = ["SyntheticConsumer", "ConsumerPopulation"]


@dataclass
class SyntheticConsumer:
    """One consumer with a hidden taste vector."""

    user_id: str
    group: int
    category_weights: Dict[str, float]
    term_affinity: Dict[str, float]
    favourite_subcategories: Dict[str, str]
    relevance_threshold: float = 0.45

    # -- latent utility ---------------------------------------------------------

    def utility(self, item: Item) -> float:
        """The consumer's true (hidden) interest in ``item``, in [0, 1]."""
        category_part = self.category_weights.get(item.category, 0.0)
        if category_part <= 0:
            return 0.0
        term_part = 0.0
        total_weight = 0.0
        for term, weight in item.terms:
            term_part += weight * self.term_affinity.get(term, 0.0)
            total_weight += weight
        if total_weight > 0:
            term_part /= total_weight
        subcategory_bonus = (
            0.15 if self.favourite_subcategories.get(item.category) == item.subcategory else 0.0
        )
        return min(1.0, 0.55 * category_part + 0.35 * term_part + subcategory_bonus)

    def finds_relevant(self, item: Item) -> bool:
        """Ground-truth relevance used by the quality metrics."""
        return self.utility(item) >= self.relevance_threshold

    def relevant_items(self, items: Iterable[Item]) -> List[str]:
        return [item.item_id for item in items if self.finds_relevant(item)]

    def top_categories(self, count: int = 2) -> List[str]:
        ranked = sorted(
            self.category_weights.items(), key=lambda pair: (-pair[1], pair[0])
        )
        return [category for category, _ in ranked[:count]]

    def preferred_keyword(self, rng: random.Random) -> str:
        """A search keyword the consumer would plausibly type."""
        category = self.top_categories(1)[0]
        subcategory = self.favourite_subcategories.get(category)
        pool = TAXONOMY.get(category, {}).get(subcategory or "", [])
        liked = [term for term in pool if self.term_affinity.get(term, 0.0) > 0.3]
        if liked:
            return rng.choice(liked)
        if pool:
            return rng.choice(pool)
        return category


class ConsumerPopulation:
    """A deterministic population of synthetic consumers in taste groups."""

    def __init__(
        self,
        size: int,
        groups: int = 4,
        seed: int = 0,
        taxonomy: Optional[Dict[str, Dict[str, List[str]]]] = None,
    ) -> None:
        if size <= 0:
            raise WorkloadError("population size must be positive")
        if groups <= 0:
            raise WorkloadError("there must be at least one taste group")
        self.size = size
        self.groups = min(groups, size)
        self.taxonomy = taxonomy if taxonomy is not None else TAXONOMY
        self._rng = random.Random(seed)
        self._consumers: List[SyntheticConsumer] = []
        self._group_prototypes = self._build_group_prototypes()
        for index in range(size):
            self._consumers.append(self._build_consumer(index))

    # -- construction ---------------------------------------------------------------

    def _build_group_prototypes(self) -> List[Dict[str, float]]:
        """Each group concentrates its interest on a small set of categories.

        The focus sets rotate over the taxonomy so no two groups share the
        same focus, which gives collaborative filtering and the similarity
        algorithm real structure to recover (the module docstring's substitute).
        """
        categories = sorted(self.taxonomy)
        count = len(categories)
        focus_size = 2 if count < 6 else 3
        prototypes = []
        for group in range(self.groups):
            rng = self._rng
            start = (group * focus_size) % count
            focus = {categories[(start + offset) % count] for offset in range(focus_size)}
            weights = {}
            for category in categories:
                if category in focus:
                    weights[category] = rng.uniform(0.65, 1.0)
                else:
                    weights[category] = rng.uniform(0.0, 0.15)
            prototypes.append(weights)
        return prototypes

    def _build_consumer(self, index: int) -> SyntheticConsumer:
        rng = self._rng
        group = index % self.groups
        prototype = self._group_prototypes[group]

        category_weights = {
            category: max(0.0, min(1.0, weight + rng.uniform(-0.08, 0.08)))
            for category, weight in prototype.items()
        }

        favourite_subcategories = {}
        term_affinity: Dict[str, float] = {}
        for category, weight in category_weights.items():
            subcategories = sorted(self.taxonomy[category])
            favourite = rng.choice(subcategories)
            favourite_subcategories[category] = favourite
            for subcategory in subcategories:
                pool = self.taxonomy[category][subcategory]
                for term in pool:
                    base = 0.6 if subcategory == favourite else 0.2
                    affinity = weight * base * rng.uniform(0.5, 1.0)
                    if affinity > 0.05:
                        term_affinity[term] = round(affinity, 3)

        return SyntheticConsumer(
            user_id=f"consumer-{index + 1:04d}",
            group=group,
            category_weights=category_weights,
            term_affinity=term_affinity,
            favourite_subcategories=favourite_subcategories,
        )

    # -- access --------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._consumers)

    def __iter__(self):
        return iter(self._consumers)

    def consumers(self) -> List[SyntheticConsumer]:
        return list(self._consumers)

    def consumer(self, user_id: str) -> SyntheticConsumer:
        for consumer in self._consumers:
            if consumer.user_id == user_id:
                return consumer
        raise WorkloadError(f"unknown synthetic consumer {user_id!r}")

    def by_group(self, group: int) -> List[SyntheticConsumer]:
        return [consumer for consumer in self._consumers if consumer.group == group]

    def rng(self) -> random.Random:
        """The population's RNG (shared so scenario replays stay deterministic)."""
        return self._rng
