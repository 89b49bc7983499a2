"""Shared machinery for the experiments.

Everything here is deterministic given the seeds, so every experiment (and the
tables ``python -m repro.experiments`` prints) can be regenerated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core import metrics as quality_metrics
from repro.core.collaborative import CollaborativeFilteringRecommender
from repro.core.hybrid import AgentHybridRecommender
from repro.core.information_filtering import InformationFilteringRecommender
from repro.core.items import ItemCatalogView
from repro.core.neighbors import ProfileNeighborIndex
from repro.core.popularity import PopularityRecommender
from repro.core.profile import Profile
from repro.core.ratings import RatingsStore
from repro.core.recommender import Recommender
from repro.core.similarity import SimilarityConfig
from repro.workload.consumers import ConsumerPopulation
from repro.workload.generator import InteractionDataset, InteractionGenerator
from repro.workload.products import ProductGenerator

__all__ = [
    "ExperimentResult",
    "build_standard_dataset",
    "build_standard_recommenders",
    "evaluate_recommenders",
]


@dataclass
class ExperimentResult:
    """Rows produced by one experiment plus free-form notes."""

    name: str
    description: str = ""
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: object) -> Dict[str, object]:
        row = dict(values)
        self.rows.append(row)
        return row

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[object]:
        """All values of one column, in row order."""
        return [row.get(name) for row in self.rows]


def build_standard_dataset(
    num_consumers: int = 60,
    num_items: int = 150,
    events_per_user: int = 40,
    groups: int = 4,
    exploration: float = 0.15,
    seed: int = 11,
) -> InteractionDataset:
    """The standard offline dataset used by the quality experiments."""
    products = ProductGenerator(seed=seed)
    catalog = ItemCatalogView(products.generate(num_items, seller="standard"))
    population = ConsumerPopulation(num_consumers, groups=groups, seed=seed + 1)
    generator = InteractionGenerator(seed=seed + 2)
    return generator.generate(
        population,
        catalog,
        events_per_user=events_per_user,
        exploration=exploration,
    )


def build_standard_recommenders(
    dataset: InteractionDataset,
    similarity_config: Optional[SimilarityConfig] = None,
) -> Dict[str, Recommender]:
    """The engine line-up compared throughout the quality experiments."""
    profiles = dataset.build_profiles()
    ratings = dataset.build_ratings()
    catalog = dataset.catalog

    def profile_of(user_id: str) -> Optional[Profile]:
        return profiles.get(user_id)

    similarity_config = similarity_config or SimilarityConfig()
    return {
        "popularity": PopularityRecommender(ratings, catalog),
        "information-filtering": InformationFilteringRecommender(catalog, profile_of),
        "collaborative-filtering": CollaborativeFilteringRecommender(ratings, catalog),
        "agent-hybrid": AgentHybridRecommender(
            ratings=ratings,
            catalog=catalog,
            profile_of=profile_of,
            neighbor_index=ProfileNeighborIndex(provider=profiles.values, config=similarity_config),
            similarity_config=similarity_config,
        ),
    }


def evaluate_recommenders(
    dataset: InteractionDataset,
    recommenders: Dict[str, Recommender],
    k: int = 10,
    users: Optional[Sequence[str]] = None,
    category_for_user: Optional[Callable[[str], Optional[str]]] = None,
) -> List[Dict[str, object]]:
    """Average quality metrics of each recommender over the test users.

    Returns one row per recommender with precision/recall/F1/NDCG/hit-rate at
    ``k`` plus catalogue coverage, the layout ``python -m repro.experiments``
    prints for experiment CAP-4.  ``category_for_user`` optionally supplies the
    merchandise category each user is assumed to be shopping in (the Figure
    4.2 situation); it is what makes the Figure 4.5 discard rule take part in
    the evaluation.
    """
    selected = list(users) if users is not None else dataset.users
    rows: List[Dict[str, object]] = []
    for name, recommender in sorted(recommenders.items()):
        precisions: List[float] = []
        recalls: List[float] = []
        f1s: List[float] = []
        ndcgs: List[float] = []
        hits: List[float] = []
        all_lists: List[List[str]] = []
        evaluated = 0
        for user_id in selected:
            relevant = dataset.relevant_items(user_id)
            if not relevant:
                continue
            category = category_for_user(user_id) if category_for_user else None
            recommended = [
                rec.item_id for rec in recommender.recommend(user_id, k=k, category=category)
            ]
            all_lists.append(recommended)
            precisions.append(quality_metrics.precision_at_k(recommended, relevant, k))
            recalls.append(quality_metrics.recall_at_k(recommended, relevant, k))
            f1s.append(quality_metrics.f1_at_k(recommended, relevant, k))
            ndcgs.append(quality_metrics.ndcg_at_k(recommended, relevant, k))
            hits.append(quality_metrics.hit_rate_at_k(recommended, relevant, k))
            evaluated += 1

        def _mean(values: List[float]) -> float:
            return sum(values) / len(values) if values else 0.0

        rows.append(
            {
                "recommender": name,
                "users": evaluated,
                f"precision@{k}": _mean(precisions),
                f"recall@{k}": _mean(recalls),
                f"f1@{k}": _mean(f1s),
                f"ndcg@{k}": _mean(ndcgs),
                f"hit-rate@{k}": _mean(hits),
                "coverage": quality_metrics.catalog_coverage(all_lists, len(dataset.catalog)),
            }
        )
    return rows
