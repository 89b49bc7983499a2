"""Recommendation core: the paper's primary contribution.

The consumer recommendation mechanism of the paper is, algorithmically, three
pieces working together:

1. A **hierarchical consumer profile** (Figure 4.4) —
   ``Profile = <Category, Terms_of_Category, <Sub_Category, Terms_of_Sub_Category>>``
   with weighted terms — implemented in :mod:`repro.core.profile`.
2. A **profile learning rule** (Figure 4.5, top formula): a Rocchio-style
   update ``W_ci_new = W_ci + α · Σ_j (w_ji · quality_of_feedback_j)`` applied
   every time the consumer queries, buys, negotiates or bids — implemented in
   :mod:`repro.core.profile_learning`.
3. A **similarity algorithm** (Figure 4.5): find consumers whose profiles are
   most similar, discard candidates whose preference for the item category
   differs too much, and merge their preferred merchandise with the live query
   results — implemented in :mod:`repro.core.similarity` and
   :mod:`repro.core.hybrid`.

Alongside the paper's mechanism the package implements the baselines the
related-work section discusses (pure collaborative filtering, pure information
filtering, popularity), the future-work extensions (weekly hottest, tied-sale
cross-selling) and the evaluation metrics used by the benchmark harness.

**Scaling architecture.**  The similarity search is the mechanism's hot path,
so it exists in two score-identical forms: the brute-force reference scan
(:func:`repro.core.similarity.find_similar_users`) and the indexed path
(:mod:`repro.core.neighbors`), which keeps per-profile norms and flattened
term vectors, scores every indexed consumer in one kernel block
(:mod:`repro.core.scoring`), applies the discard rule to the few rows that
can reach the top-k, and is invalidated incrementally by
:class:`~repro.core.profile_learning.ProfileLearner` update hooks.  Batch
serving rides on top: :meth:`RecommendationEngine.recommend_many` serves every
consumer through the unchanged single-user path, so batch output always
equals per-user output; shared state (the neighbor index, the collaborative
filtering user-vector cache) is stamp-cached, warmed once by the first
consumer and reused across the batch.  The community is partitioned only
across servers: :mod:`repro.core.shard_map` places each consumer on one
buyer agent server's shard and :func:`~repro.core.shard_map.merge_topk`
folds the per-server top-k lists into the exact global ranking.
"""

from repro.core.items import Item, ItemCatalogView
from repro.core.ratings import Interaction, InteractionKind, RatingsStore
from repro.core.profile import Profile, Category, SubCategory, TermVector
from repro.core.profile_learning import FeedbackEvent, LearningConfig, ProfileLearner
from repro.core.similarity import (
    SimilarityConfig,
    profile_similarity,
    cosine_similarity,
    pearson_correlation,
    find_similar_users,
)
from repro.core.neighbors import ProfileNeighborIndex
from repro.core.shard_map import ShardMap, ShardMigration, merge_topk, split_membership
from repro.core.recommender import Recommendation, Recommender, RecommendationEngine
from repro.core.collaborative import CollaborativeFilteringRecommender
from repro.core.information_filtering import InformationFilteringRecommender
from repro.core.popularity import PopularityRecommender, WeeklyHottestRecommender
from repro.core.cross_sell import CrossSellRecommender
from repro.core.hybrid import AgentHybridRecommender
from repro.core import metrics

__all__ = [
    "Item",
    "ItemCatalogView",
    "Interaction",
    "InteractionKind",
    "RatingsStore",
    "Profile",
    "Category",
    "SubCategory",
    "TermVector",
    "FeedbackEvent",
    "LearningConfig",
    "ProfileLearner",
    "SimilarityConfig",
    "profile_similarity",
    "cosine_similarity",
    "pearson_correlation",
    "find_similar_users",
    "ProfileNeighborIndex",
    "ShardMap",
    "ShardMigration",
    "split_membership",
    "merge_topk",
    "Recommendation",
    "Recommender",
    "RecommendationEngine",
    "CollaborativeFilteringRecommender",
    "InformationFilteringRecommender",
    "PopularityRecommender",
    "WeeklyHottestRecommender",
    "CrossSellRecommender",
    "AgentHybridRecommender",
    "metrics",
]
