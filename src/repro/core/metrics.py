"""Recommendation-quality metrics used by the evaluation harness.

The paper claims its mechanism "can generate recommendation information to
consumers from the applied similarity algorithms" but reports no numbers, so
the benchmark harness quantifies recommendation quality with the standard
metrics of the recommender-systems literature the paper cites (Schafer et al.,
Good et al.): precision/recall/F1 at k, hit rate, NDCG, catalogue coverage and
rank correlation against the consumers' true latent preferences.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

__all__ = [
    "precision_at_k",
    "recall_at_k",
    "f1_at_k",
    "hit_rate_at_k",
    "ndcg_at_k",
    "catalog_coverage",
    "spearman_rank_correlation",
]


def _top_k(recommended: Sequence[str], k: int) -> List[str]:
    if k <= 0:
        raise ValueError("k must be positive")
    return list(recommended[:k])


def precision_at_k(recommended: Sequence[str], relevant: Iterable[str], k: int) -> float:
    """Fraction of the top-k recommendations that are relevant."""
    top = _top_k(recommended, k)
    if not top:
        return 0.0
    relevant_set = set(relevant)
    hits = sum(1 for item in top if item in relevant_set)
    return hits / float(len(top))


def recall_at_k(recommended: Sequence[str], relevant: Iterable[str], k: int) -> float:
    """Fraction of the relevant items that appear in the top-k recommendations."""
    relevant_set = set(relevant)
    if not relevant_set:
        return 0.0
    top = _top_k(recommended, k)
    hits = sum(1 for item in top if item in relevant_set)
    return hits / float(len(relevant_set))


def f1_at_k(recommended: Sequence[str], relevant: Iterable[str], k: int) -> float:
    """Harmonic mean of precision@k and recall@k."""
    relevant_set = set(relevant)
    precision = precision_at_k(recommended, relevant_set, k)
    recall = recall_at_k(recommended, relevant_set, k)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def hit_rate_at_k(recommended: Sequence[str], relevant: Iterable[str], k: int) -> float:
    """1.0 when at least one relevant item appears in the top-k, else 0.0."""
    relevant_set = set(relevant)
    return 1.0 if any(item in relevant_set for item in _top_k(recommended, k)) else 0.0


def ndcg_at_k(recommended: Sequence[str], relevant: Iterable[str], k: int) -> float:
    """Normalised discounted cumulative gain with binary relevance."""
    relevant_set = set(relevant)
    if not relevant_set:
        return 0.0
    top = _top_k(recommended, k)
    dcg = sum(
        1.0 / math.log2(index + 1)
        for index, item in enumerate(top, start=1)
        if item in relevant_set
    )
    ideal_hits = min(len(relevant_set), k)
    ideal = sum(1.0 / math.log2(index + 1) for index in range(1, ideal_hits + 1))
    if ideal == 0.0:
        return 0.0
    return dcg / ideal


def catalog_coverage(
    recommendation_lists: Iterable[Sequence[str]], catalog_size: int
) -> float:
    """Fraction of the catalogue that appears in at least one recommendation list."""
    if catalog_size <= 0:
        raise ValueError("catalog size must be positive")
    covered: Set[str] = set()
    for recommendations in recommendation_lists:
        covered.update(recommendations)
    return min(1.0, len(covered) / float(catalog_size))


def _ranks(values: Sequence[float]) -> List[float]:
    """Fractional ranks (average rank for ties), 1-based."""
    order = sorted(range(len(values)), key=lambda index: values[index])
    ranks = [0.0] * len(values)
    position = 0
    while position < len(order):
        tail = position
        while (
            tail + 1 < len(order)
            and values[order[tail + 1]] == values[order[position]]
        ):
            tail += 1
        average_rank = (position + tail) / 2.0 + 1.0
        for index in range(position, tail + 1):
            ranks[order[index]] = average_rank
        position = tail + 1
    return ranks


def spearman_rank_correlation(
    left: Mapping[str, float], right: Mapping[str, float]
) -> float:
    """Spearman correlation over the shared keys; 0 with fewer than 2 shared keys."""
    common = sorted(key for key in left if key in right)
    if len(common) < 2:
        return 0.0
    left_ranks = _ranks([left[key] for key in common])
    right_ranks = _ranks([right[key] for key in common])
    mean_left = sum(left_ranks) / len(left_ranks)
    mean_right = sum(right_ranks) / len(right_ranks)
    numerator = sum(
        (a - mean_left) * (b - mean_right) for a, b in zip(left_ranks, right_ranks)
    )
    var_left = sum((a - mean_left) ** 2 for a in left_ranks)
    var_right = sum((b - mean_right) ** 2 for b in right_ranks)
    if var_left == 0.0 or var_right == 0.0:
        return 0.0
    return numerator / math.sqrt(var_left * var_right)
