"""The similarity algorithm (Figure 4.5 of the paper).

Recommendation generation starts by finding the consumers whose profiles are
most similar to the active consumer's.  The paper's rule has two parts:

1. a similarity value over the two profiles — "the higher similarity value
   means that consumer X is more similar to consumer Y";
2. a **discard rule** — "if Consumer X's preference merchandise item value Tx
   [is] different from other consumer Y's preference merchandise item value
   Ty, the similarity result will be discarded", i.e. candidates whose
   preference for the category at hand differs by more than a tolerance are
   dropped outright, however similar the rest of their profile looks.

The similarity value itself combines the cosine similarity of the two
category-preference vectors with the cosine similarity of the flattened term
vectors; the mix is configurable through :class:`SimilarityConfig` so the
ablation benchmark can study either extreme.

:func:`find_similar_users` is the brute-force reference implementation — it
rescans and re-flattens every stored profile per query.  The production path
is :mod:`repro.core.neighbors`, which serves the same ranked list (score
identical) from precomputed caches with discard-rule pruning up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import SimilarityError
from repro.core.profile import Profile

__all__ = [
    "SimilarityConfig",
    "cosine_similarity",
    "cosine_similarity_cached",
    "vector_norm",
    "pearson_correlation",
    "profile_similarity",
    "find_similar_users",
]


# ---------------------------------------------------------------------------
# Vector similarities
# ---------------------------------------------------------------------------


def cosine_similarity(left: Mapping[str, float], right: Mapping[str, float]) -> float:
    """Cosine similarity between two sparse vectors given as dicts.

    The function is symmetric: ``cosine_similarity(a, b)`` equals
    ``cosine_similarity(b, a)`` exactly.  Internally the smaller dict is
    iterated for the dot product — the ``left``/``right`` swap below — which
    is purely an efficiency choice: the dot product pairs the same terms
    either way and the norm product is commutative, so the swap never changes
    the result (``tests/unit/test_similarity.py`` pins this down).  The
    indexed search in :mod:`repro.core.neighbors` replicates this exact
    evaluation order over cached vectors to stay bit-identical.
    """
    if not left or not right:
        return 0.0
    if len(left) > len(right):
        left, right = right, left
    dot = sum(value * right.get(key, 0.0) for key, value in left.items())
    norm_left = math.sqrt(sum(value * value for value in left.values()))
    norm_right = math.sqrt(sum(value * value for value in right.values()))
    if norm_left == 0.0 or norm_right == 0.0:
        return 0.0
    return dot / (norm_left * norm_right)


def vector_norm(vector: Mapping[str, float]) -> float:
    """Euclidean norm, summed in the same order :func:`cosine_similarity` uses."""
    return math.sqrt(sum(value * value for value in vector.values()))


def cosine_similarity_cached(
    left: Mapping[str, float],
    left_norm: float,
    right: Mapping[str, float],
    right_norm: float,
) -> float:
    """Cosine over vectors with precomputed norms, bit-identical to
    :func:`cosine_similarity`.

    The plain helper iterates the smaller dict for the dot product and divides
    by ``norm(smaller) * norm(larger)``; the same swap and the same operand
    pairing are reproduced here so scores match exactly.  Callers that hold a
    vector across many comparisons (the neighbor index, the query re-ranking
    path) pay for each norm once instead of once per pair.
    """
    if not left or not right:
        return 0.0
    if len(left) > len(right):
        left, left_norm, right, right_norm = right, right_norm, left, left_norm
    if left_norm == 0.0 or right_norm == 0.0:
        return 0.0
    dot = sum(value * right.get(key, 0.0) for key, value in left.items())
    return dot / (left_norm * right_norm)


def pearson_correlation(left: Mapping[str, float], right: Mapping[str, float]) -> float:
    """Pearson correlation over the keys the two vectors share.

    This is the classic user-user collaborative filtering similarity (§2.3:
    "find users whose opinions are similar, i.e. those that are highly
    correlated").  Returns 0 when fewer than two keys overlap or when either
    side has zero variance.
    """
    common = [key for key in left if key in right]
    if len(common) < 2:
        return 0.0
    left_values = [left[key] for key in common]
    right_values = [right[key] for key in common]
    mean_left = sum(left_values) / len(left_values)
    mean_right = sum(right_values) / len(right_values)
    numerator = sum(
        (a - mean_left) * (b - mean_right) for a, b in zip(left_values, right_values)
    )
    var_left = sum((a - mean_left) ** 2 for a in left_values)
    var_right = sum((b - mean_right) ** 2 for b in right_values)
    if var_left == 0.0 or var_right == 0.0:
        return 0.0
    # Take the roots before multiplying: var_left * var_right can underflow
    # to 0.0 for tiny but nonzero variances (weights around 1e-107), which
    # would turn the division into a ZeroDivisionError.  The product of the
    # roots can still underflow for truly degenerate inputs, so guard it.
    denominator = math.sqrt(var_left) * math.sqrt(var_right)
    if denominator == 0.0:
        return 0.0
    return numerator / denominator


# ---------------------------------------------------------------------------
# Profile similarity
# ---------------------------------------------------------------------------


@dataclass
class SimilarityConfig:
    """Knobs of the profile similarity computation.

    Attributes:
        preference_weight: weight of the category-preference cosine term.
        term_weight: weight of the flattened-term cosine term.
        discard_tolerance: maximum allowed |Tx - Ty| for the category at hand
            before the candidate is discarded (the Figure 4.5 discard rule).
        min_similarity: candidates below this similarity are never returned.
        top_k: how many similar users to keep.
    """

    preference_weight: float = 0.6
    term_weight: float = 0.4
    discard_tolerance: float = 3.0
    min_similarity: float = 0.05
    top_k: int = 10

    def validate(self) -> None:
        if self.preference_weight < 0 or self.term_weight < 0:
            raise SimilarityError("similarity weights cannot be negative")
        if self.preference_weight + self.term_weight <= 0:
            raise SimilarityError("at least one similarity weight must be positive")
        if self.discard_tolerance < 0:
            raise SimilarityError("discard tolerance cannot be negative")
        if not 0.0 <= self.min_similarity <= 1.0:
            raise SimilarityError("min similarity must be in [0, 1]")
        if self.top_k <= 0:
            raise SimilarityError("top_k must be positive")


def profile_similarity(
    target: Profile,
    candidate: Profile,
    config: Optional[SimilarityConfig] = None,
) -> float:
    """Similarity in [0, 1] between two consumer profiles.

    The value is the weighted average of (a) the cosine similarity of the two
    category-preference vectors and (b) the cosine similarity of the two
    flattened term vectors.  Profiles with no signal at all yield 0.
    """
    config = config or SimilarityConfig()
    config.validate()

    preference_part = cosine_similarity(
        target.preference_vector(), candidate.preference_vector()
    )
    term_part = cosine_similarity(
        target.flattened_terms().weights(), candidate.flattened_terms().weights()
    )
    total_weight = config.preference_weight + config.term_weight
    score = (
        config.preference_weight * preference_part + config.term_weight * term_part
    ) / total_weight
    # Cosine of non-negative vectors is already in [0, 1]; clamp for safety.
    return max(0.0, min(1.0, score))


def _passes_discard_rule(
    target: Profile, candidate: Profile, category: str, tolerance: float
) -> bool:
    """Figure 4.5 discard rule on the scalar category preference values."""
    target_value = target.preference_vector().get(category, 0.0)
    candidate_value = candidate.preference_vector().get(category, 0.0)
    return abs(target_value - candidate_value) <= tolerance


def find_similar_users(
    target: Profile,
    candidates: Iterable[Profile],
    config: Optional[SimilarityConfig] = None,
    category: Optional[str] = None,
) -> List[Tuple[str, float]]:
    """Rank other consumers by profile similarity to ``target``.

    Args:
        target: the active consumer's profile.
        candidates: profiles of the other consumers in UserDB.
        config: similarity configuration (defaults used when omitted).
        category: when given, the Figure 4.5 discard rule is applied for this
            merchandise category: candidates whose preference value for it
            differs from the target's by more than ``discard_tolerance`` are
            dropped before ranking.

    Returns:
        At most ``config.top_k`` ``(user_id, similarity)`` pairs, sorted by
        decreasing similarity (ties broken by user id for determinism).  The
        target itself is never included.
    """
    config = config or SimilarityConfig()
    config.validate()

    scored: List[Tuple[str, float]] = []
    for candidate in candidates:
        if candidate.user_id == target.user_id:
            continue
        if category is not None and not _passes_discard_rule(
            target, candidate, category, config.discard_tolerance
        ):
            continue
        score = profile_similarity(target, candidate, config)
        if score >= config.min_similarity:
            scored.append((candidate.user_id, score))

    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[: config.top_k]
