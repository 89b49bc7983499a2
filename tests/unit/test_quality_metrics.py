"""Unit tests for the recommendation-quality metrics."""

import pytest

from repro.core.metrics import (
    catalog_coverage,
    f1_at_k,
    hit_rate_at_k,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
    spearman_rank_correlation,
)

RECOMMENDED = ["a", "b", "c", "d", "e"]
RELEVANT = ["a", "c", "x"]


class TestPrecisionRecall:
    def test_precision_counts_hits_in_top_k(self):
        assert precision_at_k(RECOMMENDED, RELEVANT, 5) == pytest.approx(2 / 5)
        assert precision_at_k(RECOMMENDED, RELEVANT, 1) == pytest.approx(1.0)

    def test_recall_counts_found_relevant(self):
        assert recall_at_k(RECOMMENDED, RELEVANT, 5) == pytest.approx(2 / 3)
        assert recall_at_k(RECOMMENDED, RELEVANT, 1) == pytest.approx(1 / 3)

    def test_empty_inputs(self):
        assert precision_at_k([], RELEVANT, 5) == 0.0
        assert recall_at_k(RECOMMENDED, [], 5) == 0.0

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            precision_at_k(RECOMMENDED, RELEVANT, 0)

    def test_f1_is_harmonic_mean(self):
        precision = precision_at_k(RECOMMENDED, RELEVANT, 5)
        recall = recall_at_k(RECOMMENDED, RELEVANT, 5)
        expected = 2 * precision * recall / (precision + recall)
        assert f1_at_k(RECOMMENDED, RELEVANT, 5) == pytest.approx(expected)

    def test_f1_zero_when_no_hits(self):
        assert f1_at_k(["z"], RELEVANT, 1) == 0.0

    def test_hit_rate(self):
        assert hit_rate_at_k(RECOMMENDED, RELEVANT, 1) == 1.0
        assert hit_rate_at_k(["z", "y"], RELEVANT, 2) == 0.0


class TestRankingMetrics:
    def test_ndcg_perfect_is_one(self):
        assert ndcg_at_k(["a", "c"], ["a", "c"], 2) == pytest.approx(1.0)

    def test_ndcg_prefers_early_hits(self):
        early = ndcg_at_k(["a", "z", "y"], ["a"], 3)
        late = ndcg_at_k(["z", "y", "a"], ["a"], 3)
        assert early > late

    def test_ndcg_no_relevant(self):
        assert ndcg_at_k(RECOMMENDED, [], 5) == 0.0


class TestCoverage:
    def test_counts_distinct_recommended_items(self):
        lists = [["a", "b"], ["b", "c"]]
        assert catalog_coverage(lists, 10) == pytest.approx(0.3)

    def test_caps_at_one(self):
        assert catalog_coverage([["a", "b", "c"]], 2) == 1.0

    def test_invalid_catalog_size(self):
        with pytest.raises(ValueError):
            catalog_coverage([], 0)


class TestRankCorrelation:
    def test_spearman_perfect_agreement(self):
        left = {"a": 1.0, "b": 2.0, "c": 3.0}
        right = {"a": 10.0, "b": 20.0, "c": 30.0}
        assert spearman_rank_correlation(left, right) == pytest.approx(1.0)

    def test_spearman_perfect_disagreement(self):
        left = {"a": 1.0, "b": 2.0, "c": 3.0}
        right = {"a": 3.0, "b": 2.0, "c": 1.0}
        assert spearman_rank_correlation(left, right) == pytest.approx(-1.0)

    def test_spearman_handles_ties(self):
        left = {"a": 1.0, "b": 1.0, "c": 2.0}
        right = {"a": 1.0, "b": 2.0, "c": 3.0}
        value = spearman_rank_correlation(left, right)
        assert -1.0 <= value <= 1.0

    def test_spearman_insufficient_overlap(self):
        assert spearman_rank_correlation({"a": 1.0}, {"a": 1.0}) == 0.0
