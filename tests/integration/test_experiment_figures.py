"""Smoke tests: every experiment of :mod:`repro.experiments` runs and produces rows."""

import pytest

from repro.experiments import figures


class TestFigureExperiments:
    def test_fig31_platform_architecture(self):
        result = figures.fig31_platform_architecture(marketplace_counts=(1, 2), consumers=3)
        assert len(result.rows) == 2
        assert all(row["queries"] > 0 for row in result.rows)
        # More marketplaces -> higher mean query latency (serial itinerary).
        assert result.rows[1]["mean_query_latency_ms"] > result.rows[0]["mean_query_latency_ms"]

    def test_fig32_mechanism_concurrency(self):
        result = figures.fig32_mechanism_concurrency(consumer_counts=(3, 6))
        assert len(result.rows) == 2
        assert result.rows[1]["sessions"] == 6
        assert all(row["mean_request_latency_ms"] > 0 for row in result.rows)

    def test_fig41_creation_protocol(self):
        result = figures.fig41_creation_protocol(repeats=2)
        assert len(result.rows) == 2
        assert all(row["all_steps_present"] for row in result.rows)
        assert all(row["bootstrap_latency_ms"] > 0 for row in result.rows)

    def test_fig42_query_workflow(self):
        result = figures.fig42_query_workflow()
        assert "all Figure 4.2 steps observed" in result.notes[0]
        categories = result.column("category")
        assert categories[0] == "workflow.query-received"
        assert categories[-1] == "workflow.query-completed"

    def test_fig43_buy_auction_workflow(self):
        result = figures.fig43_buy_auction_workflow()
        rows = {row["trade"]: row for row in result.rows}
        assert set(rows) == {"direct-buy", "auction", "negotiation"}
        assert rows["direct-buy"]["succeeded"]
        assert all(row["all_steps_present"] for row in result.rows)

    def test_fig45_profile_learning(self):
        result = figures.fig45_profile_learning(
            event_counts=(5, 40), learning_rates=(0.3,)
        )
        assert len(result.rows) == 2
        small, large = result.rows[0], result.rows[1]
        assert large["mean_taste_alignment"] > small["mean_taste_alignment"]
        assert large["mean_taste_alignment"] > 0.9

    def test_fig45_similarity_scaling(self):
        result = figures.fig45_similarity_scaling(population_sizes=(20, 40))
        assert len(result.rows) == 2
        assert all(row["neighbours_found"] > 0 for row in result.rows)
        assert all(row["same_taste_group_fraction"] >= 0.5 for row in result.rows)

    def test_cap2_multi_marketplace(self):
        result = figures.cap2_multi_marketplace(marketplace_counts=(1, 2))
        assert len(result.rows) == 2
        assert result.rows[1]["items_found"] > result.rows[0]["items_found"]
        assert result.rows[1]["query_latency_ms"] > result.rows[0]["query_latency_ms"]

    def test_cap4_recommendation_quality(self):
        result = figures.cap4_recommendation_quality(num_consumers=20, events_per_user=20)
        names = {row["recommender"] for row in result.rows}
        assert names == {
            "agent-hybrid", "collaborative-filtering", "information-filtering", "popularity",
        }

    def test_cap4_cold_start(self):
        result = figures.cap4_cold_start(events_schedule=(3, 20), num_consumers=15)
        assert len(result.rows) == 2
        assert result.rows[0]["sparsity"] > result.rows[1]["sparsity"]

    def test_ablation_similarity_mix(self):
        result = figures.ablation_similarity_mix(
            mixes=((1.0, 0.0), (0.6, 0.4)), tolerances=(3.0,), k=5
        )
        assert len(result.rows) == 2
        assert all("f1@5" in row for row in result.rows)
