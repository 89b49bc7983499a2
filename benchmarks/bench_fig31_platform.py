"""Benchmark for FIG-3.1 — the end-to-end platform architecture.

Regenerates the Figure 3.1 experiment (all four server roles trading through
the agent pipeline) and measures the real cost of an end-to-end consumer
query as the number of marketplaces grows.
"""

import pytest

from repro.ecommerce.platform_builder import build_platform
from repro.experiments import figures


@pytest.mark.parametrize("marketplaces", [1, 2, 4])
def test_end_to_end_query_scales_with_marketplaces(benchmark, marketplaces):
    platform = build_platform(
        num_marketplaces=marketplaces, num_sellers=max(2, marketplaces),
        items_per_seller=20, seed=3,
    )
    gateway = platform.gateway()
    assert gateway.login("bench-consumer").ok

    def run_query():
        return gateway.query("bench-consumer", "books")

    response = benchmark(run_query)
    assert response.ok


def test_fig31_platform_architecture_rows(benchmark, experiment_reporter):
    result = benchmark.pedantic(
        figures.fig31_platform_architecture,
        kwargs={"marketplace_counts": (1, 2, 4), "consumers": 4},
        rounds=1, iterations=1,
    )
    experiment_reporter(result)
    latencies = result.column("mean_query_latency_ms")
    assert latencies[-1] > latencies[0]
