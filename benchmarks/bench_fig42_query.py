"""Benchmark for FIG-4.2 — the merchandise query workflow.

Measures the real cost of one complete Figure 4.2 query (MBA round trip over
both marketplaces, profile update, similarity lookup, recommendation
generation) and prints the step-by-step trace with simulated latencies.
"""

from repro.ecommerce.platform_builder import build_platform
from repro.experiments import figures
from repro.experiments.figures import QUERY_WORKFLOW_STEPS


def test_query_workflow_cost(benchmark):
    platform = build_platform(num_marketplaces=2, num_sellers=2,
                              items_per_seller=25, seed=13)
    gateway = platform.gateway()
    assert gateway.login("bench-consumer").ok
    response = benchmark(lambda: gateway.query("bench-consumer", "books"))
    assert response.result.hits


def test_fig42_step_trace_rows(benchmark, experiment_reporter):
    result = benchmark.pedantic(figures.fig42_query_workflow, rounds=1, iterations=1)
    experiment_reporter(result)
    observed = result.column("category")
    for step in QUERY_WORKFLOW_STEPS:
        assert step in observed
