"""Benchmark for CAP-2 — multi-marketplace information gathering.

Measures query cost and coverage as the MBA's itinerary grows from one to
four marketplaces (capability claim 3 of §5.1: the MBA collects merchandise
information from more than two online marketplaces).
"""

import pytest

from repro.ecommerce.platform_builder import build_platform
from repro.experiments import figures


@pytest.mark.parametrize("marketplaces", [1, 2, 4])
def test_itinerary_cost(benchmark, marketplaces):
    platform = build_platform(
        num_marketplaces=marketplaces, num_sellers=marketplaces,
        items_per_seller=15, seed=27, replicate_listings=False,
    )
    gateway = platform.gateway()
    assert gateway.login("bench-consumer").ok
    response = benchmark(lambda: gateway.query("bench-consumer", "books"))
    assert len({hit.marketplace for hit in response.result.hits}) == marketplaces


def test_cap2_coverage_rows(benchmark, experiment_reporter):
    result = benchmark.pedantic(
        figures.cap2_multi_marketplace,
        kwargs={"marketplace_counts": (1, 2, 3, 4)},
        rounds=1, iterations=1,
    )
    experiment_reporter(result)
    found = result.column("items_found")
    assert found == sorted(found)  # coverage grows with the itinerary
