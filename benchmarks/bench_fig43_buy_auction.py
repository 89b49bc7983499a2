"""Benchmark for FIG-4.3 — the buy / auction / negotiation workflow.

Measures the real cost of each trade style through the full agent pipeline
and prints the Figure 4.3 rows (success, price paid vs. list price, workflow
steps, simulated latency).
"""

import pytest

from repro.ecommerce.platform_builder import ECommercePlatform, PlatformConfig, build_platform
from repro.experiments import figures

CONSUMER = "bench-consumer"


@pytest.fixture
def trading_gateway():
    # A very deep stock so the benchmark can repeat the purchase thousands of
    # times without exhausting the listing.
    config = PlatformConfig(num_marketplaces=2, num_sellers=2, items_per_seller=25,
                            stock_per_item=1_000_000, seed=17)
    platform = ECommercePlatform(config)
    gateway = platform.gateway()
    assert gateway.login(CONSUMER).ok
    hits = gateway.query(CONSUMER, "books").result.hits
    assert hits
    return gateway, hits[0]


def test_direct_purchase_cost(benchmark, trading_gateway):
    gateway, hit = trading_gateway
    response = benchmark(
        lambda: gateway.buy(CONSUMER, hit.item, marketplace=hit.marketplace)
    )
    assert response.result.succeeded


def test_auction_cost(benchmark, trading_gateway):
    gateway, hit = trading_gateway
    response = benchmark(
        lambda: gateway.join_auction(CONSUMER, hit.item, max_price=hit.price * 1.3,
                                     marketplace=hit.marketplace)
    )
    assert response.result.outcome["rounds"] >= 1


def test_negotiation_cost(benchmark, trading_gateway):
    gateway, hit = trading_gateway
    response = benchmark(
        lambda: gateway.negotiate(CONSUMER, hit.item, max_price=hit.price * 0.95,
                                  marketplace=hit.marketplace)
    )
    assert response.result.outcome["rounds"] >= 1


def test_fig43_trade_rows(benchmark, experiment_reporter):
    result = benchmark.pedantic(figures.fig43_buy_auction_workflow, rounds=1, iterations=1)
    experiment_reporter(result)
    rows = {row["trade"]: row for row in result.rows}
    assert rows["direct-buy"]["succeeded"]
    assert all(row["all_steps_present"] for row in result.rows)
