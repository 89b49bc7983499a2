"""Shared pytest fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.agents.context import AgletContext
from repro.agents.directory import ContextDirectory
from repro.core.items import Item, ItemCatalogView
from repro.ecommerce.platform_builder import build_platform
from repro.platform.clock import Scheduler
from repro.platform.events import EventLog
from repro.platform.host import Host
from repro.platform.metrics import MetricsRegistry
from repro.platform.network import NetworkConfig, SimulatedNetwork
from repro.platform.transport import Transport
from repro.workload.consumers import ConsumerPopulation
from repro.workload.generator import InteractionGenerator
from repro.workload.products import ProductGenerator


# ---------------------------------------------------------------------------
# Platform substrate fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def scheduler() -> Scheduler:
    return Scheduler()


@pytest.fixture
def network() -> SimulatedNetwork:
    return SimulatedNetwork(NetworkConfig(base_latency_ms=5.0), seed=1)


@pytest.fixture
def substrate(network, scheduler):
    """(network, scheduler, transport, directory) wired together."""
    transport = Transport(network, scheduler, EventLog(), MetricsRegistry())
    directory = ContextDirectory()
    return network, scheduler, transport, directory


@pytest.fixture
def two_contexts(substrate):
    """Two hosts ('alpha', 'beta') each running an aglet context."""
    network, scheduler, transport, directory = substrate
    contexts = []
    for name in ("alpha", "beta"):
        host = Host(name, network, scheduler)
        host.start()
        contexts.append(AgletContext(host, transport, directory))
    return tuple(contexts)


@pytest.fixture
def three_contexts(substrate):
    """Three hosts ('alpha', 'beta', 'gamma') each running an aglet context."""
    network, scheduler, transport, directory = substrate
    contexts = []
    for name in ("alpha", "beta", "gamma"):
        host = Host(name, network, scheduler)
        host.start()
        contexts.append(AgletContext(host, transport, directory))
    return tuple(contexts)


# ---------------------------------------------------------------------------
# Workload fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sample_items():
    """A deterministic batch of 60 synthetic items."""
    return ProductGenerator(seed=5).generate(60, seller="test-seller")


@pytest.fixture(scope="module")
def catalog_view(sample_items):
    return ItemCatalogView(sample_items)


@pytest.fixture(scope="module")
def population():
    return ConsumerPopulation(20, groups=4, seed=7)


@pytest.fixture(scope="module")
def dataset(population, catalog_view):
    """A small offline interaction dataset shared by recommender tests."""
    return InteractionGenerator(seed=9).generate(
        population, catalog_view, events_per_user=25
    )


# ---------------------------------------------------------------------------
# Live platform fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def platform():
    """A small but complete e-commerce platform."""
    return build_platform(num_marketplaces=2, num_sellers=2, items_per_seller=20, seed=3)


# ---------------------------------------------------------------------------
# Helpers exposed to tests
# ---------------------------------------------------------------------------


def make_item(
    item_id: str = "item-1",
    category: str = "books",
    subcategory: str = "fiction",
    terms=None,
    price: float = 20.0,
    seller: str = "seller",
) -> Item:
    """Build a deterministic item for hand-written scenarios."""
    return Item.build(
        item_id=item_id,
        name=f"Test {item_id}",
        category=category,
        subcategory=subcategory,
        terms=terms if terms is not None else {"novel": 0.8, "classic": 0.5},
        price=price,
        seller=seller,
    )


@pytest.fixture
def item_factory():
    return make_item


def score_block(kernel, tq, preference_weight, term_weight, total_weight):
    """Every row's score, ``{user_id: score}``: each partition's
    ``_Partition.select`` without a preference bound or a floor — the
    unpruned reference ``DictKernel.top_pairs`` is held to."""
    held = []
    for partition in kernel._partitions.values():
        partition.select(
            tq, preference_weight, term_weight, total_weight,
            pref_bound=None, floor=0.0, exclude_user=None,
            top_k=len(kernel), discard_rule=None, held=held,
        )
    return {user_id: -negative for negative, user_id in held}
