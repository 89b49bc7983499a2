"""repro — reproduction of "An Agent-Based Consumer Recommendation Mechanism".

The package reimplements, in pure Python, the full agent-based e-commerce
platform and consumer recommendation mechanism described by Wang, Hwang and
Wang (2004):

- :mod:`repro.platform` — a deterministic discrete-event simulation substrate
  (clock, network, hosts) standing in for the physical testbed.
- :mod:`repro.agents` — an Aglet-style mobile-agent runtime (creation, cloning,
  dispatch, deactivation, messaging, authentication of returning agents).
- :mod:`repro.ecommerce` — the e-commerce platform: coordinator server,
  marketplaces (query, negotiation, auctions), seller servers and the buyer
  agent server that *is* the recommendation mechanism (BSMA, HttpA, PA, BRA,
  MBA, UserDB, BSMDB).
- :mod:`repro.core` — the recommendation algorithms: hierarchical consumer
  profiles, the Rocchio-style profile learning rule, the similarity algorithm,
  collaborative filtering, information filtering, popularity and hybrid
  recommenders, and evaluation metrics.
- :mod:`repro.workload` — synthetic consumer populations, product catalogues
  and behaviour traces used by the examples, tests and benchmarks.
- :mod:`repro.experiments` — harnesses that regenerate every figure of the
  paper's evaluation.

Quickstart (every client operation goes through the versioned gateway and
returns the uniform :class:`~repro.api.envelope.ApiResponse` envelope)::

    from repro import build_platform

    platform = build_platform(num_marketplaces=2, seed=7)
    gateway = platform.gateway()
    gateway.login("alice")
    response = gateway.query("alice", "laptop")          # Figure 4.2
    hit = response.result.hits[0]
    gateway.buy("alice", hit.item, marketplace=hit.marketplace)
    recommendations = gateway.recommendations("alice").result.recommendations

Scaling — batch serving and the neighbor index::

    # Similar-user search runs against a precomputed neighbor index
    # (repro.core.neighbors) that is invalidated incrementally as consumers
    # interact; it returns scores identical to the brute-force scan.
    service = platform.buyer_server.recommendations
    lists = service.recommend_many(["alice", "bob", "carol"], k=5)

    # Community-wide precomputation, served later from the refresh's cache
    # (a fleet runs it on a schedule: fleet.start_periodic_refresh):
    service.batch_refresh(["alice", "bob", "carol"], k=5)
    cached = service.cached_recommendations("alice")
"""

from repro.version import __version__
from repro.ecommerce.platform_builder import ECommercePlatform, build_platform
from repro.api.envelope import ApiError, ApiResponse, ApiStatus, Provenance
from repro.api.gateway import PlatformGateway
from repro.core.profile import Profile, Category, SubCategory, TermVector
from repro.core.recommender import (
    Recommendation,
    RecommendationEngine,
    Recommender,
)
from repro.core.similarity import profile_similarity, SimilarityConfig
from repro.core.neighbors import ProfileNeighborIndex

__all__ = [
    "__version__",
    "ECommercePlatform",
    "build_platform",
    "PlatformGateway",
    "ApiResponse",
    "ApiStatus",
    "ApiError",
    "Provenance",
    "Profile",
    "Category",
    "SubCategory",
    "TermVector",
    "Recommendation",
    "RecommendationEngine",
    "Recommender",
    "profile_similarity",
    "SimilarityConfig",
    "ProfileNeighborIndex",
]
