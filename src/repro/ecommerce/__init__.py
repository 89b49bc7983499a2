"""The agent-based e-commerce platform (§3 of the paper).

Four server roles make up the platform:

- :mod:`repro.ecommerce.coordinator` — the Coordinator Server and its
  Coordinator Agent (CA) managing the EC domain and bootstrapping buyer agent
  servers (Figure 4.1).
- :mod:`repro.ecommerce.marketplace` — marketplaces where buyer and seller
  mobile agents trade: merchandise query, negotiation and auctions.
- :mod:`repro.ecommerce.seller` — seller servers cataloguing merchandise and
  listing it on marketplaces through mobile seller agents.
- :mod:`repro.ecommerce.buyer_server` — the Buyer Agent Server, i.e. the
  consumer recommendation mechanism itself, hosting BSMA, HttpA, PA, the
  per-consumer BRAs and the MBAs they dispatch (Figure 3.2), backed by UserDB
  and BSMDB (:mod:`repro.ecommerce.databases`).

:mod:`repro.ecommerce.platform_builder` wires everything together on the
simulated platform and returns the :class:`ECommercePlatform` facade used by
the examples, tests and benchmarks.
"""

from repro.ecommerce.databases import UserDB, BSMDB, UserRecord
from repro.ecommerce.transactions import TransactionRecord, TransactionKind
from repro.ecommerce.catalog import MerchandiseCatalog, Listing
from repro.ecommerce.auction import AuctionHouse, Auction, AuctionResult, Bid
from repro.ecommerce.negotiation import NegotiationService, NegotiationOutcome
from repro.ecommerce.marketplace import MarketplaceServer
from repro.ecommerce.seller import SellerServer
from repro.ecommerce.coordinator import CoordinatorServer
from repro.ecommerce.buyer_server import (
    BuyerAgentServer,
    BuyerServerFleet,
    FleetQueryResult,
    ShardSplit,
)
from repro.ecommerce.elasticity import (
    AutoscalerDecision,
    AutoscalerPolicy,
    FleetAutoscaler,
)
from repro.ecommerce.replication import (
    ReplicaState,
    ReplicationLog,
    ReplicationLogEntry,
    ReplicationManager,
)
from repro.ecommerce.platform_builder import ECommercePlatform, PlatformConfig, build_platform

__all__ = [
    "UserDB",
    "BSMDB",
    "UserRecord",
    "TransactionRecord",
    "TransactionKind",
    "MerchandiseCatalog",
    "Listing",
    "AuctionHouse",
    "Auction",
    "AuctionResult",
    "Bid",
    "NegotiationService",
    "NegotiationOutcome",
    "MarketplaceServer",
    "SellerServer",
    "CoordinatorServer",
    "BuyerAgentServer",
    "BuyerServerFleet",
    "FleetQueryResult",
    "ShardSplit",
    "AutoscalerDecision",
    "AutoscalerPolicy",
    "FleetAutoscaler",
    "ReplicaState",
    "ReplicationLog",
    "ReplicationLogEntry",
    "ReplicationManager",
    "ECommercePlatform",
    "PlatformConfig",
    "build_platform",
]
