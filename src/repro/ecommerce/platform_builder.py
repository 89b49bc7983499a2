"""Assemble the full e-commerce platform on the simulated substrate.

:func:`build_platform` wires together everything Figure 3.1 shows — a
coordinator server, marketplaces, seller servers and a buyer agent server —
on top of the simulated network and the Aglet-style runtime, stocks the
marketplaces with synthetic merchandise and runs the Figure 4.1 bootstrap.
The resulting :class:`ECommercePlatform` is the facade used by the examples,
the integration tests and every platform-level benchmark.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ECommerceError
from repro.agents.context import AgletContext
from repro.agents.security import AuthenticationService
from repro.agents.directory import ContextDirectory
from repro.core.items import Item, ItemCatalogView
from repro.core.similarity import SimilarityConfig
from repro.platform.clock import Scheduler
from repro.platform.events import EventLog
from repro.platform.failure import FailureInjector
from repro.platform.host import Host
from repro.platform.metrics import MetricsRegistry
from repro.platform.network import NetworkConfig, SimulatedNetwork
from repro.platform.transport import Transport
from repro.ecommerce.buyer_server import BuyerAgentServer, BuyerServerFleet
from repro.ecommerce.coordinator import CoordinatorServer
from repro.ecommerce.marketplace import MarketplaceServer
from repro.ecommerce.seller import SellerServer

__all__ = ["PlatformConfig", "ECommercePlatform", "build_platform"]

#: Cadence (simulated ms) of each replicating server's anti-entropy task,
#: which re-ships whatever lagging replicas missed while down or partitioned.
ANTI_ENTROPY_INTERVAL_MS = 200.0


@dataclass
class PlatformConfig:
    """Shape of the platform to build.

    Attributes:
        num_marketplaces: how many marketplace servers to create.
        num_sellers: how many seller servers to create.
        items_per_seller: synthetic merchandise generated per seller.
        stock_per_item: initial stock of every listing.
        replicate_listings: when True every seller lists on every marketplace;
            when False sellers are spread round-robin so different
            marketplaces carry different merchandise (which is what makes
            multi-marketplace itineraries worthwhile, capability CAP-2).
        seed: master seed of every random stream the platform draws:
            the network's jitter and loss (``Random(seed)``), the
            synthetic catalogue (``Random(seed)``), the auction house of
            marketplace *i* (``Random(seed + i - 1)``, one per
            marketplace, numbered from 1) and each host's authentication
            secret and token RNG (derived from ``auth|<seed>|<host>``).
            The network, the catalogue and marketplace-1's auction house
            therefore all start from the same ``Random(seed)`` state.
        network: network latency/loss parameters.
        similarity: similarity-algorithm parameters of the mechanism.
        num_buyer_servers: how many buyer agent servers to run.  With more
            than one the platform runs in multi-server (fleet) mode: each
            server owns a shard of the consumer community, consumers are
            routed at registration and similar-user queries fan out/merge
            (see :class:`~repro.ecommerce.buyer_server.BuyerServerFleet`).
        replication_factor: how many replica peers each buyer agent server
            streams its UserDB mutations to (0 = no replication, the
            single-copy PR-2 behaviour).  With ``f >= 1`` server *i*
            replicates to servers ``i+1 .. i+f`` (mod N), the coordinator
            records the replica map, and
            :meth:`~repro.ecommerce.buyer_server.BuyerServerFleet.handle_server_failure`
            promotes a replica holder instead of reading a crashed
            server's memory.
            Requires ``num_buyer_servers > replication_factor``.
        replication_wal_truncate_threshold: bound on each server's
            write-ahead log: once every replica peer has acknowledged this
            many entries beyond the last truncation point, the server
            snapshots its state and truncates the acknowledged prefix
            (0 disables truncation — the unbounded PR-3 behaviour).
            Truncation never drops an entry any peer has not acknowledged,
            so a lagging peer holds the bound open rather than losing data.
        api_deadline_ms: default simulated-time budget for every gateway
            request (``None`` = unbounded).  Individual requests override it
            via their ``deadline_ms`` field; a request whose work overruns
            the budget returns an ``unavailable`` envelope with code
            ``deadline-exceeded`` instead of its result.
        api_admission_capacity: token-bucket burst capacity for gateway
            admission control (0 disables load shedding — the default, which
            keeps gateway traffic byte-identical to direct calls).
        api_admission_refill_per_ms: tokens restored per simulated
            millisecond once admission control is enabled.
        api_admission_classes: optional per-operation admission classes —
            a mapping ``{class_name: {"operations": [...],
            "capacity": float, "refill_per_ms": float, "cost": float}}``
            giving each named group of operations its own weighted token
            bucket (``cost`` defaults to 1.0).  Classed operations never
            touch the default bucket, so a burst of cheap reads sheds in
            its own class while writes keep their tokens; unclassed
            operations still use ``api_admission_capacity``.  ``None``
            (the default) disables classes entirely, keeping admission
            byte-identical to the single-bucket behaviour.
        fleet_hedge_delay_percentile: optional tail-latency hedging for
            fleet ``find_similar`` fan-outs.  When set to ``p`` in
            ``(0, 1]``, a shard whose round trip exceeds the ``p``-th
            percentile of this fan-out's shard latencies gets a *hedge*:
            the freshest replica holder is asked for the same answer after
            that percentile delay, and the shard is charged
            ``min(primary, delay + hedge)`` — the Dean & Barroso
            tail-at-scale trick.  ``None`` (the default) never hedges and
            is byte-identical to the unhedged fan-out; ``1.0`` arms the
            machinery but can never fire (no latency exceeds the max).
        handshake_trades: each marketplace admits every trade with the
            :mod:`repro.adversarial` handshake protocol (nonce challenge +
            HMAC echo + single finalize, then one redeem) before running
            it; recorded trades keep their transcript and the gateway's
            ``handshake`` probe operation works.  Off by default —
            admission does nothing, and the trade path, reply payloads
            and metric stream are those of the unsecured platform.
    """

    num_marketplaces: int = 2
    num_sellers: int = 2
    items_per_seller: int = 30
    stock_per_item: int = 25
    replicate_listings: bool = False
    seed: int = 0
    network: NetworkConfig = field(default_factory=NetworkConfig)
    similarity: SimilarityConfig = field(default_factory=SimilarityConfig)
    num_buyer_servers: int = 1
    replication_factor: int = 0
    replication_wal_truncate_threshold: int = 64
    api_deadline_ms: Optional[float] = None
    api_admission_capacity: int = 0
    api_admission_refill_per_ms: float = 1.0
    api_admission_classes: Optional[Dict[str, Dict[str, object]]] = None
    fleet_hedge_delay_percentile: Optional[float] = None
    handshake_trades: bool = False

    def validate(self) -> None:
        if self.num_marketplaces <= 0:
            raise ECommerceError("the platform needs at least one marketplace")
        if self.num_sellers <= 0:
            raise ECommerceError("the platform needs at least one seller server")
        if self.items_per_seller <= 0:
            raise ECommerceError("items_per_seller must be positive")
        if self.stock_per_item <= 0:
            raise ECommerceError("stock_per_item must be positive")
        if self.num_buyer_servers <= 0:
            raise ECommerceError("the platform needs at least one buyer agent server")
        if self.replication_factor < 0:
            raise ECommerceError("replication_factor cannot be negative")
        if self.replication_factor >= max(self.num_buyer_servers, 1) and self.replication_factor > 0:
            raise ECommerceError(
                f"replication_factor={self.replication_factor} needs at least "
                f"{self.replication_factor + 1} buyer servers "
                f"(got {self.num_buyer_servers})"
            )
        if self.replication_wal_truncate_threshold < 0:
            raise ECommerceError(
                "replication WAL truncate threshold cannot be negative "
                "(use 0 to disable truncation)"
            )
        if self.api_deadline_ms is not None and self.api_deadline_ms <= 0:
            raise ECommerceError(
                "api_deadline_ms must be positive (use None for no deadline)"
            )
        if self.api_admission_capacity < 0:
            raise ECommerceError(
                "api_admission_capacity cannot be negative "
                "(use 0 to disable admission control)"
            )
        if self.api_admission_refill_per_ms <= 0:
            raise ECommerceError("api_admission_refill_per_ms must be positive")
        if self.api_admission_classes is not None:
            classed_operations: Dict[str, str] = {}
            for class_name, spec in self.api_admission_classes.items():
                if not isinstance(spec, dict):
                    raise ECommerceError(
                        f"admission class {class_name!r} must be a dict "
                        f"with operations/capacity/refill_per_ms"
                    )
                operations = spec.get("operations")
                if not operations:
                    raise ECommerceError(
                        f"admission class {class_name!r} names no operations"
                    )
                for operation in operations:
                    if not isinstance(operation, str):
                        raise ECommerceError(
                            f"admission class {class_name!r} has a "
                            f"non-string operation: {operation!r}"
                        )
                    previous = classed_operations.setdefault(operation, class_name)
                    if previous != class_name:
                        raise ECommerceError(
                            f"operation {operation!r} is claimed by both "
                            f"admission classes {previous!r} and "
                            f"{class_name!r}"
                        )
                if float(spec.get("capacity", 0)) <= 0:
                    raise ECommerceError(
                        f"admission class {class_name!r} needs a positive "
                        f"capacity"
                    )
                if float(spec.get("refill_per_ms", 0)) <= 0:
                    raise ECommerceError(
                        f"admission class {class_name!r} needs a positive "
                        f"refill_per_ms"
                    )
                if float(spec.get("cost", 1.0)) <= 0:
                    raise ECommerceError(
                        f"admission class {class_name!r} needs a positive "
                        f"cost"
                    )
        if self.fleet_hedge_delay_percentile is not None and not (
            0.0 < self.fleet_hedge_delay_percentile <= 1.0
        ):
            raise ECommerceError(
                "fleet_hedge_delay_percentile must be in (0, 1] "
                "(use None to disable hedging)"
            )


class ECommercePlatform:
    """The assembled platform: servers, substrate handles and consumer entry points."""

    def __init__(self, config: PlatformConfig) -> None:
        config.validate()
        self.config = config

        # -- simulation substrate ------------------------------------------------
        self.scheduler = Scheduler()
        self.network = SimulatedNetwork(config.network, seed=config.seed)
        self.event_log = EventLog()
        self.metrics = MetricsRegistry()
        self.transport = Transport(self.network, self.scheduler, self.event_log, self.metrics)
        self.directory = ContextDirectory()
        self.failures = FailureInjector(self.network, self.scheduler)
        self.hosts: Dict[str, Host] = {}

        # -- servers ---------------------------------------------------------------
        self.coordinator = self._build_coordinator()
        self.marketplaces: List[MarketplaceServer] = [
            self._build_marketplace(index) for index in range(config.num_marketplaces)
        ]
        self.sellers: List[SellerServer] = [
            self._build_seller(index) for index in range(config.num_sellers)
        ]
        self._stock_sellers_and_marketplaces()
        self.buyer_servers: List[BuyerAgentServer] = [
            self._build_buyer_server(index) for index in range(config.num_buyer_servers)
        ]
        self.buyer_server = self.buyer_servers[0]
        # Multi-server mode: the fleet routes consumers and fans out queries.
        # The coordinator handle lets promotion failovers update the CA's
        # shard map in place.
        self.fleet: Optional[BuyerServerFleet] = (
            BuyerServerFleet(
                self.buyer_servers,
                coordinator=self.coordinator,
                hedge_delay_percentile=config.fleet_hedge_delay_percentile,
            )
            if config.num_buyer_servers > 1
            else None
        )
        if config.replication_factor > 0:
            self._wire_replication()

        self._gateway = None

    def _wire_replication(self) -> None:
        """Stream every buyer server's WAL to its ring successors.

        Server *i* replicates to servers ``i+1 .. i+replication_factor``
        (mod N) — what :class:`~repro.ecommerce.replication.ReplicationRing`
        picks while every server is up: simple, deterministic, and any
        single crash leaves at least ``replication_factor`` live replicas.
        """
        for server in self.buyer_servers:
            server.enable_replication(
                wal_truncate_threshold=self.config.replication_wal_truncate_threshold
            )
        for server in self.buyer_servers:
            self._stream_to_successors(server)

    def _stream_to_successors(self, server: BuyerAgentServer) -> None:
        """Wire ``server``'s outbound streams and arm its anti-entropy task."""
        self.fleet.replication_ring.wire(server, self.config.replication_factor)
        if not server.replication.anti_entropy_scheduled:
            server.replication.start_anti_entropy(ANTI_ENTROPY_INTERVAL_MS)

    # -- construction helpers -------------------------------------------------------

    def _new_host(self, name: str) -> Host:
        host = Host(name, self.network, self.scheduler)
        host.start()
        self.hosts[name] = host
        self.failures.register_host(host)
        return host

    def _new_context(self, host: Host) -> AgletContext:
        # Same-seed runs must produce identical credential/nonce streams,
        # so each context's AuthenticationService derives its signing
        # secret and token RNG from the platform seed and host name
        # instead of OS entropy.
        token = f"auth|{self.config.seed}|{host.name}"
        auth = AuthenticationService(
            host.name,
            secret=hashlib.sha256(token.encode("utf-8")).digest(),
            rng=random.Random(token),
        )
        return AgletContext(host, self.transport, self.directory, auth=auth)

    def _build_coordinator(self) -> CoordinatorServer:
        host = self._new_host("coordinator")
        return CoordinatorServer(self._new_context(host))

    def _build_marketplace(self, index: int) -> MarketplaceServer:
        name = f"marketplace-{index + 1}"
        host = self._new_host(name)
        server = MarketplaceServer(
            self._new_context(host),
            seed=self.config.seed + index,
            handshake_trades=self.config.handshake_trades,
        )
        self.coordinator.register_server("marketplace", name)
        return server

    def _build_seller(self, index: int) -> SellerServer:
        name = f"seller-{index + 1}"
        host = self._new_host(name)
        server = SellerServer(self._new_context(host))
        self.coordinator.register_server("seller", name)
        return server

    def _stock_sellers_and_marketplaces(self) -> None:
        """Generate synthetic merchandise and list it on the marketplaces."""
        from repro.workload.products import ProductGenerator

        generator = ProductGenerator(seed=self.config.seed)
        for index, seller in enumerate(self.sellers):
            items = generator.generate(
                count=self.config.items_per_seller, seller=seller.name
            )
            seller.add_all(items, stock=self.config.stock_per_item)
            if self.config.replicate_listings:
                targets = [marketplace.name for marketplace in self.marketplaces]
            else:
                marketplace = self.marketplaces[index % len(self.marketplaces)]
                targets = [marketplace.name]
            for target in targets:
                seller.list_on_marketplace(target)

    def _build_buyer_server(
        self, index: int, shard_id: object = "auto"
    ) -> BuyerAgentServer:
        name = "buyer-agent-server" if index == 0 else f"buyer-agent-server-{index + 1}"
        host = self._new_host(name)
        context = self._new_context(host)
        server = BuyerAgentServer(
            context,
            coordinator_agent_id=self.coordinator.agent.aglet_id,
            catalog=self.catalog_view(),
            similarity_config=self.config.similarity,
        )
        if shard_id == "auto":
            shard_id = index if self.config.num_buyer_servers > 1 else None
        self.coordinator.register_server("buyer-server", host.name, shard_id=shard_id)
        server.bootstrap()
        return server

    # -- elastic fleet operations ---------------------------------------------------------

    def add_buyer_server(self) -> BuyerAgentServer:
        """Scale out: join one more buyer agent server to the fleet.

        A previously removed server is resurrected first (host restarted,
        stale state purged through the recovery machinery, replication
        rewired); otherwise a brand-new server is built, bootstrapped
        against the coordinator and joined as shard-less capacity — it
        takes load only once the autoscaler (or a caller) hands it a shard
        via :meth:`~repro.ecommerce.buyer_server.BuyerServerFleet.transfer_shard`
        or :meth:`~repro.ecommerce.buyer_server.BuyerServerFleet.split_shard`.
        """
        if self.fleet is None:
            raise ECommerceError(
                "add_buyer_server needs fleet mode (num_buyer_servers > 1)"
            )
        for server in reversed(self.buyer_servers):
            if server.name in self.fleet.retired:
                host = self.hosts[server.name]
                if not host.is_running:
                    host.recover()
                self.fleet.add_server(server)
                self.fleet.recover_server(server)
                self._join_replication_ring(server)
                return server
        server = self._build_buyer_server(len(self.buyer_servers), shard_id=None)
        self.buyer_servers.append(server)
        self.fleet.add_server(server)
        self._join_replication_ring(server)
        return server

    def remove_buyer_server(self, server: BuyerAgentServer) -> None:
        """Scale in: retire ``server`` (it must own no shards) and stop its host.

        The fleet unwires its replication streams in both directions and
        marks it retired; the host then leaves the network cleanly.  The
        server object stays known so :meth:`add_buyer_server` can resurrect
        it on the next scale-out instead of growing the host population
        without bound.
        """
        if self.fleet is None:
            raise ECommerceError(
                "remove_buyer_server needs fleet mode (num_buyer_servers > 1)"
            )
        self.fleet.decommission_server(server)
        host = self.hosts[server.name]
        if host.is_running:
            host.stop()

    def _join_replication_ring(self, server: BuyerAgentServer) -> None:
        """Wire one newly joined server into the replication ring.

        Outbound like a founding server; inbound, primaries whose nearest
        ring successor is the new server swap their ring-farthest peer for
        it — the same convergence a recovered host gets.  No-op when the
        platform does not replicate.
        """
        if self.config.replication_factor <= 0:
            return
        if server.replication is None:
            server.enable_replication(
                wal_truncate_threshold=self.config.replication_wal_truncate_threshold
            )
        self._stream_to_successors(server)
        self.fleet.replication_ring.rewire(server)

    # -- consumer entry points -----------------------------------------------------------

    def buyer_server_for(self, user_id: str) -> BuyerAgentServer:
        """The buyer agent server serving ``user_id`` (fleet-routed when sharded)."""
        if self.fleet is not None:
            return self.fleet.server_for(user_id)
        return self.buyer_server

    def register_consumer(self, user_id: str, display_name: str = "") -> None:
        """Register a consumer with the recommendation mechanism."""
        if self.fleet is not None:
            self.fleet.register_consumer(user_id, display_name)
        else:
            self.buyer_server.register_consumer(user_id, display_name)

    def gateway(self):
        """The platform's :class:`~repro.api.gateway.PlatformGateway`.

        The blessed entry point for every client operation (register, login,
        query, buy, negotiate, recommendations, find-similar, admin stats):
        one instance per platform, created lazily, configured by the
        ``api_*`` fields of :class:`PlatformConfig`.  It is the only client
        door: it keeps each consumer's connection to their buyer agent
        server's HttpA.
        """
        if self._gateway is None:
            # Imported here: repro.api sits above the ecommerce layer.
            from repro.api.gateway import PlatformGateway

            self._gateway = PlatformGateway(self)
        return self._gateway

    # -- platform-wide views --------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.scheduler.clock.now

    def marketplace_names(self) -> List[str]:
        return [marketplace.name for marketplace in self.marketplaces]

    def catalog_view(self) -> ItemCatalogView:
        """A read-only view over every item any seller catalogues."""
        items: List[Item] = []
        for seller in self.sellers:
            items.extend(seller.catalog.items())
        return ItemCatalogView(items)

    def stats(self) -> Dict[str, object]:
        """Aggregate platform statistics used by benchmarks and examples."""
        payload: Dict[str, object] = {
            "now_ms": self.now,
            "network": self.network.stats(),
            "metrics": self.metrics.snapshot(),
            "marketplaces": {m.name: m.stats() for m in self.marketplaces},
            "consumers": sum(len(server.user_db) for server in self.buyer_servers),
            "online": sorted(
                user_id
                for server in self.buyer_servers
                for user_id in server.online_users()
            ),
            "buyer_servers": {
                server.name: len(server.user_db) for server in self.buyer_servers
            },
        }
        if self.fleet is not None:
            payload["shard_map"] = self.fleet.shard_map.as_dict()
            payload["fleet"] = {
                "servers": len(self.fleet.servers),
                "active_servers": len(self.fleet.members()),
                "retired": sorted(self.fleet.retired),
                "handbacks": self.fleet.handbacks,
                "splits": self.fleet.splits,
                "transferred_consumers": self.fleet.transferred_consumers,
            }
        return payload


def build_platform(
    num_marketplaces: int = 2,
    num_sellers: int = 2,
    items_per_seller: int = 30,
    seed: int = 0,
    config: Optional[PlatformConfig] = None,
    **overrides,
) -> ECommercePlatform:
    """Build a ready-to-use e-commerce platform.

    Either pass a full :class:`PlatformConfig` via ``config`` or use the
    keyword shortcuts; extra keyword arguments are applied to the config as
    attribute overrides (e.g. ``replicate_listings=True``).
    """
    if config is None:
        config = PlatformConfig(
            num_marketplaces=num_marketplaces,
            num_sellers=num_sellers,
            items_per_seller=items_per_seller,
            seed=seed,
        )
    for key, value in overrides.items():
        if not hasattr(config, key):
            raise ECommerceError(f"unknown platform configuration option {key!r}")
        setattr(config, key, value)
    return ECommercePlatform(config)
