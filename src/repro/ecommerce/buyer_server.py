"""The Buyer Agent Server — the consumer recommendation mechanism itself.

"Buyer Agent Server is also the proposed consumer recommendation mechanism.
... A consumer recommendation mechanism stands for servicing a consumer
community and providing the executable system and providing the storage of
saving consumer personal information." (§3.2)

:class:`BuyerAgentServer` is the host-side wrapper: it runs the Figure 4.1
bootstrap against the coordinator (which dispatches the BSMA here), attaches
the shared services (UserDB, BSMDB, the profile learner and the
recommendation service) and exposes the HttpA handle the consumer-facing
:class:`~repro.api.gateway.PlatformGateway` sends every request through.

**Replication semantics** (when :meth:`BuyerAgentServer.enable_replication`
is wired, normally via ``PlatformConfig.replication_factor``):

- *Durable:* everything in UserDB — registrations, the full learned profile
  (every learning update streams a post-update snapshot), observational
  ratings in arrival order, transaction records and login stamps.  All of it
  reaches the server's replica peers as write-ahead-log entries over the
  simulated network, so a crash loses at most the unshipped tail
  (:meth:`~repro.ecommerce.replication.ReplicationManager.lag_of` makes that
  tail visible, and the ``replication.lag.*`` gauges mirror it in metrics).
- *Lost on crash:* soft state only — BSMDB online-session records, live
  agent instances and the batch recommendation cache.  All of it is rebuilt
  on the consumer's next login at the surviving server.
- *Failover:* :meth:`~repro.ecommerce.fleet.BuyerServerFleet.handle_server_failure`
  restores a crashed server's consumers **from replicas alone** — zero
  reads against the dead host's memory: the freshest replica holder is
  *promoted* to primary for the dead server's shards (in-place shard-map
  update, no re-registration, no state transfer — the replica already
  lives there).  Consumers whose registration never reached a replica are
  reported as lost, not resurrected empty.  Only a fleet with no live
  replica at all hands consumers over from the dead host's memory.

The fleet of servers lives in :mod:`repro.ecommerce.fleet` and the
recommendation service in :mod:`repro.ecommerce.recommendation_service`;
both are re-exported here.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ECommerceError, RegistrationError
from repro.agents.context import AgletContext
from repro.agents.messages import MessageKinds
from repro.core.items import ItemCatalogView
from repro.core.profile_learning import ProfileLearner
from repro.core.similarity import SimilarityConfig
from repro.ecommerce.buyer_agents import BuyerServerManagementAgent, HttpAgent
from repro.ecommerce.databases import BSMDB, UserDB
from repro.ecommerce.fleet import (
    BuyerServerFleet,
    FleetQueryResult,
    FleetRefreshReport,
    ShardSplit,
)
from repro.ecommerce.recommendation_service import RecommendationService
from repro.ecommerce.replication import ReplicationManager

__all__ = [
    "RecommendationService",
    "BuyerAgentServer",
    "BuyerServerFleet",
    "FleetQueryResult",
    "FleetRefreshReport",
    "ShardSplit",
]


class BuyerAgentServer:
    """One buyer agent server (consumer recommendation mechanism)."""

    def __init__(
        self,
        context: AgletContext,
        coordinator_agent_id: str,
        catalog: Optional[ItemCatalogView] = None,
        similarity_config: Optional[SimilarityConfig] = None,
    ) -> None:
        self.context = context
        self.name = context.host_name
        self.coordinator_agent_id = coordinator_agent_id

        # Attach the shared services the functional agents will look up.
        self.user_db = UserDB()
        self.bsmdb = BSMDB()
        self.profile_learner = ProfileLearner()
        context.host.attach_service("user-db", self.user_db)
        context.host.attach_service("bsmdb", self.bsmdb)
        context.host.attach_service("profile-learner", self.profile_learner)
        context.host.attach_service("buyer-agent-server", self)

        self.recommendations = RecommendationService(
            self.user_db, catalog if catalog is not None else ItemCatalogView([]),
            similarity_config, now=lambda: context.now,
            profile_learner=self.profile_learner,
        )
        context.host.attach_service("recommendation-service", self.recommendations)

        self.bsma: Optional[BuyerServerManagementAgent] = None
        self.httpa: Optional[HttpAgent] = None
        self.batch_refreshes = 0
        self.refresh_skips = 0
        self.replication: Optional[ReplicationManager] = None

    # -- replication ----------------------------------------------------------------

    def enable_replication(
        self, wal_truncate_threshold: int = 0
    ) -> ReplicationManager:
        """Attach a :class:`~repro.ecommerce.replication.ReplicationManager`.

        From this point every durable UserDB mutation (and every in-place
        profile learning update) is appended to this server's write-ahead
        log; wire actual peers with
        :meth:`~repro.ecommerce.replication.ReplicationManager.replicate_to`.
        With a positive ``wal_truncate_threshold`` the log is bounded:
        once every peer has acknowledged that many entries beyond the last
        truncation point, the manager snapshots and truncates the
        acknowledged prefix.  Idempotent in effect but calling twice is a
        programming error.
        """
        if self.replication is not None:
            raise ECommerceError(
                f"buyer agent server {self.name!r} already has replication enabled"
            )
        self.replication = ReplicationManager(
            self, truncate_threshold=wal_truncate_threshold
        )
        return self.replication

    # -- Figure 4.1 bootstrap -------------------------------------------------------

    def bootstrap(self) -> None:
        """Ask the coordinator to set this host up as a buyer agent server.

        Runs the full Figure 4.1 protocol: the request travels to the CA, the
        CA creates and dispatches a BSMA here, and the BSMA creates the PA and
        HttpA and initialises the databases on arrival.
        """
        if self.bsma is not None:
            raise RegistrationError(f"buyer agent server {self.name!r} is already bootstrapped")
        reply = self.context.send_message(
            self.coordinator_agent_id,
            _creation_request(self.name),
        )
        if not reply.ok:
            raise RegistrationError(f"coordinator refused to create buyer server: {reply.error}")
        bsma_id = reply.require("bsma_id")
        self.bsma = self.context.get_local(bsma_id)
        self.httpa = self.context.get_local(self.bsma.httpa_id)

    @property
    def is_ready(self) -> bool:
        return self.bsma is not None and self.bsma.initialized

    # -- direct handles used by the gateway, tests and benchmarks ----------------------

    def http_proxy(self):
        if self.httpa is None:
            raise ECommerceError(f"buyer agent server {self.name!r} has not been bootstrapped")
        return self.httpa.proxy

    def online_users(self) -> List[str]:
        return self.bsmdb.online_user_ids()

    def register_consumer(self, user_id: str, display_name: str = "") -> None:
        """Register a consumer through the normal HttpA path."""
        reply = self.http_proxy().request(
            MessageKinds.REGISTER, sender="browser",
            user_id=user_id, display_name=display_name,
        )
        if not reply.ok:
            raise ECommerceError(reply.error)


def _creation_request(host: str):
    """The Figure 4.1 step-1 message ("request to be Buyer Agent Server")."""
    from repro.agents.messages import Message

    return Message(kind=MessageKinds.CREATE_BUYER_SERVER, payload={"host": host}, sender=host)
