"""Coordinator server and Coordinator Agent (CA).

"There is a Coordinator Agent (CA) in Coordinator Server.  The CA is static in
Coordinator Server and manages an E-Commerce (EC) domain." (§3.2)

The CA keeps the registry of marketplaces, seller servers and buyer agent
servers in the domain, answers topology queries, and performs the first three
steps of the Figure 4.1 bootstrap: on a ``CREATE_BUYER_SERVER`` request it
creates a BSMA on the coordinator host and dispatches it to the requesting
buyer agent server host.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import RegistrationError
from repro.agents.aglet import Aglet
from repro.agents.context import AgletContext
from repro.agents.messages import Message, MessageKinds, Reply

__all__ = ["CoordinatorAgent", "CoordinatorServer"]


class CoordinatorAgent(Aglet):
    """Static agent managing the EC domain registry."""

    agent_type = "CA"

    def on_creation(self) -> None:
        self.marketplaces: List[str] = []
        self.seller_servers: List[str] = []
        self.buyer_servers: List[str] = []
        # host → shard ids, for buyer servers that own partitions of the
        # consumer community (multi-server mode).  A host normally owns one
        # shard; a promotion failover hands a dead server's shards to the
        # promoted replica holder, so the value is a list.
        self.shard_map: Dict[str, List[int]] = {}
        # Epoch of the fleet's versioned ShardMap as of the last sync — 0
        # until the first elastic topology change arrives.  Syncs carry the
        # epoch so a reordered or duplicate delivery can never roll the
        # registry backwards.
        self.shard_map_epoch: int = 0
        # primary host → replica hosts, for buyer servers that stream their
        # UserDB mutations to peers (replication mode).  The CA records the
        # topology so the domain registry knows where a crashed server's
        # consumers can be recovered from.
        self.replica_map: Dict[str, List[str]] = {}

    def handle_message(self, message: Message) -> Reply:
        if message.kind == MessageKinds.SERVER_REGISTER:
            return self._handle_register(message)
        if message.kind == MessageKinds.CREATE_BUYER_SERVER:
            return self._handle_create_buyer_server(message)
        if message.kind == "platform.register-replication":
            return self._handle_register_replication(message)
        if message.kind == "platform.promote-shard":
            return self._handle_promote_shard(message)
        if message.kind == "platform.shard-map":
            return self._handle_shard_map_sync(message)
        if message.kind == "platform.topology":
            return message.reply(
                marketplaces=list(self.marketplaces),
                seller_servers=list(self.seller_servers),
                buyer_servers=list(self.buyer_servers),
                shard_map={host: list(ids) for host, ids in self.shard_map.items()},
                shard_map_epoch=self.shard_map_epoch,
                replica_map={k: list(v) for k, v in self.replica_map.items()},
                coordinator=self.location,
            )
        return super().handle_message(message)

    def _handle_shard_map_sync(self, message: Message) -> Reply:
        """An elastic topology change: replace the shard registry wholesale.

        The fleet's versioned :class:`~repro.core.shard_map.ShardMap` is the
        source of truth; the CA mirrors it.  Unlike the surgical
        promote-shard update, a sync ships the complete shard → owner
        assignment with its epoch, and a sync at or below the recorded
        epoch is acknowledged but ignored — last-writer-wins by version,
        never by arrival order.
        """
        epoch = int(message.require("epoch"))
        assignments = message.require("assignments")
        if epoch <= self.shard_map_epoch:
            return message.reply(applied=False, epoch=self.shard_map_epoch)
        rebuilt: Dict[str, List[int]] = {}
        for shard, host in assignments.items():
            rebuilt.setdefault(host, []).append(int(shard))
        for owned in rebuilt.values():
            owned.sort()
        self.shard_map = rebuilt
        self.shard_map_epoch = epoch
        self.context.transport.event_log.record(
            self.now, "coordinator.shard-map-synced", self.location, self.location,
            epoch=epoch, shards=len(assignments), owners=sorted(rebuilt),
        )
        return message.reply(applied=True, epoch=epoch)

    def _handle_promote_shard(self, message: Message) -> Reply:
        """A promotion failover: move a dead primary's shards to its replica holder.

        The shard map is updated *in place* — the promoted host simply takes
        over the listed shard ids, no consumer re-registers — and the dead
        primary's retired replication stream leaves the replica map (the
        promoted server's own replication now carries the adopted state).
        """
        dead = message.require("dead")
        promoted = message.require("promoted")
        shards = [int(shard) for shard in message.require("shards")]
        for host in (dead, promoted):
            if host not in self.buyer_servers:
                return Reply.failure(
                    message.kind,
                    f"unknown buyer server {host!r} in shard promotion",
                )
        remaining = [
            shard for shard in self.shard_map.get(dead, []) if shard not in shards
        ]
        if remaining:
            self.shard_map[dead] = remaining
        else:
            self.shard_map.pop(dead, None)
        owned = self.shard_map.setdefault(promoted, [])
        for shard in shards:
            if shard not in owned:
                owned.append(shard)
        owned.sort()
        self.replica_map.pop(dead, None)
        self.context.transport.event_log.record(
            self.now, "coordinator.shard-promoted", promoted, self.location,
            dead=dead, shards=shards,
        )
        return message.reply(promoted=promoted, shards=shards)

    def _handle_register_replication(self, message: Message) -> Reply:
        primary = message.require("primary")
        replicas = list(message.require("replicas"))
        if primary not in self.buyer_servers:
            return Reply.failure(
                message.kind,
                f"unknown buyer server {primary!r} cannot register replication",
            )
        unknown = [host for host in replicas if host not in self.buyer_servers]
        if unknown:
            return Reply.failure(
                message.kind,
                f"replica hosts {unknown!r} are not registered buyer servers",
            )
        self.replica_map[primary] = replicas
        self.context.transport.event_log.record(
            self.now, "coordinator.replication-registered", primary, self.location,
            replicas=replicas,
        )
        return message.reply(registered=True, primary=primary, replicas=replicas)

    def _handle_register(self, message: Message) -> Reply:
        role = message.require("role")
        host = message.require("host")
        registry = {
            "marketplace": self.marketplaces,
            "seller": self.seller_servers,
            "buyer-server": self.buyer_servers,
        }.get(role)
        if registry is None:
            return Reply.failure(message.kind, f"unknown server role {role!r}")
        shard_id = message.payload.get("shard_id")
        if shard_id is not None and role != "buyer-server":
            # Validate before touching the registry so a refused registration
            # leaves no trace in the domain state.
            return Reply.failure(
                message.kind,
                f"only buyer servers own shards, not {role!r}",
            )
        if host not in registry:
            registry.append(host)
        if shard_id is not None:
            owned = self.shard_map.setdefault(host, [])
            if int(shard_id) not in owned:
                owned.append(int(shard_id))
                owned.sort()
        self.context.transport.event_log.record(
            self.now, "coordinator.server-registered", host, self.location, role=role,
        )
        return message.reply(registered=True, role=role)

    def _handle_create_buyer_server(self, message: Message) -> Reply:
        """Figure 4.1 steps 2-3: create a BSMA and dispatch it to the requester."""
        # Imported here to avoid a circular import at module load time: the
        # buyer agents module needs the message kinds defined above it.
        from repro.ecommerce.buyer_agents import BuyerServerManagementAgent

        target_host = message.require("host")
        if not self.context.directory.has_context(target_host):
            raise RegistrationError(
                f"cannot create a buyer agent server on unknown host {target_host!r}"
            )
        log = self.context.transport.event_log
        log.record(self.now, "creation.request-buyer-server", target_host, self.location)

        bsma = self.context.create(
            BuyerServerManagementAgent,
            owner=target_host,
            home=target_host,
            coordinator_id=self.aglet_id,
        )
        log.record(self.now, "creation.bsma-created", self.location, bsma.aglet_id)

        self.context.dispatch(bsma, target_host)
        log.record(self.now, "creation.bsma-dispatched", self.location, target_host,
                   bsma_id=bsma.aglet_id)

        if target_host not in self.buyer_servers:
            self.buyer_servers.append(target_host)
        return message.reply(bsma_id=bsma.aglet_id)


class CoordinatorServer:
    """The coordinator server: one per EC domain."""

    def __init__(self, context: AgletContext) -> None:
        self.context = context
        self.name = context.host_name
        context.host.attach_service("coordinator-server", self)
        self.agent = context.create(CoordinatorAgent, owner=self.name)

    def register_server(
        self, role: str, host: str, shard_id: Optional[int] = None
    ) -> None:
        """Register a marketplace / seller / buyer server with the CA.

        Buyer servers running in multi-server (fleet) mode pass their
        ``shard_id`` so the CA's domain registry records which partition of
        the consumer community each server owns.
        """
        payload = {"role": role, "host": host, "sender": self.name}
        if shard_id is not None:
            payload["shard_id"] = shard_id
        reply = self.agent.proxy.request(MessageKinds.SERVER_REGISTER, **payload)
        if not reply.ok:
            raise RegistrationError(reply.error)

    def register_replication(self, primary: str, replicas: List[str]) -> None:
        """Record that ``primary`` streams its UserDB mutations to ``replicas``.

        Every named host must already be a registered buyer server; the CA's
        topology answer then carries the ``replica_map`` alongside the shard
        map, so any domain participant can learn where a crashed server's
        consumers are recoverable from.
        """
        reply = self.agent.proxy.request(
            "platform.register-replication",
            sender=self.name,
            primary=primary,
            replicas=list(replicas),
        )
        if not reply.ok:
            raise RegistrationError(reply.error)

    def promote_shard(
        self, dead: str, promoted: str, shards: List[int]
    ) -> None:
        """Record a promotion failover: ``promoted`` takes over ``dead``'s shards.

        The CA updates its shard map in place (the promoted host now answers
        for the listed shards) and retires the dead primary's replication
        entry — the domain registry keeps telling the truth about where each
        partition of the consumer community is served from.
        """
        reply = self.agent.proxy.request(
            "platform.promote-shard",
            sender=self.name,
            dead=dead,
            promoted=promoted,
            shards=list(shards),
        )
        if not reply.ok:
            raise RegistrationError(reply.error)

    def sync_shard_map(self, epoch: int, assignments: Dict[int, str]) -> None:
        """Mirror the fleet's versioned shard map into the CA registry.

        Called by the fleet after every *elastic* epoch bump (handback,
        split, scale-in transfer) with the complete shard → owner
        assignment; promotion failovers keep their dedicated
        :meth:`promote_shard` message.  Stale epochs are ignored by the CA,
        so replays cannot regress the registry.
        """
        reply = self.agent.proxy.request(
            "platform.shard-map",
            sender=self.name,
            epoch=epoch,
            assignments={int(shard): host for shard, host in assignments.items()},
        )
        if not reply.ok:
            raise RegistrationError(reply.error)

    def topology(self) -> Dict[str, object]:
        """The CA's view of the EC domain."""
        reply = self.agent.proxy.request("platform.topology", sender=self.name)
        return dict(reply.payload)
