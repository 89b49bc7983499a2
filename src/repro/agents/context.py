"""The per-host aglet runtime (context).

An :class:`AgletContext` is the Python analogue of an Aglet server running on
one host.  It supports the full operation set the paper's mobile agent
platform layer promises (§3.1): creation, cloning, deletion (dispose) and
migration (dispatch/retract) of mobile agents, plus deactivation to storage
and reactivation — the operations BSMA applies to BRAs while their MBAs are
away (§4.1 principle 3).

State moves under the ownership rule of :mod:`repro.agents.serialization`:
``dispatch``, ``deactivate`` and ``clone`` capture (copy) once, and the
snapshot is handed to exactly one restore, which consumes it.

All inter-host traffic (messages to remote agents, migrations) is charged to
the simulated network through the shared :class:`Transport`, so workflow
latencies in the benchmarks reflect the number of network hops each figure's
protocol requires.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.errors import (
    AgentLifecycleError,
    AgentNotFoundError,
    DispatchError,
    MessageDeliveryError,
)
from repro.agents.aglet import Aglet
from repro.agents.directory import ContextDirectory
from repro.agents.lifecycle import AgletInfo, AgletState
from repro.agents.messages import Message, Reply
from repro.agents.proxy import AgletProxy
from repro.agents.serialization import capture_state, restore_state
from repro.agents.security import AuthenticationService
from repro.platform.host import Host
from repro.platform.transport import Transport

__all__ = ["AgletContext"]

#: Default payload size charged for a plain inter-agent message.
MESSAGE_PAYLOAD_BYTES = 256


class AgletContext:
    """Runtime hosting aglets on one simulated host."""

    def __init__(
        self,
        host: Host,
        transport: Transport,
        directory: ContextDirectory,
        auth: Optional[AuthenticationService] = None,
    ) -> None:
        self.host = host
        self.transport = transport
        self.directory = directory
        self.auth = auth if auth is not None else AuthenticationService(host.name)
        self._active: Dict[str, Aglet] = {}
        self._storage: Dict[str, Tuple[Type[Aglet], Dict[str, Any], AgletInfo, AgletProxy]] = {}
        # Per-context sequence: aglet ids embed the host name, so a local
        # counter still yields platform-unique ids while keeping whole runs
        # reproducible — a process-global counter would leak state between
        # same-seed platforms (id string lengths feed payload-size estimates,
        # and therefore the simulated clock).
        self._id_counter = itertools.count(1)
        directory.register_context(self)
        host.attach_service("aglet-context", self)

    # -- identity -------------------------------------------------------------

    @property
    def host_name(self) -> str:
        return self.host.name

    @property
    def now(self) -> float:
        return self.transport.scheduler.clock.now

    def _new_id(self, agent_type: str) -> str:
        return f"{agent_type}-{next(self._id_counter)}@{self.host_name}"

    # -- creation / cloning / disposal ----------------------------------------

    def create(self, aglet_class: Type[Aglet], owner: str = "", **kwargs: Any) -> Aglet:
        """Create an aglet of ``aglet_class`` on this host and return it.

        ``kwargs`` are passed to the aglet's ``on_creation`` callback.
        """
        aglet = aglet_class()
        info = AgletInfo(
            aglet_id=self._new_id(aglet_class.agent_type),
            agent_type=aglet_class.agent_type,
            owner=owner,
            created_at=self.now,
            state=AgletState.ACTIVE,
            location=self.host_name,
            origin=self.host_name,
        )
        proxy = AgletProxy(info.aglet_id, info.agent_type, self.directory)
        aglet.bind(self, info, proxy)
        self._active[info.aglet_id] = aglet
        self.directory.record_location(info.aglet_id, self.host_name)
        aglet.on_creation(**kwargs)
        self.transport.metrics.counter("agents.created").increment()
        self.transport.event_log.record(
            self.now, "agent.created", self.host_name, info.aglet_id,
            agent_type=info.agent_type, owner=owner,
        )
        return aglet

    def clone(self, aglet: Aglet) -> Aglet:
        """Create a clone of ``aglet`` on this host (same state, new identity)."""
        self._require_active(aglet)
        snapshot = capture_state(aglet)
        duplicate = type(aglet)()
        info = AgletInfo(
            aglet_id=self._new_id(aglet.info.agent_type),
            agent_type=aglet.info.agent_type,
            owner=aglet.info.owner,
            created_at=self.now,
            state=AgletState.ACTIVE,
            location=self.host_name,
            origin=self.host_name,
        )
        proxy = AgletProxy(info.aglet_id, info.agent_type, self.directory)
        duplicate.bind(self, info, proxy)
        restore_state(duplicate, snapshot)
        self._active[info.aglet_id] = duplicate
        self.directory.record_location(info.aglet_id, self.host_name)
        duplicate.on_clone(aglet)
        self.transport.metrics.counter("agents.cloned").increment()
        return duplicate

    def dispose(self, aglet: Aglet) -> None:
        """Destroy ``aglet``: it leaves the directory and cannot be used again."""
        self._require_active(aglet)
        aglet.on_disposing()
        aglet.info.transition(AgletState.DISPOSED)
        self._active.pop(aglet.aglet_id, None)
        self.directory.forget(aglet.aglet_id)
        aglet.unbind()
        self.transport.metrics.counter("agents.disposed").increment()
        self.transport.event_log.record(
            self.now, "agent.disposed", self.host_name, aglet.aglet_id,
        )

    # -- migration -------------------------------------------------------------

    def dispatch(self, aglet: Aglet, destination: str) -> AgletProxy:
        """Migrate ``aglet`` to ``destination`` and return its (unchanged) proxy."""
        self._require_active(aglet)
        if destination == self.host_name:
            return aglet.proxy
        if not self.directory.has_context(destination):
            raise DispatchError(f"no aglet context on destination host {destination!r}")

        aglet.on_dispatching(destination)
        aglet.info.transition(AgletState.IN_TRANSIT)
        snapshot = capture_state(aglet)
        payload = max(512, snapshot.payload_bytes)
        try:
            self.transport.deliver(
                self.host_name, destination, "agent-dispatch", payload_bytes=payload
            )
        except Exception:
            # Migration failed: the agent stays home and becomes active again.
            aglet.info.transition(AgletState.ACTIVE)
            raise

        self._active.pop(aglet.aglet_id, None)
        target = self.directory.context_for(destination)
        target._receive(aglet, snapshot, origin=self.host_name)
        self.transport.metrics.counter("agents.dispatched").increment()
        return aglet.proxy

    def _receive(self, aglet: Aglet, snapshot: Dict[str, Any], origin: str) -> None:
        """Install a migrating aglet arriving from ``origin``."""
        restore_state(aglet, snapshot)
        aglet.bind(self, aglet.info, aglet.proxy)
        aglet.info.transition(AgletState.ACTIVE)
        aglet.info.location = self.host_name
        aglet.info.hops += 1
        self._active[aglet.aglet_id] = aglet
        self.directory.record_location(aglet.aglet_id, self.host_name)
        aglet.on_arrival(origin)
        self.transport.event_log.record(
            self.now, "agent.arrived", origin, self.host_name, aglet_id=aglet.aglet_id,
        )

    def retract(self, aglet_id: str) -> Aglet:
        """Pull a previously dispatched aglet back to this host."""
        location = self.directory.locate(aglet_id)
        if location == self.host_name:
            return self.get_local(aglet_id)
        remote = self.directory.context_for(location)
        aglet = remote.get_local(aglet_id)
        aglet.on_reverting(self.host_name)
        remote.dispatch(aglet, self.host_name)
        return self.get_local(aglet_id)

    # -- deactivation ------------------------------------------------------------

    def deactivate(self, aglet: Aglet) -> None:
        """Serialize ``aglet`` to this context's storage (Aglet.deactivate())."""
        self._require_active(aglet)
        aglet.on_deactivating()
        snapshot = capture_state(aglet)
        aglet.info.transition(AgletState.DEACTIVATED)
        self._storage[aglet.aglet_id] = (type(aglet), snapshot, aglet.info, aglet.proxy)
        self._active.pop(aglet.aglet_id, None)
        aglet.unbind()
        self.transport.metrics.counter("agents.deactivated").increment()
        self.transport.event_log.record(
            self.now, "agent.deactivated", self.host_name, aglet.aglet_id,
        )

    def activate(self, aglet_id: str) -> Aglet:
        """Restore a deactivated aglet from storage (Aglet.activate())."""
        if aglet_id not in self._storage:
            raise AgentNotFoundError(
                f"aglet {aglet_id!r} is not deactivated on host {self.host_name!r}"
            )
        aglet_class, snapshot, info, proxy = self._storage.pop(aglet_id)
        aglet = aglet_class()
        aglet.bind(self, info, proxy)
        restore_state(aglet, snapshot)
        info.transition(AgletState.ACTIVE)
        info.location = self.host_name
        self._active[aglet_id] = aglet
        self.directory.record_location(aglet_id, self.host_name)
        aglet.on_activation()
        self.transport.metrics.counter("agents.activated").increment()
        self.transport.event_log.record(
            self.now, "agent.activated", self.host_name, aglet_id,
        )
        return aglet

    def is_deactivated(self, aglet_id: str) -> bool:
        return aglet_id in self._storage

    # -- messaging ----------------------------------------------------------------

    def deliver(self, aglet_id: str, message: Message, from_host: str = "") -> Reply:
        """Deliver ``message`` to a local aglet, charging the network if remote.

        ``from_host`` identifies the sending host; when it differs from this
        context's host the request and the reply each cost one network hop.
        """
        remote = bool(from_host) and from_host != self.host_name
        if remote:
            self.transport.deliver(
                from_host, self.host_name, "message", payload_bytes=MESSAGE_PAYLOAD_BYTES
            )
        if aglet_id in self._storage:
            raise MessageDeliveryError(
                f"aglet {aglet_id!r} is deactivated on {self.host_name!r}; "
                "activate it before sending messages"
            )
        if aglet_id not in self._active:
            raise AgentNotFoundError(
                f"aglet {aglet_id!r} is not active on host {self.host_name!r}"
            )
        aglet = self._active[aglet_id]
        aglet.info.messages_handled += 1
        self.transport.metrics.counter("messages.delivered").increment()
        reply = aglet.handle_message(message)
        if reply is None:
            reply = Reply(kind=message.kind, ok=True)
        if remote:
            self.transport.deliver(
                self.host_name, from_host, "message-reply", payload_bytes=MESSAGE_PAYLOAD_BYTES
            )
        return reply

    def send_message(self, target: Any, message: Message) -> Reply:
        """Send ``message`` to ``target`` (proxy, aglet id or aglet instance)."""
        aglet_id = self._resolve_target(target)
        location = self.directory.locate(aglet_id)
        destination = self.directory.context_for(location)
        return destination.deliver(aglet_id, message, from_host=self.host_name)

    @staticmethod
    def _resolve_target(target: Any) -> str:
        if isinstance(target, AgletProxy):
            return target.aglet_id
        if isinstance(target, Aglet):
            return target.aglet_id
        if isinstance(target, str):
            return target
        raise MessageDeliveryError(f"cannot address message target {target!r}")

    # -- introspection --------------------------------------------------------------

    def get_local(self, aglet_id: str) -> Aglet:
        """Return the locally active aglet with ``aglet_id``."""
        if aglet_id not in self._active:
            raise AgentNotFoundError(
                f"aglet {aglet_id!r} is not active on host {self.host_name!r}"
            )
        return self._active[aglet_id]

    def active_aglets(self, agent_type: Optional[str] = None) -> List[Aglet]:
        """All active aglets on this host, optionally filtered by type."""
        aglets = list(self._active.values())
        if agent_type is not None:
            aglets = [a for a in aglets if a.info.agent_type == agent_type]
        return aglets

    def active_count(self, agent_type: Optional[str] = None) -> int:
        return len(self.active_aglets(agent_type))

    def deactivated_ids(self) -> List[str]:
        return sorted(self._storage)

    # -- internal helpers -------------------------------------------------------------

    def _require_active(self, aglet: Aglet) -> None:
        if aglet.aglet_id not in self._active:
            raise AgentLifecycleError(
                f"aglet {aglet.aglet_id!r} is not active on host {self.host_name!r}"
            )
        if aglet.state is not AgletState.ACTIVE:
            raise AgentLifecycleError(
                f"aglet {aglet.aglet_id!r} is in state {aglet.state.value!r}, expected active"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AgletContext(host={self.host_name!r}, active={len(self._active)}, "
            f"deactivated={len(self._storage)})"
        )
