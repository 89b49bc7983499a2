"""The :class:`Aglet` base class.

An aglet is an autonomous object hosted by an :class:`AgletContext`.  Its
observable behaviour is defined by overriding lifecycle callbacks and
``handle_message``; everything else (creation, migration, deactivation,
message routing) is handled by the context.

The callback vocabulary mirrors IBM Aglets:

============================  =================================================
Callback                      Called when
============================  =================================================
``on_creation(**kwargs)``     the aglet is created (once, on its origin host)
``on_clone(original)``        a clone has been created from ``original``
``on_dispatching(dest)``      just before the aglet leaves its current host
``on_arrival(origin)``        just after the aglet arrives on a new host
``on_reverting(dest)``        just before a retraction pulls the aglet home
``on_deactivating()``         just before state capture for deactivation
``on_activation()``           just after reactivation from storage
``on_disposing()``            just before the aglet is destroyed
``handle_message(message)``   a message addressed to the aglet arrives
============================  =================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.errors import AgentLifecycleError, MessageDeliveryError
from repro.agents.lifecycle import AgletInfo, AgletState
from repro.agents.messages import Message, Reply

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.agents.context import AgletContext
    from repro.agents.proxy import AgletProxy

__all__ = ["Aglet"]


class Aglet:
    """Base class for every agent in the system.

    Subclasses override the lifecycle callbacks they care about and
    ``handle_message``.  Instance attributes set in ``on_creation`` travel
    with the aglet when it migrates or is deactivated.
    """

    #: Human-readable agent type used in ids and the directory; subclasses
    #: override it (``"BRA"``, ``"MBA"``, ``"BSMA"`` ...).
    agent_type: str = "Aglet"

    def __init__(self) -> None:
        self._context: Optional["AgletContext"] = None
        self._proxy: Optional["AgletProxy"] = None
        self._info: Optional[AgletInfo] = None

    # -- runtime bindings ----------------------------------------------------

    def bind(self, context: "AgletContext", info: AgletInfo, proxy: "AgletProxy") -> None:
        """Bind the aglet to its hosting context (called by the runtime)."""
        self._context = context
        self._info = info
        self._proxy = proxy

    def unbind(self) -> None:
        """Detach the aglet from its context (migration / deactivation)."""
        self._context = None

    @property
    def context(self) -> "AgletContext":
        if self._context is None:
            raise AgentLifecycleError(
                f"aglet {self.aglet_id} is not bound to a context (deactivated or in transit)"
            )
        return self._context

    @property
    def proxy(self) -> "AgletProxy":
        if self._proxy is None:
            raise AgentLifecycleError("aglet has not been created through a context")
        return self._proxy

    @property
    def info(self) -> AgletInfo:
        if self._info is None:
            raise AgentLifecycleError("aglet has not been created through a context")
        return self._info

    @property
    def aglet_id(self) -> str:
        return self.info.aglet_id

    @property
    def state(self) -> AgletState:
        return self.info.state

    @property
    def location(self) -> str:
        """Name of the host currently running this aglet."""
        return self.info.location

    @property
    def owner(self) -> str:
        return self.info.owner

    @property
    def now(self) -> float:
        """Current simulated time as seen from the hosting context."""
        return self.context.now

    # -- lifecycle callbacks (no-ops by default) ------------------------------

    def on_creation(self, **kwargs: Any) -> None:
        """Initialise agent state; called exactly once at creation time."""

    def on_clone(self, original: "Aglet") -> None:
        """Called on the *clone* right after cloning."""

    def on_dispatching(self, destination: str) -> None:
        """Called just before the aglet migrates to ``destination``."""

    def on_arrival(self, origin: str) -> None:
        """Called right after the aglet arrives from ``origin``."""

    def on_reverting(self, destination: str) -> None:
        """Called just before a retraction pulls the aglet back home."""

    def on_deactivating(self) -> None:
        """Called just before the aglet is serialized to storage."""

    def on_activation(self) -> None:
        """Called right after the aglet is restored from storage."""

    def on_disposing(self) -> None:
        """Called just before the aglet is destroyed."""

    # -- messaging -----------------------------------------------------------

    def handle_message(self, message: Message) -> Reply:
        """Handle one message; subclasses override.

        The default implementation rejects every message so protocol gaps are
        loud in tests rather than silently ignored.
        """
        return Reply.failure(
            message.kind,
            f"{type(self).__name__} does not handle message kind {message.kind!r}",
        )

    def send_to(self, target: Any, message_kind: str, **payload: Any) -> Reply:
        """Send a message to another agent and wait for its reply.

        ``target`` may be an :class:`AgletProxy`, an aglet id string, or an
        :class:`Aglet` instance.  Delivery is charged to the simulated network
        when the target lives on another host.  The parameter is named
        ``message_kind`` (not ``kind``) so payloads may carry their own
        ``kind`` argument.
        """
        message = Message(kind=message_kind, payload=payload, sender=self.aglet_id)
        return self.context.send_message(target, message)

    # -- convenience operations ----------------------------------------------

    def dispatch_to(self, destination: str) -> "AgletProxy":
        """Migrate this aglet to ``destination`` (a host name)."""
        return self.context.dispatch(self, destination)

    def deactivate(self) -> None:
        """Ask the hosting context to deactivate this aglet to storage."""
        self.context.deactivate(self)

    def dispose(self) -> None:
        """Destroy this aglet."""
        self.context.dispose(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        info = self._info
        if info is None:
            return f"{type(self).__name__}(unbound)"
        return f"{type(self).__name__}(id={info.aglet_id!r}, state={info.state.value})"
