"""Naming and location services for the agent runtime.

The directory answers two questions the runtime keeps asking:

1. *Which context runs on host X?*  (host name → :class:`AgletContext`)
2. *Where is agent Y right now?*    (agent id → host name)

The paper's BSMDB plays this role for the buyer agent server ("the on-line
BRA information and the corresponding MBA that migrate to marketplace will
also be recorded in BSMDB"); the directory is the platform-wide equivalent
that lets proxies stay location-transparent while agents migrate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import AgentNotFoundError, HostUnreachableError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.agents.context import AgletContext

__all__ = ["ContextDirectory"]


class ContextDirectory:
    """Registry of contexts (one per host) and current agent locations."""

    def __init__(self) -> None:
        self._contexts: Dict[str, "AgletContext"] = {}
        self._locations: Dict[str, str] = {}

    # -- contexts -----------------------------------------------------------

    def register_context(self, context: "AgletContext") -> None:
        self._contexts[context.host_name] = context

    def context_for(self, host_name: str) -> "AgletContext":
        if host_name not in self._contexts:
            raise HostUnreachableError(f"no agent context registered on host {host_name!r}")
        return self._contexts[host_name]

    def has_context(self, host_name: str) -> bool:
        return host_name in self._contexts

    def contexts(self) -> List["AgletContext"]:
        return [self._contexts[name] for name in sorted(self._contexts)]

    # -- agent locations ----------------------------------------------------

    def record_location(self, agent_id: str, host_name: str) -> None:
        self._locations[agent_id] = host_name

    def forget(self, agent_id: str) -> None:
        self._locations.pop(agent_id, None)

    def locate(self, agent_id: str) -> str:
        if agent_id not in self._locations:
            raise AgentNotFoundError(f"agent {agent_id!r} has no known location")
        return self._locations[agent_id]

    def knows(self, agent_id: str) -> bool:
        return agent_id in self._locations

    def agents_on(self, host_name: str) -> List[str]:
        return sorted(
            agent_id for agent_id, host in self._locations.items() if host == host_name
        )
