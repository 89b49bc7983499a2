"""Typed messages exchanged between agents.

The paper's recommendation mechanism coordinates its functional agents purely
through message passing (§4.1 principle 6) and requires all MBAs to use the
same message type (§4.1 principle 5).  A :class:`Message` therefore carries a
``kind`` string — the message type — plus an arbitrary payload dictionary, and
every handled message produces a :class:`Reply`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["Message", "Reply", "MessageKinds"]


class MessageKinds:
    """Well-known message kinds used by the e-commerce platform.

    Centralizing the strings keeps the platform honest about §4.1 principle 5:
    every mobile buyer agent speaks the same message vocabulary.
    """

    # Buyer-side protocol (Figures 4.2 / 4.3)
    LOGIN = "buyer.login"
    LOGOUT = "buyer.logout"
    REGISTER = "buyer.register"
    QUERY = "buyer.query"
    BUY = "buyer.buy"
    AUCTION_JOIN = "buyer.auction.join"
    NEGOTIATE = "buyer.negotiate"
    RECOMMENDATIONS = "buyer.recommendations"
    RATE = "buyer.rate"
    HOTTEST = "buyer.hottest"
    CROSS_SELL = "buyer.cross-sell"
    BEHAVIOUR_REPORT = "profile.behaviour-report"
    PROFILE_UPDATE = "profile.update"
    PROFILE_LOAD = "profile.load"

    # Marketplace-side protocol
    MARKET_QUERY = "market.query"
    MARKET_BUY = "market.buy"
    MARKET_AUCTION_BID = "market.auction.bid"
    MARKET_AUCTION_OPEN = "market.auction.open"
    MARKET_NEGOTIATE = "market.negotiate"
    MARKET_CATALOG = "market.catalog"

    # Platform management protocol (Figure 4.1)
    SERVER_REGISTER = "platform.server-register"
    CREATE_BUYER_SERVER = "platform.create-buyer-server"
    AGENT_ARRIVED = "platform.agent-arrived"
    AGENT_RETURNED = "platform.agent-returned"
    AUTHENTICATE = "platform.authenticate"


@dataclass
class Message:
    """A message addressed to an agent.

    Attributes:
        kind: the message type (see :class:`MessageKinds`).
        payload: message arguments.
        sender: the aglet id or logical name of the sender.
    """

    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    sender: str = ""

    def argument(self, key: str, default: Any = None) -> Any:
        """Fetch one payload argument with a default."""
        return self.payload.get(key, default)

    def require(self, key: str) -> Any:
        """Fetch one payload argument, raising ``KeyError`` when it is absent."""
        if key not in self.payload:
            raise KeyError(f"message {self.kind!r} is missing required argument {key!r}")
        return self.payload[key]

    def reply(self, ok: bool = True, **payload: Any) -> "Reply":
        """Build a reply to this message."""
        return Reply(kind=self.kind, ok=ok, payload=payload)


@dataclass
class Reply:
    """The response produced by handling a :class:`Message`."""

    kind: str
    ok: bool = True
    payload: Dict[str, Any] = field(default_factory=dict)
    error: str = ""

    @classmethod
    def failure(cls, kind: str, error: str) -> "Reply":
        return cls(kind=kind, ok=False, payload={}, error=error)

    def value(self, key: str, default: Any = None) -> Any:
        return self.payload.get(key, default)

    def require(self, key: str) -> Any:
        if key not in self.payload:
            raise KeyError(f"reply to {self.kind!r} is missing value {key!r}")
        return self.payload[key]
