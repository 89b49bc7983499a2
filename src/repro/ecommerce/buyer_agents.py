"""The functional agents of the Buyer Agent Server (Figure 3.2).

Five agent types cooperate, purely through message passing (§4.1 principle 6),
to provide the consumer recommendation mechanism:

- :class:`BuyerServerManagementAgent` (BSMA) — the manager: user registration
  and login, the lifecycle of every other agent, and the orchestration of the
  Figure 4.2 / 4.3 workflows, including deactivating a BRA while its MBA is
  away and authenticating the MBA when it returns (§4.1 principles 2-3).
- :class:`HttpAgent` (HttpA) — the web interface; translates consumer requests
  into agent messages and back.
- :class:`ProfileAgent` (PA) — creates and updates consumer profiles in UserDB
  using the Figure 4.5 learning rule; one per recommendation mechanism.
- :class:`BuyerRecommendAgent` (BRA) — one per online consumer: loads the
  profile, prepares mobile-agent tasks, reports behaviour to the PA and
  generates recommendation information with the similarity algorithm.
- :class:`MobileBuyerAgent` (MBA) — created by the BRA per task; migrates to
  the marketplaces, executes the assigned query / buy / auction / negotiation
  and migrates back with the results.

Agents never keep direct references to shared services (databases, the
recommendation engine): they fetch them from their host's service registry per
message, which keeps their own state serialisable for migration and
deactivation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import (
    AuthenticationError,
    DispatchError,
    ECommerceError,
    LoginError,
    MarketplaceError,
    NetworkError,
    TransactionError,
    UnknownUserError,
)
from repro.agents.aglet import Aglet
from repro.agents.messages import Message, MessageKinds, Reply
from repro.agents.security import AuthenticationService
from repro.core.items import Item
from repro.core.profile import Profile
from repro.core.profile_learning import FeedbackEvent
from repro.core.ratings import Interaction, InteractionKind

__all__ = [
    "BuyerServerManagementAgent",
    "HttpAgent",
    "ProfileAgent",
    "BuyerRecommendAgent",
    "MobileBuyerAgent",
]


# ---------------------------------------------------------------------------
# Profile Agent (PA)
# ---------------------------------------------------------------------------


class ProfileAgent(Aglet):
    """Creates and updates consumer profiles (one PA per mechanism)."""

    agent_type = "PA"

    def on_creation(self) -> None:
        self.updates_applied = 0

    def _user_db(self):
        return self.context.host.service("user-db")

    def _learner(self):
        return self.context.host.service("profile-learner")

    def handle_message(self, message: Message) -> Reply:
        if message.kind == MessageKinds.PROFILE_LOAD:
            return self._handle_load(message)
        if message.kind == MessageKinds.BEHAVIOUR_REPORT:
            return self._handle_behaviour(message)
        return super().handle_message(message)

    def _handle_load(self, message: Message) -> Reply:
        user_id = message.require("user_id")
        try:
            profile = self._user_db().profile(user_id)
        except UnknownUserError as exc:
            return Reply.failure(message.kind, str(exc))
        return message.reply(profile=profile.to_dict())

    def _handle_behaviour(self, message: Message) -> Reply:
        """Apply one behaviour report: learning rule + observational rating."""
        user_id = message.require("user_id")
        item: Item = message.require("item")
        kind = InteractionKind(message.require("kind"))
        timestamp = float(message.argument("timestamp", self.now))
        rating = message.argument("rating")
        marketplace = message.argument("marketplace", "")

        user_db = self._user_db()
        try:
            profile = user_db.profile(user_id)
        except UnknownUserError as exc:
            return Reply.failure(message.kind, str(exc))

        event = FeedbackEvent(
            user_id=user_id, item=item, kind=kind, timestamp=timestamp, rating=rating
        )
        self._learner().apply(profile, event)
        user_db.record_interaction(
            Interaction(
                user_id=user_id,
                item_id=item.item_id,
                kind=kind,
                timestamp=timestamp,
                value=float(rating) if rating is not None else 0.0,
                category=item.category,
                marketplace=marketplace,
            )
        )
        self.updates_applied += 1
        return message.reply(profile_events=profile.feedback_events)


# ---------------------------------------------------------------------------
# Buyer Recommend Agent (BRA)
# ---------------------------------------------------------------------------


class BuyerRecommendAgent(Aglet):
    """Represents one online consumer inside the recommendation mechanism."""

    agent_type = "BRA"

    def on_creation(self, user_id: str = "") -> None:
        if not user_id:
            raise LoginError("a BRA must be created for a specific consumer")
        self.user_id = user_id
        self.profile_snapshot: Dict[str, Any] = {}
        self.tasks_prepared = 0
        self.recommendations_generated = 0

    # -- host services -----------------------------------------------------------

    def _profile_agent(self):
        agents = self.context.active_aglets("PA")
        if not agents:
            raise ECommerceError("no profile agent is running on this buyer agent server")
        return agents[0]

    def _recommendation_service(self):
        return self.context.host.service("recommendation-service")

    def _user_db(self):
        return self.context.host.service("user-db")

    def _log(self, category: str, target: str = "", **payload: Any) -> None:
        self.context.transport.event_log.record(
            self.now, category, self.aglet_id, target or self.location, **payload
        )

    # -- message handling -----------------------------------------------------------

    #: Message kind → name of the method that handles it.
    _HANDLERS = {
        "bra.load-profile": "_handle_load_profile",
        "bra.prepare-task": "_handle_prepare_task",
        "bra.complete-query": "_handle_complete_query",
        "bra.complete-trade": "_handle_complete_trade",
        MessageKinds.RECOMMENDATIONS: "_handle_recommendations",
        MessageKinds.RATE: "_handle_rate",
        MessageKinds.CROSS_SELL: "_handle_cross_sell",
    }

    def handle_message(self, message: Message) -> Reply:
        handler = self._HANDLERS.get(message.kind)
        if handler is None:
            return super().handle_message(message)
        return getattr(self, handler)(message)

    def _handle_load_profile(self, message: Message) -> Reply:
        """Figure 4.2: load the consumer's profile from UserDB via the PA."""
        reply = self.send_to(
            self._profile_agent(), MessageKinds.PROFILE_LOAD, user_id=self.user_id
        )
        if not reply.ok:
            return Reply.failure(message.kind, reply.error)
        self.profile_snapshot = reply.require("profile")
        self._log("workflow.profile-loaded")
        return message.reply(loaded=True, categories=len(self.profile_snapshot.get("categories", {})))

    def _handle_prepare_task(self, message: Message) -> Reply:
        """Create an MBA for a query / buy / auction / negotiation task."""
        task = message.require("task")
        params = dict(message.argument("params", {}))
        itinerary = list(message.require("itinerary"))
        if not itinerary:
            return Reply.failure(message.kind, "task itinerary is empty")

        mba = self.context.create(
            MobileBuyerAgent,
            owner=self.user_id,
            user_id=self.user_id,
            task=task,
            params=params,
            itinerary=itinerary,
            home=self.location,
        )
        # §4.1 principle 2: the MBA leaves home carrying a signed credential it
        # must present when it migrates back.
        credential = self.context.auth.issue(mba.aglet_id, owner=self.user_id, now=self.now)
        mba.credential = credential
        self.tasks_prepared += 1
        self._log("workflow.mba-created", mba.aglet_id, task=task)
        return message.reply(mba_id=mba.aglet_id, itinerary=itinerary, task=task)

    def _handle_complete_query(self, message: Message) -> Reply:
        """Figure 4.2 completion: record behaviour + generate recommendations."""
        results: List[Dict[str, Any]] = list(message.argument("results", []))
        keyword = message.argument("keyword", "")
        report_top = int(message.argument("report_top", 3))

        # Record the query behaviour on the most relevant results so the
        # profile learns what the consumer is looking at (§4.1 principle 4).
        profile_agent = self._profile_agent()
        for entry in results[:report_top]:
            self.send_to(
                profile_agent,
                MessageKinds.BEHAVIOUR_REPORT,
                user_id=self.user_id,
                item=entry["item"],
                kind=InteractionKind.QUERY.value,
                timestamp=self.now,
                marketplace=entry.get("marketplace", ""),
            )
        if results:
            self._log("workflow.behaviour-reported", kind="query", count=min(report_top, len(results)))

        service = self._recommendation_service()
        query_items = [entry["item"] for entry in results]
        recommendations = service.recommend_for_query(self.user_id, query_items)
        self.recommendations_generated += 1
        self._log("workflow.recommendations-generated", count=len(recommendations))
        return message.reply(
            results=results,
            recommendations=recommendations,
            keyword=keyword,
        )

    def _handle_complete_trade(self, message: Message) -> Reply:
        """Figure 4.3 completion: record the trade and update the profile."""
        item: Item = message.require("item")
        kind = InteractionKind(message.require("kind"))
        transaction = message.argument("transaction")
        marketplace = message.argument("marketplace", "")

        reply = self.send_to(
            self._profile_agent(),
            MessageKinds.BEHAVIOUR_REPORT,
            user_id=self.user_id,
            item=item,
            kind=kind.value,
            timestamp=self.now,
            marketplace=marketplace,
        )
        if not reply.ok:
            return Reply.failure(message.kind, reply.error)
        self._log("workflow.behaviour-reported", kind=kind.value, item_id=item.item_id)

        if transaction is not None:
            self._user_db().record_transaction(transaction)
            self._log("workflow.transaction-recorded", item_id=item.item_id,
                      price=transaction.price)

        service = self._recommendation_service()
        recommendations = service.recommend(self.user_id, k=5, category=item.category)
        self.recommendations_generated += 1
        self._log("workflow.recommendations-generated", count=len(recommendations))
        return message.reply(transaction=transaction, recommendations=recommendations)

    def _handle_recommendations(self, message: Message) -> Reply:
        """Stand-alone recommendation request (no marketplace round trip)."""
        k = int(message.argument("k", 10))
        category = message.argument("category")
        service = self._recommendation_service()
        recommendations = service.recommend(self.user_id, k=k, category=category)
        self.recommendations_generated += 1
        self._log("workflow.recommendations-generated", count=len(recommendations))
        return message.reply(recommendations=recommendations)

    def _handle_rate(self, message: Message) -> Reply:
        """Explicit rating of merchandise; fed to the PA as a RATE behaviour."""
        item: Item = message.require("item")
        rating = float(message.require("rating"))
        if not 0.0 <= rating <= 5.0:
            return Reply.failure(message.kind, f"rating must be in [0, 5], got {rating}")
        reply = self.send_to(
            self._profile_agent(),
            MessageKinds.BEHAVIOUR_REPORT,
            user_id=self.user_id,
            item=item,
            kind=InteractionKind.RATE.value,
            timestamp=self.now,
            rating=rating,
        )
        if not reply.ok:
            return Reply.failure(message.kind, reply.error)
        self._log("workflow.behaviour-reported", kind="rate", item_id=item.item_id,
                  rating=rating)
        return message.reply(rating=rating, item_id=item.item_id)

    def _handle_cross_sell(self, message: Message) -> Reply:
        """Tied-sale suggestions for the consumer's basket or purchase history."""
        k = int(message.argument("k", 5))
        category = message.argument("category")
        basket = message.argument("basket")
        service = self._recommendation_service()
        recommendations = service.cross_sell_for(
            self.user_id, k=k, category=category, basket=basket
        )
        self.recommendations_generated += 1
        self._log("workflow.recommendations-generated", count=len(recommendations),
                  kind="cross-sell")
        return message.reply(recommendations=recommendations)


# ---------------------------------------------------------------------------
# Mobile Buyer Agent (MBA)
# ---------------------------------------------------------------------------


class MobileBuyerAgent(Aglet):
    """Migrates to marketplaces and executes the task its BRA assigned."""

    agent_type = "MBA"

    def on_creation(
        self,
        user_id: str = "",
        task: str = "query",
        params: Optional[Dict[str, Any]] = None,
        itinerary: Optional[List[str]] = None,
        home: str = "",
    ) -> None:
        self.user_id = user_id
        self.task = task
        self.params = dict(params or {})
        self.itinerary = list(itinerary or [])
        self.home = home or self.location
        self.visited: List[str] = []
        self.skipped: List[str] = []
        self.results: List[Dict[str, Any]] = []
        self.transaction = None
        self.outcome: Dict[str, Any] = {}
        self.credential = None

    # -- marketplace interaction -------------------------------------------------

    def _market_agent(self):
        agents = self.context.active_aglets("MarketAgent")
        if not agents:
            raise MarketplaceError(
                f"MBA {self.aglet_id} is on {self.location!r} which runs no marketplace agent"
            )
        return agents[0]

    def _log(self, category: str, **payload: Any) -> None:
        self.context.transport.event_log.record(
            self.now, category, self.aglet_id, self.location, **payload
        )

    def _keep_trade(self, reply: Reply) -> None:
        """Keep a trade's reply for the trip home (``transaction`` is the one in ``outcome``)."""
        self.outcome = dict(reply.payload, ok=reply.ok, error=reply.error)
        if reply.ok:
            self.transaction = reply.value("transaction")

    def execute_here(self) -> None:
        """Execute the assigned task at the current marketplace."""
        market = self._market_agent()
        if self.task == "query":
            reply = self.send_to(
                market,
                MessageKinds.MARKET_QUERY,
                keyword=self.params.get("keyword", ""),
                category=self.params.get("category"),
            )
            if reply.ok:
                self.results.extend(reply.value("results", []))
            self._log("workflow.marketplace-queried",
                      found=len(reply.value("results", [])) if reply.ok else 0)
        elif self.task == "buy":
            reply = self.send_to(
                market,
                MessageKinds.MARKET_BUY,
                item_id=self.params["item_id"],
                user_id=self.user_id,
            )
            self._keep_trade(reply)
            self._log("workflow.trade-executed", task="buy", ok=reply.ok)
        elif self.task == "auction":
            reply = self.send_to(
                market,
                MessageKinds.MARKET_AUCTION_BID,
                item_id=self.params["item_id"],
                user_id=self.user_id,
                max_price=self.params["max_price"],
            )
            self._keep_trade(reply)
            self._log("workflow.trade-executed", task="auction", ok=reply.ok,
                      won=bool(reply.value("won", False)))
        elif self.task == "negotiate":
            reply = self.send_to(
                market,
                MessageKinds.MARKET_NEGOTIATE,
                item_id=self.params["item_id"],
                user_id=self.user_id,
                max_price=self.params["max_price"],
            )
            self._keep_trade(reply)
            self._log("workflow.trade-executed", task="negotiate", ok=reply.ok,
                      agreed=bool(reply.value("agreed", False)))
        else:
            raise ECommerceError(f"MBA {self.aglet_id} has an unknown task {self.task!r}")
        self.visited.append(self.location)

    # -- itinerary control -------------------------------------------------------

    def on_arrival(self, origin: str) -> None:
        if self.location == self.home:
            self._log("workflow.mba-returned", origin=origin)
            return
        self.execute_here()
        remaining = [
            host for host in self.itinerary
            if host not in self.visited and host not in self.skipped
        ]
        # Purchases stop at the first successful transaction; queries visit
        # every marketplace on the itinerary (capability claim CAP-2).
        if self.task != "query" and self.transaction is not None:
            remaining = []
        # Mobile agents are "robust and fault-tolerant" (§1): a marketplace
        # that became unreachable mid-itinerary is skipped, not fatal.
        while remaining:
            next_host = remaining.pop(0)
            try:
                self.dispatch_to(next_host)
                return
            except (DispatchError, NetworkError):
                self.skipped.append(next_host)
                self._log("workflow.marketplace-skipped", skipped=next_host)
        self.dispatch_to(self.home)

    # -- authentication and result collection ------------------------------------------

    def handle_message(self, message: Message) -> Reply:
        if message.kind == MessageKinds.AUTHENTICATE:
            challenge = message.require("challenge")
            if self.credential is None:
                return Reply.failure(message.kind, "MBA carries no credential")
            response = AuthenticationService.respond(self.credential, challenge)
            return message.reply(credential=self.credential, response=response)
        if message.kind == "mba.collect-results":
            return message.reply(
                results=self.results,
                transaction=self.transaction,
                outcome=self.outcome,
                visited=self.visited,
                task=self.task,
            )
        return super().handle_message(message)


# ---------------------------------------------------------------------------
# Http Agent (HttpA)
# ---------------------------------------------------------------------------


class HttpAgent(Aglet):
    """Web interface: translates consumer requests into agent messages."""

    agent_type = "HttpA"

    #: Consumer-facing message kinds HttpA forwards to the BSMA.
    FORWARDED_KINDS = (
        MessageKinds.REGISTER,
        MessageKinds.LOGIN,
        MessageKinds.LOGOUT,
        MessageKinds.QUERY,
        MessageKinds.BUY,
        MessageKinds.AUCTION_JOIN,
        MessageKinds.NEGOTIATE,
        MessageKinds.RECOMMENDATIONS,
        MessageKinds.RATE,
        MessageKinds.HOTTEST,
        MessageKinds.CROSS_SELL,
    )

    def on_creation(self, bsma_id: str = "") -> None:
        self.bsma_id = bsma_id
        self.requests_served = 0

    def handle_message(self, message: Message) -> Reply:
        if message.kind not in self.FORWARDED_KINDS:
            return super().handle_message(message)
        log = self.context.transport.event_log
        log.record(self.now, "http.request-received", message.sender or "browser",
                   self.aglet_id, kind=message.kind)
        forwarded = Message(message.kind, dict(message.payload), sender=self.aglet_id)
        reply = self.context.send_message(self.bsma_id, forwarded)
        self.requests_served += 1
        log.record(self.now, "http.reply-sent", self.aglet_id,
                   message.sender or "browser", kind=message.kind, ok=reply.ok)
        return reply


# ---------------------------------------------------------------------------
# Buyer Server Management Agent (BSMA)
# ---------------------------------------------------------------------------


class BuyerServerManagementAgent(Aglet):
    """Manager of the buyer agent server and orchestrator of its workflows."""

    agent_type = "BSMA"

    def on_creation(self, home: str = "", coordinator_id: str = "") -> None:
        self.home = home
        self.coordinator_id = coordinator_id
        self.pa_id = ""
        self.httpa_id = ""
        self.bra_ids: Dict[str, str] = {}
        self.initialized = False

    # -- Figure 4.1: arrival on the buyer agent server host --------------------------

    def on_arrival(self, origin: str) -> None:
        if self.location != self.home:
            return
        self._initialize_buyer_server()

    def _initialize_buyer_server(self) -> None:
        """Figure 4.1 steps 4-6: create PA, HttpA and initialise the databases."""
        if self.initialized:
            return
        log = self.context.transport.event_log
        host = self.context.host

        # Step 6 prerequisites may already be attached by the BuyerAgentServer
        # wrapper; create them here otherwise so the protocol is self-contained.
        if not host.has_service("user-db"):
            from repro.ecommerce.databases import UserDB

            host.attach_service("user-db", UserDB())
        if not host.has_service("bsmdb"):
            from repro.ecommerce.databases import BSMDB

            host.attach_service("bsmdb", BSMDB())
        if not host.has_service("profile-learner"):
            from repro.core.profile_learning import ProfileLearner

            host.attach_service("profile-learner", ProfileLearner())
        log.record(self.now, "creation.databases-initialized", self.aglet_id, self.location)

        pa = self.context.create(ProfileAgent, owner=self.location)
        self.pa_id = pa.aglet_id
        log.record(self.now, "creation.pa-created", self.aglet_id, pa.aglet_id)

        httpa = self.context.create(HttpAgent, owner=self.location, bsma_id=self.aglet_id)
        self.httpa_id = httpa.aglet_id
        log.record(self.now, "creation.httpa-created", self.aglet_id, httpa.aglet_id)

        # Learn the platform topology from the coordinator and record it in BSMDB.
        if self.coordinator_id:
            reply = self.send_to(self.coordinator_id, "platform.topology")
            if reply.ok:
                bsmdb = host.service("bsmdb")
                bsmdb.set_coordinator(reply.value("coordinator", ""))
                for marketplace in reply.value("marketplaces", []):
                    bsmdb.add_marketplace(marketplace)
                for seller in reply.value("seller_servers", []):
                    bsmdb.add_seller_server(seller)
        self.initialized = True
        log.record(self.now, "creation.buyer-server-ready", self.aglet_id, self.location)

    # -- host services ------------------------------------------------------------------

    def _user_db(self):
        return self.context.host.service("user-db")

    def _bsmdb(self):
        return self.context.host.service("bsmdb")

    def _log(self, category: str, target: str = "", **payload: Any) -> None:
        self.context.transport.event_log.record(
            self.now, category, self.aglet_id, target or self.location, **payload
        )

    # -- message handling -----------------------------------------------------------------

    def handle_message(self, message: Message) -> Reply:
        handlers = {
            MessageKinds.REGISTER: self._handle_register,
            MessageKinds.LOGIN: self._handle_login,
            MessageKinds.LOGOUT: self._handle_logout,
            MessageKinds.QUERY: self._handle_query,
            MessageKinds.BUY: self._handle_trade,
            MessageKinds.AUCTION_JOIN: self._handle_trade,
            MessageKinds.NEGOTIATE: self._handle_trade,
            MessageKinds.RECOMMENDATIONS: self._handle_recommendations,
            MessageKinds.RATE: self._forward_to_bra,
            MessageKinds.CROSS_SELL: self._forward_to_bra,
            MessageKinds.HOTTEST: self._handle_hottest,
        }
        handler = handlers.get(message.kind)
        if handler is None:
            return super().handle_message(message)
        try:
            return handler(message)
        except (LoginError, UnknownUserError, ECommerceError, TransactionError,
                AuthenticationError) as exc:
            return Reply.failure(message.kind, str(exc))

    # -- registration / login / logout --------------------------------------------------------

    def _handle_register(self, message: Message) -> Reply:
        user_id = message.require("user_id")
        display_name = message.argument("display_name", user_id)
        record = self._user_db().register(user_id, display_name, timestamp=self.now)
        self._log("login.registered", user_id)
        return message.reply(user_id=record.user_id, registered_at=record.registered_at)

    def _handle_login(self, message: Message) -> Reply:
        """§4.1 principle 1: the BRA is created at login, not at registration."""
        user_id = message.require("user_id")
        user_db = self._user_db()
        if not user_db.is_registered(user_id):
            raise LoginError(f"user {user_id!r} must register before logging in")
        if user_id in self.bra_ids:
            raise LoginError(f"user {user_id!r} is already logged in")

        bra = self.context.create(BuyerRecommendAgent, owner=user_id, user_id=user_id)
        self.bra_ids[user_id] = bra.aglet_id
        user_db.record_login(user_id, self.now)
        self._bsmdb().record_bra_online(bra.aglet_id, user_id, self.now)
        self._log("login.bra-created", bra.aglet_id, user_id=user_id)

        reply = self.send_to(bra, "bra.load-profile")
        if not reply.ok:
            return Reply.failure(message.kind, reply.error)
        self._log("login.profile-loaded", bra.aglet_id, user_id=user_id)
        return message.reply(user_id=user_id, bra_id=bra.aglet_id)

    def _handle_logout(self, message: Message) -> Reply:
        """§4.1 principle 1: the BRA terminates at logout."""
        user_id = message.require("user_id")
        bra_id = self.bra_ids.pop(user_id, None)
        if bra_id is None:
            raise LoginError(f"user {user_id!r} is not logged in")
        if self.context.is_deactivated(bra_id):
            self.context.activate(bra_id)
        self.context.dispose(self.context.get_local(bra_id))
        self._bsmdb().record_bra_offline(user_id)
        self._log("login.bra-disposed", bra_id, user_id=user_id)
        return message.reply(user_id=user_id)

    # -- the BRA lifecycle helpers used by the workflows ------------------------------------------

    def _require_bra(self, user_id: str) -> str:
        if user_id not in self.bra_ids:
            raise LoginError(f"user {user_id!r} is not logged in")
        return self.bra_ids[user_id]

    def _active_bra(self, user_id: str):
        """The consumer's BRA, reactivated from storage when necessary."""
        bra_id = self._require_bra(user_id)
        if self.context.is_deactivated(bra_id):
            bra = self.context.activate(bra_id)
            self._bsmdb().record_bra_deactivated(user_id, False)
            self._log("workflow.bra-activated", bra_id, user_id=user_id)
            return bra
        return self.context.get_local(bra_id)

    def _deactivate_bra(self, user_id: str) -> None:
        bra_id = self._require_bra(user_id)
        if not self.context.is_deactivated(bra_id):
            self.context.deactivate(self.context.get_local(bra_id))
            self._bsmdb().record_bra_deactivated(user_id, True)
            self._log("workflow.bra-deactivated", bra_id, user_id=user_id)

    def _marketplaces(self) -> List[str]:
        marketplaces = self._bsmdb().marketplaces
        if not marketplaces:
            raise ECommerceError("no marketplaces are registered in BSMDB")
        return marketplaces

    def _run_mba_roundtrip(self, user_id: str, bra, task: str,
                           params: Dict[str, Any], itinerary: List[str]):
        """Shared Figure 4.2/4.3 core: prepare MBA, deactivate BRA, dispatch,
        authenticate on return, collect results, reactivate BRA."""
        # Marketplaces that are known to be down are dropped from the
        # itinerary up front (mobile-agent fault tolerance, §1), and so are
        # those this host cannot reach (a partition or a cut link) while
        # another one can be reached; an itinerary with nothing up is an
        # error the consumer must see, and one with nothing reachable fails
        # its first hop with the network's own error.
        network = self.context.transport.network
        up = [
            host for host in itinerary
            if network.is_host_up(host) and self.context.directory.has_context(host)
        ]
        reachable = [host for host in up if network.can_reach(self.location, host)] or up
        unreachable = [host for host in itinerary if host not in reachable]
        if unreachable:
            self._log("workflow.itinerary-filtered", task=task, skipped=unreachable)
        if not reachable:
            raise ECommerceError(
                f"none of the marketplaces {itinerary!r} is currently reachable"
            )
        itinerary = reachable

        prepare = self.send_to(
            bra, "bra.prepare-task", task=task, params=params, itinerary=itinerary
        )
        if not prepare.ok:
            raise ECommerceError(prepare.error)
        mba_id = prepare.require("mba_id")
        self._bsmdb().record_mba_dispatched(
            mba_id, owner=user_id, bra_id=bra.aglet_id, task=task,
            itinerary=itinerary, timestamp=self.now,
        )
        self._log("workflow.mba-recorded", mba_id, task=task)

        # §4.1 principle 3: the BRA is stored away while its MBA travels.
        self._deactivate_bra(user_id)

        mba = self.context.get_local(mba_id)
        self._log("workflow.mba-dispatched", mba_id, first_stop=itinerary[0])
        # The dispatch call returns once the MBA has worked through its whole
        # itinerary and migrated back home (discrete-event simulation).
        self.context.dispatch(mba, itinerary[0])

        mba = self.context.get_local(mba_id)

        # §4.1 principle 2: authenticate the returning MBA before trusting it.
        challenge = self.context.auth.challenge()
        auth_reply = self.send_to(mba, MessageKinds.AUTHENTICATE, challenge=challenge)
        if not auth_reply.ok:
            raise AuthenticationError(auth_reply.error)
        self.context.auth.verify_response(
            auth_reply.require("credential"), challenge, auth_reply.require("response"),
            now=self.now,
        )
        self._bsmdb().record_mba_returned(mba_id, self.now, authenticated=True)
        self._log("workflow.mba-authenticated", mba_id)

        collected = self.send_to(mba, "mba.collect-results")
        self.context.dispose(mba)

        bra = self._active_bra(user_id)
        return bra, collected

    # -- Figure 4.2: merchandise query ---------------------------------------------------------------

    def _handle_query(self, message: Message) -> Reply:
        user_id = message.require("user_id")
        keyword = message.argument("keyword", "")
        category = message.argument("category")
        self._log("workflow.query-received", user_id, keyword=keyword)

        bra = self._active_bra(user_id)
        marketplaces = list(message.argument("marketplaces", [])) or self._marketplaces()
        params = {"keyword": keyword, "category": category}
        bra, collected = self._run_mba_roundtrip(user_id, bra, "query", params, marketplaces)

        completion = self.send_to(
            bra, "bra.complete-query",
            results=collected.value("results", []), keyword=keyword,
        )
        if not completion.ok:
            return Reply.failure(message.kind, completion.error)
        self._log("workflow.query-completed", user_id,
                  results=len(completion.value("results", [])))
        return message.reply(
            results=completion.value("results", []),
            recommendations=completion.value("recommendations", []),
            marketplaces_visited=collected.value("visited", []),
        )

    # -- Figure 4.3: buy / auction / negotiation --------------------------------------------------------

    _TRADE_TASKS = {
        MessageKinds.BUY: ("buy", InteractionKind.BUY),
        MessageKinds.AUCTION_JOIN: ("auction", InteractionKind.AUCTION_BID),
        MessageKinds.NEGOTIATE: ("negotiate", InteractionKind.NEGOTIATE),
    }

    def _handle_trade(self, message: Message) -> Reply:
        user_id = message.require("user_id")
        item: Item = message.require("item")
        marketplace = message.argument("marketplace")
        task, behaviour = self._TRADE_TASKS[message.kind]
        self._log("workflow.trade-received", user_id, task=task, item_id=item.item_id)

        bra = self._active_bra(user_id)
        itinerary = [marketplace] if marketplace else self._marketplaces()[:1]
        params: Dict[str, Any] = {"item_id": item.item_id}
        if message.argument("max_price") is not None:
            params["max_price"] = float(message.require("max_price"))
        elif task in ("auction", "negotiate"):
            raise ECommerceError(f"a {task} task needs a max_price")

        bra, collected = self._run_mba_roundtrip(user_id, bra, task, params, itinerary)
        outcome = collected.value("outcome", {})
        transaction = collected.value("transaction")

        completion = self.send_to(
            bra, "bra.complete-trade",
            item=item, kind=behaviour.value, transaction=transaction,
            marketplace=itinerary[0],
        )
        if not completion.ok:
            return Reply.failure(message.kind, completion.error)
        self._log("workflow.trade-completed", user_id, task=task,
                  succeeded=transaction is not None)
        return message.reply(
            succeeded=transaction is not None,
            transaction=transaction,
            outcome=outcome,
            recommendations=completion.value("recommendations", []),
        )

    # -- stand-alone recommendations --------------------------------------------------------------------

    def _handle_recommendations(self, message: Message) -> Reply:
        user_id = message.require("user_id")
        bra = self._active_bra(user_id)
        reply = self.send_to(
            bra, MessageKinds.RECOMMENDATIONS,
            k=message.argument("k", 10), category=message.argument("category"),
        )
        return reply

    def _forward_to_bra(self, message: Message) -> Reply:
        """Forward a consumer request to their BRA unchanged (rate, cross-sell)."""
        user_id = message.require("user_id")
        bra = self._active_bra(user_id)
        forwarded = Message(message.kind, dict(message.payload), sender=self.aglet_id)
        return self.context.send_message(bra, forwarded)

    def _handle_hottest(self, message: Message) -> Reply:
        """§5.2 future-work item 2: the weekly hottest merchandise list."""
        service = self.context.host.service("recommendation-service")
        recommendations = service.weekly_hottest_list(
            k=int(message.argument("k", 10)), category=message.argument("category"),
        )
        return message.reply(recommendations=recommendations)
