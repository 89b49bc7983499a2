"""Unit tests for the aglet runtime: contexts, proxies, migration, messaging."""

import pytest

from repro.errors import (
    AgentLifecycleError,
    AgentNotFoundError,
    DispatchError,
    HostUnreachableError,
    MessageDeliveryError,
    NetworkError,
)
from repro.agents.aglet import Aglet
from repro.agents.lifecycle import AgletState
from repro.agents.messages import Message, Reply


class EchoAgent(Aglet):
    """Replies to 'echo' messages and records lifecycle callbacks."""

    agent_type = "Echo"

    def on_creation(self, greeting: str = "hello") -> None:
        self.greeting = greeting
        self.calls = []

    def on_clone(self, original: "Aglet") -> None:
        self.calls.append("cloned")

    def on_dispatching(self, destination: str) -> None:
        self.calls.append(f"dispatching:{destination}")

    def on_arrival(self, origin: str) -> None:
        self.calls.append(f"arrived-from:{origin}")

    def on_deactivating(self) -> None:
        self.calls.append("deactivating")

    def on_activation(self) -> None:
        self.calls.append("activated")

    def on_disposing(self) -> None:
        self.calls.append("disposing")

    def handle_message(self, message: Message) -> Reply:
        if message.kind == "echo":
            return message.reply(text=f"{self.greeting} {message.argument('text', '')}")
        return super().handle_message(message)


class TestCreation:
    def test_create_binds_and_registers(self, two_contexts):
        alpha, _ = two_contexts
        agent = alpha.create(EchoAgent, owner="alice", greeting="hi")
        assert agent.greeting == "hi"
        assert agent.state is AgletState.ACTIVE
        assert agent.location == "alpha"
        assert agent.owner == "alice"
        assert alpha.active_count("Echo") == 1
        assert alpha.directory.locate(agent.aglet_id) == "alpha"

    def test_ids_are_unique_and_typed(self, two_contexts):
        alpha, _ = two_contexts
        first = alpha.create(EchoAgent)
        second = alpha.create(EchoAgent)
        assert first.aglet_id != second.aglet_id
        assert first.aglet_id.startswith("Echo-")
        assert first.aglet_id.endswith("@alpha")

    def test_creation_event_logged(self, two_contexts):
        alpha, _ = two_contexts
        alpha.create(EchoAgent)
        assert alpha.transport.event_log.by_category("agent.created")

    def test_now_reflects_shared_clock(self, two_contexts):
        alpha, _ = two_contexts
        agent = alpha.create(EchoAgent)
        alpha.transport.scheduler.clock.advance_to(42.0)
        assert agent.now == 42.0


class TestClone:
    def test_clone_copies_state_with_new_identity(self, two_contexts):
        alpha, _ = two_contexts
        original = alpha.create(EchoAgent, greeting="salut")
        duplicate = alpha.clone(original)
        assert duplicate.greeting == "salut"
        assert duplicate.aglet_id != original.aglet_id
        assert "cloned" in duplicate.calls
        assert alpha.active_count("Echo") == 2

    def test_clone_state_is_independent(self, two_contexts):
        alpha, _ = two_contexts
        original = alpha.create(EchoAgent)
        duplicate = alpha.clone(original)
        original.greeting = "changed"
        assert duplicate.greeting == "hello"


class TestDispose:
    def test_dispose_removes_agent(self, two_contexts):
        alpha, _ = two_contexts
        agent = alpha.create(EchoAgent)
        agent_id = agent.aglet_id
        alpha.dispose(agent)
        assert alpha.active_count() == 0
        assert not alpha.directory.knows(agent_id)
        assert agent.calls[-1] == "disposing"

    def test_disposed_agent_cannot_be_used(self, two_contexts):
        alpha, _ = two_contexts
        agent = alpha.create(EchoAgent)
        alpha.dispose(agent)
        with pytest.raises(AgentLifecycleError):
            alpha.dispose(agent)


class TestDispatch:
    def test_dispatch_moves_agent_between_hosts(self, two_contexts):
        alpha, beta = two_contexts
        agent = alpha.create(EchoAgent, greeting="bonjour")
        alpha.dispatch(agent, "beta")
        assert agent.location == "beta"
        assert alpha.active_count() == 0
        assert beta.active_count() == 1
        assert alpha.directory.locate(agent.aglet_id) == "beta"
        assert agent.greeting == "bonjour"
        assert f"dispatching:beta" in agent.calls
        assert "arrived-from:alpha" in agent.calls
        assert agent.info.hops == 1

    def test_dispatch_charges_the_network(self, two_contexts):
        alpha, beta = two_contexts
        before = alpha.transport.scheduler.clock.now
        agent = alpha.create(EchoAgent)
        alpha.dispatch(agent, "beta")
        assert alpha.transport.scheduler.clock.now > before

    def test_dispatch_to_same_host_is_noop(self, two_contexts):
        alpha, _ = two_contexts
        agent = alpha.create(EchoAgent)
        alpha.dispatch(agent, "alpha")
        assert agent.location == "alpha"
        assert agent.info.hops == 0

    def test_dispatch_to_unknown_host_rejected(self, two_contexts):
        alpha, _ = two_contexts
        agent = alpha.create(EchoAgent)
        with pytest.raises(DispatchError):
            alpha.dispatch(agent, "nowhere")

    def test_failed_dispatch_leaves_agent_active_at_home(self, two_contexts):
        alpha, beta = two_contexts
        agent = alpha.create(EchoAgent)
        beta.host.crash()
        with pytest.raises(HostUnreachableError):
            alpha.dispatch(agent, "beta")
        assert agent.state is AgletState.ACTIVE
        assert agent.location == "alpha"
        assert alpha.active_count() == 1

    def test_retract_brings_agent_home(self, two_contexts):
        alpha, beta = two_contexts
        agent = alpha.create(EchoAgent)
        alpha.dispatch(agent, "beta")
        returned = alpha.retract(agent.aglet_id)
        assert returned.location == "alpha"
        assert alpha.active_count() == 1
        assert beta.active_count() == 0
        assert returned.info.hops == 2

    def test_retract_local_agent_is_noop(self, two_contexts):
        alpha, _ = two_contexts
        agent = alpha.create(EchoAgent)
        assert alpha.retract(agent.aglet_id) is agent


class TestDeactivation:
    def test_deactivate_and_activate_roundtrip(self, two_contexts):
        alpha, _ = two_contexts
        agent = alpha.create(EchoAgent, greeting="hej")
        agent_id = agent.aglet_id
        alpha.deactivate(agent)
        assert alpha.is_deactivated(agent_id)
        assert alpha.active_count() == 0
        assert agent_id in alpha.deactivated_ids()

        restored = alpha.activate(agent_id)
        assert restored.greeting == "hej"
        assert restored.state is AgletState.ACTIVE
        assert "activated" in restored.calls
        assert not alpha.is_deactivated(agent_id)

    def test_proxy_survives_deactivation(self, two_contexts):
        alpha, _ = two_contexts
        agent = alpha.create(EchoAgent)
        proxy = agent.proxy
        alpha.deactivate(agent)
        restored = alpha.activate(agent.aglet_id)
        assert restored.proxy == proxy

    def test_message_to_deactivated_agent_rejected(self, two_contexts):
        alpha, _ = two_contexts
        agent = alpha.create(EchoAgent)
        alpha.deactivate(agent)
        with pytest.raises(MessageDeliveryError):
            alpha.deliver(agent.aglet_id, Message("echo"))

    def test_activate_unknown_id_rejected(self, two_contexts):
        alpha, _ = two_contexts
        with pytest.raises(AgentNotFoundError):
            alpha.activate("Echo-999@alpha")

    def test_deactivated_agent_cannot_be_dispatched(self, two_contexts):
        alpha, _ = two_contexts
        agent = alpha.create(EchoAgent)
        alpha.deactivate(agent)
        with pytest.raises(AgentLifecycleError):
            alpha.dispatch(agent, "beta")


class TestMessaging:
    def test_local_delivery(self, two_contexts):
        alpha, _ = two_contexts
        agent = alpha.create(EchoAgent)
        reply = alpha.deliver(agent.aglet_id, Message("echo", {"text": "world"}))
        assert reply.ok
        assert reply.value("text") == "hello world"

    def test_remote_delivery_charges_two_hops(self, two_contexts):
        alpha, beta = two_contexts
        agent = beta.create(EchoAgent)
        transfers_before = alpha.transport.network.total_transfers
        reply = alpha.send_message(agent.proxy, Message("echo", {"text": "remote"}))
        assert reply.ok
        assert alpha.transport.network.total_transfers == transfers_before + 2

    def test_send_to_helper(self, two_contexts):
        alpha, beta = two_contexts
        sender = alpha.create(EchoAgent)
        receiver = beta.create(EchoAgent, greeting="yo")
        reply = sender.send_to(receiver.proxy, "echo", text="there")
        assert reply.value("text") == "yo there"

    def test_unhandled_kind_returns_failure(self, two_contexts):
        alpha, _ = two_contexts
        agent = alpha.create(EchoAgent)
        reply = alpha.deliver(agent.aglet_id, Message("unknown-kind"))
        assert not reply.ok
        assert "unknown-kind" in reply.error

    def test_messages_follow_agent_after_migration(self, two_contexts):
        alpha, beta = two_contexts
        agent = alpha.create(EchoAgent)
        proxy = agent.proxy
        alpha.dispatch(agent, "beta")
        reply = proxy.request("echo", text="moved", from_host="alpha")
        assert reply.value("text") == "hello moved"
        assert proxy.location == "beta"

    def test_delivery_to_unknown_agent_rejected(self, two_contexts):
        alpha, _ = two_contexts
        with pytest.raises(AgentNotFoundError):
            alpha.deliver("Echo-404@alpha", Message("echo"))

    def test_message_counter_increments(self, two_contexts):
        alpha, _ = two_contexts
        agent = alpha.create(EchoAgent)
        alpha.deliver(agent.aglet_id, Message("echo"))
        alpha.deliver(agent.aglet_id, Message("echo"))
        assert agent.info.messages_handled == 2

    def test_bad_target_type_rejected(self, two_contexts):
        alpha, _ = two_contexts
        with pytest.raises(MessageDeliveryError):
            alpha.send_message(12345, Message("echo"))


class TestProxyAndDirectory:
    def test_proxy_equality_and_hash(self, two_contexts):
        alpha, _ = two_contexts
        agent = alpha.create(EchoAgent)
        assert agent.proxy == agent.proxy
        assert hash(agent.proxy) == hash(agent.proxy)

    def test_proxy_exists_tracks_disposal(self, two_contexts):
        alpha, _ = two_contexts
        agent = alpha.create(EchoAgent)
        proxy = agent.proxy
        assert proxy.exists
        alpha.dispose(agent)
        assert not proxy.exists

    def test_directory_agents_on_host(self, two_contexts):
        alpha, beta = two_contexts
        first = alpha.create(EchoAgent)
        second = alpha.create(EchoAgent)
        alpha.dispatch(second, "beta")
        assert first.aglet_id in alpha.directory.agents_on("alpha")
        assert second.aglet_id in alpha.directory.agents_on("beta")

    def test_directory_unknown_agent(self, two_contexts):
        alpha, _ = two_contexts
        with pytest.raises(AgentNotFoundError):
            alpha.directory.locate("missing")

    def test_unbound_aglet_has_no_context(self):
        agent = EchoAgent()
        with pytest.raises(AgentLifecycleError):
            _ = agent.context
        with pytest.raises(AgentLifecycleError):
            _ = agent.proxy

    def test_active_aglets_filter_by_type(self, two_contexts):
        alpha, _ = two_contexts
        alpha.create(EchoAgent)
        assert len(alpha.active_aglets("Echo")) == 1
        assert alpha.active_aglets("Other") == []


class CarrierAgent(Aglet):
    """Carries mutable containers, like an MBA's results and outcome."""

    agent_type = "Carrier"

    def on_creation(self) -> None:
        self.results = [{"price": 3.5}]
        self.outcome = {"ok": True}


class TestStateIsolation:
    """Capture copies, restore consumes: the one copy a hop makes must keep
    origin, storage and destination from sharing mutable state."""

    def test_deactivated_state_cannot_be_reached_through_the_old_object(self, two_contexts):
        alpha, _ = two_contexts
        agent = alpha.create(CarrierAgent)
        stale_results, stale_outcome = agent.results, agent.outcome
        alpha.deactivate(agent)
        stale_results.append({"price": 99.0})
        stale_results[0]["price"] = 99.0
        stale_outcome["ok"] = False
        restored = alpha.activate(agent.aglet_id)
        assert restored.results == [{"price": 3.5}]
        assert restored.outcome == {"ok": True}
        assert restored.results is not stale_results

    def test_clone_and_original_share_no_containers(self, two_contexts):
        alpha, _ = two_contexts
        original = alpha.create(CarrierAgent)
        duplicate = alpha.clone(original)
        assert duplicate.results is not original.results
        assert duplicate.results[0] is not original.results[0]
        duplicate.results[0]["price"] = 1.0
        duplicate.outcome["ok"] = False
        assert original.results == [{"price": 3.5}]
        assert original.outcome == {"ok": True}
        original.results.append({"price": 7.0})
        original.outcome["error"] = "late"
        assert duplicate.results == [{"price": 1.0}]
        assert duplicate.outcome == {"ok": False}

    def test_dispatch_leaves_nothing_shared_with_the_origin(self, two_contexts):
        alpha, beta = two_contexts
        agent = alpha.create(CarrierAgent)
        before_results, before_outcome = agent.results, agent.outcome
        alpha.dispatch(agent, "beta")
        arrived = beta.get_local(agent.aglet_id)
        assert arrived.results is not before_results
        assert arrived.results[0] is not before_results[0]
        assert arrived.outcome is not before_outcome
        before_results[0]["price"] = 99.0
        before_results.append({"price": 1.0})
        before_outcome["ok"] = False
        assert arrived.results == [{"price": 3.5}]
        assert arrived.outcome == {"ok": True}

    def test_failed_dispatch_keeps_state_at_home(self, two_contexts):
        alpha, beta = two_contexts
        agent = alpha.create(CarrierAgent)
        results = agent.results
        alpha.transport.network.cut_link("alpha", "beta")
        with pytest.raises(NetworkError):
            alpha.dispatch(agent, "beta")
        assert agent.state is AgletState.ACTIVE
        assert agent.location == "alpha"
        assert alpha.get_local(agent.aglet_id) is agent
        assert beta.active_count() == 0
        assert agent.results is results
        assert agent.results == [{"price": 3.5}]
        assert agent.outcome == {"ok": True}


class HopperAgent(Aglet):
    """Dispatches itself onwards on arrival (the MBA itinerary pattern)."""

    agent_type = "Hopper"

    def on_creation(self, itinerary=None, home: str = "") -> None:
        self.itinerary = list(itinerary or [])
        self.home = home
        self.visited = []

    def on_arrival(self, origin: str) -> None:
        if self.location == self.home:
            return
        self.visited.append(self.location)
        remaining = [stop for stop in self.itinerary if stop not in self.visited]
        self.dispatch_to(remaining[0] if remaining else self.home)


class TestSelfDispatchingItinerary:
    def test_agent_walks_itinerary_and_returns_home(self, three_contexts):
        alpha, beta, gamma = three_contexts
        agent = alpha.create(HopperAgent, itinerary=["beta", "gamma"], home="alpha")
        alpha.dispatch(agent, "beta")
        home_agent = alpha.get_local(agent.aglet_id)
        assert home_agent.visited == ["beta", "gamma"]
        assert home_agent.location == "alpha"
        assert home_agent.info.hops == 3
