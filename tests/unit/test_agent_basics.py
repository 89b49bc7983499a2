"""Unit tests for agent lifecycle states, messages, serialization and security."""

import copy
import pickle

import pytest

from repro.errors import AgentLifecycleError, AuthenticationError, SerializationError
from repro.agents.lifecycle import AgletInfo, AgletState, check_transition
from repro.agents.messages import Message, MessageKinds, Reply
from repro.agents.security import AgentCredential, AuthenticationService
from repro.agents.serialization import (
    RUNTIME_ATTRIBUTES,
    capture_state,
    estimate_payload_bytes,
    restore_state,
)
from repro.core.items import Item
from repro.core.similarity import vector_norm
from repro.ecommerce.buyer_agents import MobileBuyerAgent


class TestLifecycle:
    @pytest.mark.parametrize(
        "current, target",
        [
            (AgletState.ACTIVE, AgletState.DEACTIVATED),
            (AgletState.ACTIVE, AgletState.IN_TRANSIT),
            (AgletState.ACTIVE, AgletState.DISPOSED),
            (AgletState.DEACTIVATED, AgletState.ACTIVE),
            (AgletState.IN_TRANSIT, AgletState.ACTIVE),
        ],
    )
    def test_legal_transitions(self, current, target):
        check_transition(current, target)

    @pytest.mark.parametrize(
        "current, target",
        [
            (AgletState.DEACTIVATED, AgletState.IN_TRANSIT),
            (AgletState.DISPOSED, AgletState.ACTIVE),
            (AgletState.DISPOSED, AgletState.DEACTIVATED),
            (AgletState.IN_TRANSIT, AgletState.DEACTIVATED),
        ],
    )
    def test_illegal_transitions_rejected(self, current, target):
        with pytest.raises(AgentLifecycleError):
            check_transition(current, target)

    def test_info_transition_updates_state(self):
        info = AgletInfo("a-1", "BRA", "alice", created_at=0.0)
        info.transition(AgletState.DEACTIVATED)
        assert info.state is AgletState.DEACTIVATED
        with pytest.raises(AgentLifecycleError):
            info.transition(AgletState.IN_TRANSIT)


class TestUnboundAglet:
    def test_unbound_aglet_has_no_id(self):
        agent = MobileBuyerAgent()
        with pytest.raises(AgentLifecycleError):
            _ = agent.aglet_id
        with pytest.raises(AgentLifecycleError):
            _ = agent.context

    def test_unbound_aglet_repr(self):
        assert repr(MobileBuyerAgent()) == "MobileBuyerAgent(unbound)"

    def test_bound_aglet_id_and_repr(self):
        agent = MobileBuyerAgent()
        agent.bind(None, AgletInfo("MBA-1", "MBA", "alice", created_at=0.0), None)
        assert agent.aglet_id == "MBA-1"
        assert repr(agent) == "MobileBuyerAgent(id='MBA-1', state=active)"


class TestMessages:
    def test_argument_and_require(self):
        message = Message("buyer.query", {"keyword": "laptop"})
        assert message.argument("keyword") == "laptop"
        assert message.argument("missing", 7) == 7
        with pytest.raises(KeyError):
            message.require("missing")

    def test_reply_correlates_with_message(self):
        message = Message("buyer.query", {"keyword": "laptop"})
        reply = message.reply(results=[1, 2])
        assert reply.kind == message.kind
        assert reply.ok
        assert reply.value("results") == [1, 2]

    def test_failure_reply(self):
        reply = Reply.failure("buyer.query", "boom")
        assert not reply.ok
        assert reply.error == "boom"
        assert reply.payload == {}

    def test_reply_require(self):
        reply = Reply("x", payload={"a": 1})
        assert reply.require("a") == 1
        with pytest.raises(KeyError):
            reply.require("b")

    def test_message_kind_constants_are_distinct(self):
        kinds = [
            value
            for name, value in vars(MessageKinds).items()
            if not name.startswith("_") and isinstance(value, str)
        ]
        assert len(kinds) == len(set(kinds))


class _Dummy:
    """A stand-in agent carrying a mix of attribute types."""

    def __init__(self):
        self._context = object()   # runtime binding: must not be captured
        self._info = object()
        self._proxy = object()
        self.user_id = "alice"
        self.results = [{"item": "x", "price": 3.5}]
        self.counters = {"queries": 2}


class TestSerialization:
    def test_runtime_attributes_excluded(self):
        snapshot = capture_state(_Dummy())
        assert "_context" not in snapshot
        assert "_info" not in snapshot
        assert snapshot["user_id"] == "alice"

    def test_capture_is_a_deep_copy(self):
        agent = _Dummy()
        snapshot = capture_state(agent)
        agent.results[0]["price"] = 99.0
        assert snapshot["results"][0]["price"] == 3.5

    def test_restore_applies_values(self):
        agent = _Dummy()
        snapshot = capture_state(agent)
        fresh = _Dummy()
        fresh.user_id = "bob"
        restore_state(fresh, snapshot)
        assert fresh.user_id == "alice"
        assert fresh.results == agent.results

    def test_restore_rejects_non_dict(self):
        with pytest.raises(SerializationError):
            restore_state(_Dummy(), "not-a-dict")

    def test_payload_estimate_grows_with_content(self):
        small = estimate_payload_bytes({"a": 1})
        large = estimate_payload_bytes({"a": "x" * 10_000})
        assert large > small > 0

    def test_snapshot_reports_payload_bytes(self):
        snapshot = capture_state(_Dummy())
        assert snapshot.payload_bytes > 0


    def test_restore_skips_runtime_attributes(self):
        agent = _Dummy()
        bindings = {name: getattr(agent, name) for name in RUNTIME_ATTRIBUTES}
        restore_state(agent, {"_context": "hijacked", "_info": None, "_proxy": 1, "user_id": "bob"})
        assert {name: getattr(agent, name) for name in RUNTIME_ATTRIBUTES} == bindings
        assert agent.user_id == "bob"

    def test_restore_consumes_the_snapshot(self):
        # Capture copies, restore consumes: the one copy is capture's.
        agent = _Dummy()
        snapshot = capture_state(agent)
        fresh = _Dummy()
        restore_state(fresh, snapshot)
        assert fresh.results is snapshot["results"]
        assert fresh.results is not agent.results
        assert fresh.results[0] is not agent.results[0]

    def test_items_cross_by_reference(self):
        item = _catalogue()[0]
        assert copy.deepcopy(item) is item
        carried = [item]
        copied = copy.deepcopy(carried)
        assert copied is not carried
        assert copied[0] is item
        agent = _Dummy()
        agent.results = [{"item": item}]
        snapshot = capture_state(agent)
        assert snapshot["results"] is not agent.results
        assert snapshot["results"][0] is not agent.results[0]
        assert snapshot["results"][0]["item"] is item


ITEM_FIELDS = ["item_id", "name", "category", "subcategory", "terms", "price", "seller"]


def _catalogue():
    return [
        Item.build("book-1", "Dune", "books", "scifi",
                   {"desert": 0.9, "spice": 0.7, "epic": 0.4}, 12.5, "seller-a"),
        Item.build("book-2", "Emma", "books", "classic",
                   {"romance": 0.8, "regency": 0.6}, 8.0, "seller-a"),
        Item.build("cd-1", "Kind of Blue", "music", "", {"jazz": 1.0}, 15.25, "seller-b"),
    ]


def _returning_mba():
    """An MBA on its last hop: two marketplaces' results, credential, params."""
    items = _catalogue()
    mba = MobileBuyerAgent()
    mba.on_creation(
        user_id="alice", task="query", params={"keyword": "books", "category": None},
        itinerary=["market-1", "market-2"], home="buyer-server",
    )
    mba.visited = ["market-1", "market-2"]
    mba.results = [
        {"item": item, "price": item.price, "stock": 5 + index, "marketplace": market}
        for market in ("market-1", "market-2")
        for index, item in enumerate(items)
    ]
    mba.credential = AgentCredential(
        agent_id="MBA-1@buyer-server", owner="alice", issued_at=10.0, expires_at=60010.0,
        session_key="0" * 32, signature="f" * 64,
    )
    return mba


class TestWireSize:
    """The simulated network charges these bytes, so they feed the simulated
    clock of every reproducible artifact.  The integers are what the walk
    returned before items memoized their size; a memo must not move them."""

    def test_mba_payload_is_pinned(self):
        mba = _returning_mba()
        assert capture_state(mba).payload_bytes == 11230
        # Sized again with every item's memo warm.
        assert capture_state(mba).payload_bytes == 11230

    def test_item_size_per_depth_is_pinned(self):
        for item, expected in zip(_catalogue(), (1516, 1397, 1266)):
            assert estimate_payload_bytes({"results": [{"item": item}]}) == expected

    def test_deep_items_follow_the_truncated_walk(self):
        # Depth 4 is the deepest level whose leaves the walk still reaches;
        # from depth 5 on it truncates and the same item has another size.
        item = _catalogue()[0]
        assert estimate_payload_bytes(item) == 1225
        assert estimate_payload_bytes([[[[item]]]]) == 4 * 56 + 1225
        assert estimate_payload_bytes([[[[[item]]]]]) == 1682
        assert estimate_payload_bytes({"a": [[[[item]]]]}) == 1739

    def test_deep_walk_does_not_seed_the_memo(self):
        item = _catalogue()[0]
        assert estimate_payload_bytes([[[[[item]]]]]) == 1682
        assert estimate_payload_bytes(item) == 1225

    def test_sizing_leaves_item_fields_alone(self):
        item = _catalogue()[0]
        twin = _catalogue()[0]
        estimate_payload_bytes(item)
        assert list(vars(item)) == ITEM_FIELDS
        assert item.term_weights == {"desert": 0.9, "spice": 0.7, "epic": 0.4}
        assert list(vars(item)) == ITEM_FIELDS
        assert item == twin and hash(item) == hash(twin) and repr(item) == repr(twin)
        assert copy.copy(item) == item

    def test_derived_views_leave_item_fields_and_sizes_alone(self):
        item, twin = _catalogue()[0], _catalogue()[0]
        weights, norm = item.normed_terms()
        assert item.matches_keyword("Dune") and item.matches_keyword(" SPICE ")
        assert not item.matches_keyword("spic") and not item.matches_keyword("  ")
        assert list(vars(item)) == ITEM_FIELDS
        assert item == twin and hash(item) == hash(twin) and repr(item) == repr(twin)
        assert estimate_payload_bytes(item) == estimate_payload_bytes(twin) == 1225
        # The shared view is the public copy's content, with the norm the
        # scorers used to take per (consumer, item); the copy stays a copy.
        assert weights == item.term_weights and norm == vector_norm(item.term_weights)
        assert item.normed_terms()[0] is weights
        assert item.term_weights is not item.term_weights
        item.term_weights["scribble"] = 1.0
        assert "scribble" not in item.normed_terms()[0]
        # Copies and pickles carry the fields and derive the views again.
        for clone in (copy.copy(item), pickle.loads(pickle.dumps(item))):
            assert clone == item and list(vars(clone)) == ITEM_FIELDS
            assert clone.normed_terms() == (weights, norm) and clone.matches_keyword("dune")
        assert copy.deepcopy(item) is item


class TestAuthenticationService:
    def test_issue_and_verify(self):
        service = AuthenticationService("buyer-server")
        credential = service.issue("MBA-1", owner="alice", now=100.0)
        assert service.verify(credential, now=200.0)
        assert service.verified_count == 1

    def test_expired_credential_rejected(self):
        service = AuthenticationService("buyer-server", credential_lifetime_ms=50.0)
        credential = service.issue("MBA-1", owner="alice", now=0.0)
        with pytest.raises(AuthenticationError):
            service.verify(credential, now=100.0)
        assert service.rejected_count == 1

    def test_tampered_credential_rejected(self):
        service = AuthenticationService("buyer-server")
        credential = service.issue("MBA-1", owner="alice", now=0.0)
        forged = type(credential)(
            agent_id=credential.agent_id,
            owner="mallory",
            issued_at=credential.issued_at,
            expires_at=credential.expires_at,
            session_key=credential.session_key,
            signature=credential.signature,
        )
        with pytest.raises(AuthenticationError):
            service.verify(forged, now=1.0)

    def test_revoked_credential_rejected(self):
        service = AuthenticationService("buyer-server")
        credential = service.issue("MBA-1", owner="alice", now=0.0)
        service.revoke("MBA-1")
        with pytest.raises(AuthenticationError):
            service.verify(credential, now=1.0)

    def test_credential_from_other_server_rejected(self):
        ours = AuthenticationService("buyer-server")
        theirs = AuthenticationService("rogue-server")
        credential = theirs.issue("MBA-1", owner="alice", now=0.0)
        with pytest.raises(AuthenticationError):
            ours.verify(credential, now=1.0)

    def test_challenge_response_roundtrip(self):
        service = AuthenticationService("buyer-server")
        credential = service.issue("MBA-1", owner="alice", now=0.0)
        challenge = service.challenge()
        response = AuthenticationService.respond(credential, challenge)
        assert service.verify_response(credential, challenge, response, now=1.0)

    def test_wrong_response_rejected(self):
        service = AuthenticationService("buyer-server")
        credential = service.issue("MBA-1", owner="alice", now=0.0)
        challenge = service.challenge()
        with pytest.raises(AuthenticationError):
            service.verify_response(credential, challenge, "bogus", now=1.0)

    def test_challenges_are_unique(self):
        service = AuthenticationService("buyer-server")
        assert service.challenge() != service.challenge()
