"""Nobody marks a mutable class by-reference.

``WireValue`` makes ``copy.deepcopy`` hand back the object itself, so an
aglet hop shares it between hosts.  That is only sound for a class whose
instances cannot change: this test walks every subclass in the program and
holds each to the mixin's contract.
"""

import copy
import dataclasses
import enum
import importlib
import pickle
import pkgutil

import repro
from repro.agents.messages import Reply
from repro.agents.security import AgentCredential
from repro.agents.serialization import estimate_payload_bytes
from repro.core.items import Item
from repro.ecommerce.buyer_agents import MobileBuyerAgent
from repro.ecommerce.transactions import TransactionKind, TransactionRecord
from repro.wire import WireValue

#: One instance of every by-reference class; a new subclass must add its own.
SAMPLES = {
    Item: lambda: Item.build("book-1", "Dune", "books", "scifi",
                             {"desert": 0.9, "spice": 0.7}, 12.5, "seller-a"),
    AgentCredential: lambda: AgentCredential(
        agent_id="MBA-1@buyer-server", owner="alice", issued_at=10.0,
        expires_at=60010.0, session_key="0" * 32, signature="f" * 64),
    TransactionRecord: lambda: TransactionRecord(
        "txn-market-1-1", "alice", "book-1", "market-1", TransactionKind.AUCTION_WIN,
        11.0, 12.5, 100.0, seller="seller-a"),
}


def _wire_value_classes():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    found, queue = [], list(WireValue.__subclasses__())
    while queue:
        cls = queue.pop()
        found.append(cls)
        queue.extend(cls.__subclasses__())
    return found


def _immutable(value):
    if isinstance(value, tuple):
        return all(_immutable(member) for member in value)
    return value is None or isinstance(value, (str, int, float, bool, enum.Enum))


def test_every_by_reference_class_has_a_sample():
    assert set(_wire_value_classes()) == set(SAMPLES)


def test_by_reference_classes_are_frozen_and_immutable_all_the_way_down():
    for cls in _wire_value_classes():
        assert dataclasses.is_dataclass(cls), cls
        assert cls.__dataclass_params__.frozen, cls
        value = SAMPLES[cls]()
        fields = [field.name for field in dataclasses.fields(cls)]
        assert list(vars(value)) == fields, cls
        for name, member in vars(value).items():
            assert _immutable(member), (cls, name, member)


def test_sizing_leaves_the_fields_alone():
    for cls in _wire_value_classes():
        value, twin = SAMPLES[cls](), SAMPLES[cls]()
        fields = list(vars(twin))
        size = estimate_payload_bytes(value)
        assert value._wire_bytes == size and "_wire_bytes" not in vars(value), cls
        assert list(vars(value)) == fields, cls
        assert value == twin and hash(value) == hash(twin) and repr(value) == repr(twin), cls
        assert copy.deepcopy(value) is value and copy.deepcopy([value])[0] is value, cls
        for clone in (copy.copy(value), pickle.loads(pickle.dumps(value))):
            assert clone == value and clone is not value, cls
            assert list(vars(clone)) == fields and not hasattr(clone, "_wire_bytes"), cls
            assert estimate_payload_bytes(clone) == size, cls


class _Carrier(MobileBuyerAgent):
    """An MBA that only travels (no marketplace agent to talk to on arrival)."""

    def on_arrival(self, origin):
        pass


def test_a_hop_keeps_value_identity(two_contexts):
    # One memo per attribute used to turn the marketplace's one record into
    # two on the way home; a frozen record now arrives as the one it was.
    home, market = two_contexts
    mba = home.create(_Carrier, owner="alice", user_id="alice", task="buy",
                      params={"item_id": "book-1"}, itinerary=[market.host_name])
    mba.credential = SAMPLES[AgentCredential]()
    mba.dispatch_to(market.host_name)
    transaction = SAMPLES[TransactionRecord]()
    mba._keep_trade(Reply("market.buy", payload={"transaction": transaction}))
    credential, outcome, params = mba.credential, mba.outcome, mba.params
    assert mba.outcome["transaction"] is mba.transaction is transaction
    mba.dispatch_to(home.host_name)
    assert home.get_local(mba.aglet_id) is mba and mba.info.hops == 2
    assert mba.outcome["transaction"] is mba.transaction is transaction
    assert mba.credential is credential
    # ... while what could change was copied, as ever.
    assert mba.outcome == outcome and mba.outcome is not outcome
    assert mba.params == params and mba.params is not params
