"""Unit tests for UserDB and BSMDB."""

import pytest

from repro.errors import LoginError, UnknownUserError
from repro.core.profile import Profile
from repro.core.ratings import Interaction, InteractionKind
from repro.ecommerce.databases import BSMDB, UserDB
from repro.ecommerce.transactions import TransactionKind, TransactionRecord


class TestUserDB:
    def test_register_creates_profile_and_record(self):
        db = UserDB()
        record = db.register("alice", "Alice", timestamp=5.0)
        assert record.display_name == "Alice"
        assert record.registered_at == 5.0
        assert db.is_registered("alice")
        assert db.profile("alice").user_id == "alice"
        assert len(db) == 1

    def test_double_registration_rejected(self):
        db = UserDB()
        db.register("alice")
        with pytest.raises(LoginError):
            db.register("alice")

    def test_unknown_user_operations_rejected(self):
        db = UserDB()
        with pytest.raises(UnknownUserError):
            db.profile("ghost")
        with pytest.raises(UnknownUserError):
            db.user("ghost")
        with pytest.raises(UnknownUserError):
            db.transactions_of("ghost")
        with pytest.raises(UnknownUserError):
            db.record_interaction(Interaction("ghost", "i", InteractionKind.BUY))

    def test_record_login_updates_counters(self):
        db = UserDB()
        db.register("alice")
        db.record_login("alice", 10.0)
        db.record_login("alice", 20.0)
        assert db.user("alice").logins == 2
        assert db.user("alice").last_login_at == 20.0

    def test_store_profile_replaces_existing(self):
        db = UserDB()
        db.register("alice")
        replacement = Profile("alice")
        replacement.category("books").preference = 5.0
        db.store_profile(replacement)
        assert db.profile("alice").category("books").preference == 5.0

    def test_store_profile_serializes_only_for_a_listener(self):
        class CountingProfile(Profile):
            dumps = 0

            def to_dict(self):
                CountingProfile.dumps += 1
                return super().to_dict()

        db = UserDB()
        db.register("alice")
        db.store_profile(CountingProfile("alice"))
        assert CountingProfile.dumps == 0
        heard = []
        db.add_mutation_listener(lambda op, payload: heard.append((op, payload)))
        db.store_profile(CountingProfile("alice"))
        assert CountingProfile.dumps == 1
        assert heard == [("store-profile", {"profile": Profile("alice").to_dict()})]

    def test_store_profile_for_unknown_user_rejected(self):
        db = UserDB()
        with pytest.raises(UnknownUserError):
            db.store_profile(Profile("ghost"))

    def test_profiles_listing(self):
        db = UserDB()
        for name in ("carol", "alice", "bob"):
            db.register(name)
        assert [profile.user_id for profile in db.profiles()] == ["alice", "bob", "carol"]

    def test_transactions_recorded_per_user(self):
        db = UserDB()
        db.register("alice")
        txn = TransactionRecord(
            "txn-marketplace-1-1", "alice", "item-1", "marketplace-1",
            TransactionKind.DIRECT_PURCHASE, price=10.0, list_price=10.0, timestamp=0.0,
        )
        db.record_transaction(txn)
        assert db.transactions_of("alice") == [txn]
        assert db.all_transactions() == [txn]

    def test_interactions_feed_the_ratings_store(self):
        db = UserDB()
        db.register("alice")
        value = db.record_interaction(Interaction("alice", "item-1", InteractionKind.BUY))
        assert value > 0
        assert db.ratings.value("alice", "item-1") == value

    def test_user_ids_sorted(self):
        db = UserDB()
        for name in ("zoe", "amy"):
            db.register(name)
        assert db.user_ids == ["amy", "zoe"]


class TestBSMDB:
    def test_topology_records(self):
        db = BSMDB()
        db.set_coordinator("coordinator")
        db.add_marketplace("marketplace-1")
        db.add_marketplace("marketplace-1")  # idempotent
        db.add_marketplace("marketplace-2")
        db.add_seller_server("seller-1")
        assert db.coordinator == "coordinator"
        assert db.marketplaces == ["marketplace-1", "marketplace-2"]
        assert db.seller_servers == ["seller-1"]

    def test_online_bra_tracking(self):
        db = BSMDB()
        db.record_bra_online("BRA-1", "alice", 10.0)
        assert db.online_user_ids() == ["alice"]
        record = db.online_bra("alice")
        assert record.bra_id == "BRA-1"
        assert not record.deactivated

        db.record_bra_deactivated("alice", True)
        assert db.online_bra("alice").deactivated

        db.record_bra_offline("alice")
        assert db.online_user_ids() == []
        assert db.online_bra("alice") is None

    def test_deactivation_flag_for_unknown_user_is_ignored(self):
        db = BSMDB()
        db.record_bra_deactivated("ghost", True)  # must not raise

    def test_mba_dispatch_and_return_tracking(self):
        db = BSMDB()
        record = db.record_mba_dispatched(
            "MBA-1", owner="alice", bra_id="BRA-1", task="query",
            itinerary=["marketplace-1", "marketplace-2"], timestamp=5.0,
        )
        assert record.itinerary == ["marketplace-1", "marketplace-2"]
        assert db.outstanding_mbas() == [record]
        assert db.mba("MBA-1") is record

        db.record_mba_returned("MBA-1", 20.0, authenticated=True)
        assert db.outstanding_mbas() == []
        assert db.mba("MBA-1").returned_at == 20.0
        assert db.mba("MBA-1").authenticated

    def test_unknown_mba_lookup(self):
        db = BSMDB()
        assert db.mba("nope") is None
        db.record_mba_returned("nope", 1.0, authenticated=False)  # must not raise

    def test_mba_history_accumulates(self):
        db = BSMDB()
        db.record_mba_dispatched("MBA-1", "alice", "BRA-1", "query", [], 1.0)
        db.record_mba_dispatched("MBA-2", "bob", "BRA-2", "buy", [], 2.0)
        assert len(db.mba_history()) == 2
