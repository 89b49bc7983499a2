"""Integration tests for the platform architecture (Figure 3.1) and the
recommendation mechanism serving a consumer community (Figure 3.2)."""

import pytest

from repro.errors import ECommerceError, LoginError, SessionError, UnknownUserError
from repro.ecommerce.platform_builder import PlatformConfig, build_platform
from repro.workload.consumers import ConsumerPopulation
from repro.workload.scenarios import ScenarioRunner


class TestPlatformAssembly:
    def test_all_server_roles_present(self, platform):
        assert platform.hosts["coordinator"].is_running
        assert len(platform.marketplaces) == 2
        assert len(platform.sellers) == 2
        assert platform.buyer_server.is_ready
        assert set(platform.marketplace_names()) == {"marketplace-1", "marketplace-2"}

    def test_sellers_listed_merchandise_on_marketplaces(self, platform):
        for marketplace in platform.marketplaces:
            assert len(marketplace.catalog) > 0
        # Round-robin distribution: the two marketplaces carry different stock.
        first = {item.item_id for item in platform.marketplaces[0].catalog.items()}
        second = {item.item_id for item in platform.marketplaces[1].catalog.items()}
        assert first.isdisjoint(second)

    def test_replicated_listings_mode(self):
        platform = build_platform(
            num_marketplaces=2, num_sellers=1, items_per_seller=10, seed=5,
            replicate_listings=True,
        )
        first = {item.item_id for item in platform.marketplaces[0].catalog.items()}
        second = {item.item_id for item in platform.marketplaces[1].catalog.items()}
        assert first == second

    def test_catalog_view_covers_all_sellers(self, platform):
        view = platform.catalog_view()
        total = sum(len(seller.catalog) for seller in platform.sellers)
        assert len(view) == total

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ECommerceError):
            build_platform(num_marketplaces=0)
        with pytest.raises(ECommerceError):
            PlatformConfig(num_sellers=0).validate()
        with pytest.raises(ECommerceError):
            build_platform(bogus_option=True)

    def test_stats_snapshot_structure(self, platform):
        stats = platform.stats()
        assert stats["consumers"] == 0
        assert set(stats["marketplaces"]) == set(platform.marketplace_names())
        assert stats["network"]["total_transfers"] > 0

    def test_platform_build_is_deterministic(self):
        first = build_platform(num_marketplaces=2, num_sellers=2, items_per_seller=10, seed=9)
        second = build_platform(num_marketplaces=2, num_sellers=2, items_per_seller=10, seed=9)
        first_items = [item.item_id for item in first.catalog_view()]
        second_items = [item.item_id for item in second.catalog_view()]
        assert first_items == second_items


class TestLoginLogoutLifecycle:
    def test_register_then_login_creates_bra(self, platform):
        platform.register_consumer("alice", "Alice")
        session = platform.login("alice", register=False)
        assert platform.buyer_server.context.active_count("BRA") == 1
        assert platform.buyer_server.online_users() == ["alice"]
        assert platform.buyer_server.user_db.user("alice").logins == 1
        session.logout()

    def test_login_without_registration_fails_when_not_auto(self, platform):
        from repro.ecommerce.session import ConsumerSession

        session = ConsumerSession(platform.buyer_server, "stranger")
        with pytest.raises(SessionError):
            session.login()

    def test_duplicate_login_rejected(self, platform):
        platform.login("alice")
        from repro.ecommerce.session import ConsumerSession

        duplicate = ConsumerSession(platform.buyer_server, "alice")
        with pytest.raises(SessionError):
            duplicate.login()

    def test_logout_disposes_bra_and_allows_relogin(self, platform):
        session = platform.login("alice")
        session.logout()
        assert platform.buyer_server.context.active_count("BRA") == 0
        again = platform.login("alice")
        assert platform.buyer_server.user_db.user("alice").logins == 2
        again.logout()

    def test_double_logout_rejected(self, platform):
        session = platform.login("alice")
        session.logout()
        with pytest.raises(SessionError):
            session.logout()

    def test_context_manager_logs_out_automatically(self, platform):
        platform.register_consumer("carol")
        from repro.ecommerce.session import ConsumerSession

        with ConsumerSession(platform.buyer_server, "carol") as session:
            assert session.is_active
        assert platform.buyer_server.online_users() == []

    def test_session_lookup(self, platform):
        session = platform.login("alice")
        assert platform.session("alice") is session
        with pytest.raises(UnknownUserError):
            platform.session("nobody")


class TestConsumerCommunity:
    def test_many_concurrent_consumers_each_get_their_own_bra(self, platform):
        sessions = [platform.login(f"user-{i}") for i in range(6)]
        assert platform.buyer_server.context.active_count("BRA") == 6
        assert len(platform.buyer_server.online_users()) == 6
        # Interleave activity across sessions.
        for session in sessions:
            session.query("books")
        for session in sessions:
            session.logout()
        assert platform.buyer_server.context.active_count("BRA") == 0

    def test_profiles_stay_per_consumer(self, platform):
        alice = platform.login("alice")
        bob = platform.login("bob")
        alice.query("books")
        bob.query("electronics")
        user_db = platform.buyer_server.user_db
        assert user_db.profile("alice").has_category("books")
        assert not user_db.profile("alice").has_category("electronics")
        assert user_db.profile("bob").has_category("electronics")
        alice.logout()
        bob.logout()

    def test_scenario_runner_warm_up(self, platform):
        population = ConsumerPopulation(6, groups=3, seed=2)
        runner = ScenarioRunner(platform, population, seed=3)
        report = runner.warm_up(sessions_per_consumer=1, queries_per_session=1)
        assert report.consumers == 6
        assert report.sessions == 6
        assert report.queries >= 1
        assert report.simulated_duration_ms > 0
        assert len(platform.buyer_server.user_db) == 6
        assert platform.buyer_server.online_users() == []  # everyone logged out

    def test_recommendations_draw_on_the_community(self, platform):
        population = ConsumerPopulation(8, groups=2, seed=5)
        runner = ScenarioRunner(platform, population, seed=6)
        runner.warm_up(sessions_per_consumer=1, queries_per_session=2)
        target = population.consumers()[0]
        session = platform.login(target.user_id)
        recommendations = session.recommendations(k=5)
        assert recommendations
        session.logout()

    def test_stress_day_mixes_traffic_and_refreshes_batches(self, platform):
        population = ConsumerPopulation(10, groups=2, seed=7)
        runner = ScenarioRunner(platform, population, seed=8)
        report = runner.stress_day(
            sessions=25,
            buy_probability=0.5,
            auction_probability=0.2,
            negotiate_probability=0.1,
            recommendation_probability=0.5,
            batch_refresh_interval_ms=500.0,
        )
        assert report.consumers == 10
        assert report.sessions == 25
        assert report.queries >= 20
        assert report.purchases + report.auctions + report.negotiations > 0
        assert report.recommendations_requested > 0
        assert report.batch_refreshes >= 1
        assert report.as_dict()["batch_refreshes"] == report.batch_refreshes
        # The periodic refresh left precomputed lists behind for the community.
        service = platform.buyer_server.recommendations
        assert service.last_batch_refresh_at is not None
        refreshed = [
            user_id
            for user_id in platform.buyer_server.user_db.user_ids
            if service.cached_recommendations(user_id) is not None
        ]
        assert refreshed

    def test_stress_day_validates_parameters(self, platform):
        from repro.errors import WorkloadError

        population = ConsumerPopulation(4, groups=2, seed=7)
        runner = ScenarioRunner(platform, population, seed=8)
        with pytest.raises(WorkloadError):
            runner.stress_day(sessions=0)


class TestAgentFlexibility:
    """Capability claim 1 of §5.1: functional agents can be added or removed."""

    def test_extra_functional_agent_can_join_the_server(self, platform):
        from repro.agents.aglet import Aglet

        class AuditAgent(Aglet):
            agent_type = "Audit"

        context = platform.buyer_server.context
        audit = context.create(AuditAgent, owner="ops")
        assert context.active_count("Audit") == 1
        # Existing consumers are unaffected.
        session = platform.login("alice")
        assert session.query("books") is not None
        session.logout()
        context.dispose(audit)
        assert context.active_count("Audit") == 0

    def test_cloning_the_profile_agent_scales_it_out(self, platform):
        context = platform.buyer_server.context
        pa = context.active_aglets("PA")[0]
        clone = context.clone(pa)
        assert context.active_count("PA") == 2
        context.dispose(clone)
        assert context.active_count("PA") == 1
