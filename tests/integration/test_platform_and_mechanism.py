"""Integration tests for the platform architecture (Figure 3.1) and the
recommendation mechanism serving a consumer community (Figure 3.2)."""

import pytest

from repro.errors import ECommerceError
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
        gateway = platform.gateway()
        assert gateway.login("alice", register=False).ok
        assert platform.buyer_server.context.active_count("BRA") == 1
        assert platform.buyer_server.online_users() == ["alice"]
        assert platform.buyer_server.user_db.user("alice").logins == 1
        assert gateway.logout("alice").ok

    def test_logout_disposes_bra_and_allows_relogin(self, platform):
        gateway = platform.gateway()
        assert gateway.login("alice").ok
        assert gateway.logout("alice").ok
        assert platform.buyer_server.context.active_count("BRA") == 0
        assert gateway.login("alice").ok
        assert platform.buyer_server.user_db.user("alice").logins == 2
        assert gateway.logout("alice").ok


class TestConsumerCommunity:
    def test_many_concurrent_consumers_each_get_their_own_bra(self, platform):
        gateway = platform.gateway()
        users = [f"user-{i}" for i in range(6)]
        for user in users:
            assert gateway.login(user).ok
        assert platform.buyer_server.context.active_count("BRA") == 6
        assert len(platform.buyer_server.online_users()) == 6
        # Interleave activity across sessions.
        for user in users:
            assert gateway.query(user, "books").ok
        for user in users:
            assert gateway.logout(user).ok
        assert platform.buyer_server.context.active_count("BRA") == 0

    def test_profiles_stay_per_consumer(self, platform):
        gateway = platform.gateway()
        assert gateway.login("alice").ok
        assert gateway.login("bob").ok
        assert gateway.query("alice", "books").ok
        assert gateway.query("bob", "electronics").ok
        user_db = platform.buyer_server.user_db
        assert user_db.profile("alice").has_category("books")
        assert not user_db.profile("alice").has_category("electronics")
        assert user_db.profile("bob").has_category("electronics")
        assert gateway.logout("alice").ok
        assert gateway.logout("bob").ok

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
        gateway = platform.gateway()
        assert gateway.login(target.user_id).ok
        assert gateway.recommendations(target.user_id, k=5).result.recommendations
        assert gateway.logout(target.user_id).ok

    def test_warm_up_mixes_traffic(self, platform):
        population = ConsumerPopulation(10, groups=2, seed=7)
        runner = ScenarioRunner(platform, population, seed=8)
        report = runner.warm_up(sessions_per_consumer=3, queries_per_session=1)
        assert report.consumers == 10
        assert report.sessions == 30
        assert report.queries >= 20
        assert report.purchases > 0
        assert report.auctions + report.negotiations > 0
        assert report.recommendations_requested == 30
        assert report.as_dict()["purchases"] == report.purchases

    def test_warm_up_validates_parameters(self, platform):
        from repro.errors import WorkloadError

        population = ConsumerPopulation(4, groups=2, seed=7)
        runner = ScenarioRunner(platform, population, seed=8)
        with pytest.raises(WorkloadError):
            runner.warm_up(sessions_per_consumer=0)


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
        gateway = platform.gateway()
        assert gateway.login("alice").ok
        assert gateway.query("alice", "books").ok
        assert gateway.logout("alice").ok
        context.dispose(audit)
        assert context.active_count("Audit") == 0

    def test_cloning_the_profile_agent_scales_it_out(self, platform):
        context = platform.buyer_server.context
        pa = context.active_aglets("PA")[0]
        clone = context.clone(pa)
        assert context.active_count("PA") == 2
        context.dispose(clone)
        assert context.active_count("PA") == 1
