"""Integration tests for failure injection against the live platform."""

import pytest

from repro.api.envelope import ApiStatus
from repro.ecommerce.platform_builder import build_platform
from repro.platform.failure import FailurePlan


@pytest.fixture
def resilient_platform():
    return build_platform(num_marketplaces=3, num_sellers=3, items_per_seller=15, seed=23)


class TestMarketplaceOutage:
    def test_down_marketplace_is_skipped_not_fatal(self, resilient_platform):
        """A crashed marketplace is dropped from the itinerary (§1 fault tolerance)."""
        platform = resilient_platform
        gateway = platform.gateway()
        assert gateway.login("alice").ok
        platform.failures.crash_host("marketplace-1")
        results = gateway.query("alice", "books").result.hits
        assert results
        assert all(hit.marketplace != "marketplace-1" for hit in results)
        filtered = platform.event_log.by_category("workflow.itinerary-filtered")
        assert filtered and filtered[-1].payload["skipped"] == ["marketplace-1"]
        assert gateway.logout("alice").ok

    def test_all_marketplaces_down_is_a_clean_error(self, resilient_platform):
        platform = resilient_platform
        gateway = platform.gateway()
        assert gateway.login("alice").ok
        for name in platform.marketplace_names():
            platform.failures.crash_host(name)
        failed = gateway.query("alice", "books")
        assert (failed.status, failed.error.code) == (ApiStatus.FAILED, "session")
        assert gateway.logout("alice").ok

    def test_surviving_marketplaces_keep_serving(self, resilient_platform):
        platform = resilient_platform
        gateway = platform.gateway()
        assert gateway.login("alice").ok
        platform.failures.crash_host("marketplace-1")
        results = gateway.query(
            "alice", "books", marketplaces=["marketplace-2", "marketplace-3"]
        ).result.hits
        assert results
        assert all(hit.marketplace != "marketplace-1" for hit in results)
        assert gateway.logout("alice").ok

    def test_recovery_restores_full_coverage(self, resilient_platform):
        platform = resilient_platform
        gateway = platform.gateway()
        assert gateway.login("alice").ok
        platform.failures.crash_host("marketplace-1")
        platform.failures.recover_host("marketplace-1")
        results = gateway.query("alice", "books").result.hits
        assert {hit.marketplace for hit in results} == set(platform.marketplace_names())
        assert gateway.logout("alice").ok

    def test_consumer_can_still_trade_after_an_outage(self, resilient_platform):
        platform = resilient_platform
        gateway = platform.gateway()
        assert gateway.login("alice").ok
        platform.failures.crash_host("marketplace-1")
        results = gateway.query("alice", "books").result.hits
        assert results
        hit = results[0]
        outcome = gateway.buy("alice", hit.item, marketplace=hit.marketplace).result
        assert outcome.succeeded
        assert gateway.logout("alice").ok

    def test_buyer_server_state_consistent_after_total_outage(self, resilient_platform):
        platform = resilient_platform
        gateway = platform.gateway()
        assert gateway.login("alice").ok
        for name in platform.marketplace_names():
            platform.failures.crash_host(name)
        failed = gateway.query("alice", "books")
        assert (failed.status, failed.error.code) == (ApiStatus.FAILED, "session")
        context = platform.buyer_server.context
        # Exactly one BRA for alice, either active or deactivated, never lost.
        total_bras = context.active_count("BRA") + sum(
            1 for aglet_id in context.deactivated_ids() if aglet_id.startswith("BRA-")
        )
        assert total_bras == 1
        assert gateway.logout("alice").ok

    def test_mid_itinerary_crash_is_skipped_by_the_mba(self, resilient_platform):
        """A marketplace that dies between dispatch and the visit is skipped."""
        platform = resilient_platform
        gateway = platform.gateway()
        assert gateway.login("alice").ok
        # Cut only the hop from the first stop to the second: the buyer host
        # still reaches marketplace-2, so the itinerary keeps it and the MBA
        # finds it unreachable from marketplace-1.
        platform.failures.cut_link("marketplace-1", "marketplace-2")
        results = gateway.query("alice", "books").result.hits
        assert not platform.event_log.by_category("workflow.itinerary-filtered")
        skipped_events = platform.event_log.by_category("workflow.marketplace-skipped")
        assert skipped_events
        assert all(hit.marketplace != "marketplace-2" for hit in results)
        assert gateway.logout("alice").ok


class TestLinkFailures:
    def test_cut_link_to_one_marketplace_blocks_it(self, resilient_platform):
        platform = resilient_platform
        gateway = platform.gateway()
        assert gateway.login("alice").ok
        platform.failures.cut_link("buyer-agent-server", "marketplace-2")
        failed = gateway.query("alice", "books", marketplaces=["marketplace-2"])
        assert (failed.status, failed.error.code) == (ApiStatus.UNAVAILABLE, "link-down")
        platform.failures.restore_link("buyer-agent-server", "marketplace-2")
        assert gateway.query("alice", "books", marketplaces=["marketplace-2"]).ok
        assert gateway.logout("alice").ok

    @pytest.mark.parametrize("cut", ["partition", "link"])
    def test_a_marketplace_the_buyer_host_cannot_reach_is_skipped(self, resilient_platform, cut):
        """A partition or a cut link drops the marketplace from the itinerary
        up front, as a crash does, while another one is still reachable."""
        platform = resilient_platform
        gateway = platform.gateway()
        assert gateway.login("alice").ok
        if cut == "partition":
            platform.failures.partition(["buyer-agent-server"], ["marketplace-2"])
        else:
            platform.failures.cut_link("buyer-agent-server", "marketplace-2")
        response = gateway.query("alice", "books")
        assert response.ok and response.result.hits
        assert {hit.marketplace for hit in response.result.hits} <= {"marketplace-1", "marketplace-3"}
        filtered = platform.event_log.latest("workflow.itinerary-filtered")
        assert filtered.payload["skipped"] == ["marketplace-2"]
        assert not platform.event_log.count("workflow.marketplace-skipped")
        assert gateway.logout("alice").ok

    def test_a_scheduled_cut_and_restore_move_the_itinerary(self, resilient_platform):
        platform = resilient_platform
        gateway = platform.gateway()
        assert gateway.login("alice").ok
        start = platform.now
        platform.failures.apply_plan(
            FailurePlan()
            .cut_link(start + 1.0, "buyer-agent-server", "marketplace-3")
            .restore_link(start + 1_000.0, "buyer-agent-server", "marketplace-3")
        )
        platform.scheduler.run_until(start + 1.0)
        cut = gateway.query("alice", "books").result.hits
        assert cut and "marketplace-3" not in {hit.marketplace for hit in cut}
        platform.scheduler.run_until(start + 1_000.0)
        restored = gateway.query("alice", "books").result.hits
        assert {hit.marketplace for hit in restored} == set(platform.marketplace_names())
        assert platform.event_log.count("workflow.itinerary-filtered") == 1
        assert gateway.logout("alice").ok

    def test_partition_and_heal(self, resilient_platform):
        platform = resilient_platform
        gateway = platform.gateway()
        assert gateway.login("alice").ok
        platform.failures.partition(
            ["buyer-agent-server"], ["marketplace-1", "marketplace-2", "marketplace-3"]
        )
        failed = gateway.query("alice", "books")
        assert (failed.status, failed.error.code) == (ApiStatus.UNAVAILABLE, "host-unreachable")
        platform.failures.heal()
        assert gateway.query("alice", "books").result.hits
        assert gateway.logout("alice").ok


class TestLossyNetwork:
    def test_platform_works_over_a_lossy_network_with_retries(self):
        from repro.platform.network import NetworkConfig
        from repro.ecommerce.platform_builder import PlatformConfig, ECommercePlatform

        # Loss is injected at the network level; transport retries are not used
        # by the agent runtime, so keep the probability low enough that the
        # protocol completes but high enough that the model is exercised.
        config = PlatformConfig(
            num_marketplaces=2, num_sellers=2, items_per_seller=10, seed=7,
            network=NetworkConfig(loss_probability=0.0, jitter_ms=2.0),
        )
        platform = ECommercePlatform(config)
        gateway = platform.gateway()
        assert gateway.login("alice").ok
        assert gateway.query("alice", "books").ok
        assert gateway.logout("alice").ok
        assert platform.network.total_transfers > 0
