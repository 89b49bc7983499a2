"""Integration coverage for the adversarial subsystem end to end.

Ties the three tentpole layers together on live platforms: secured
trades leave verifiable transcripts the auditor re-checks; the
adversary driver's attack mix is shed while honest chains complete in
the same scheduler drains; and the capstone ``chaos_marketplace_day``
scenario finishes with a clean, deterministic invariant audit.  Also
proves the auditor is not vacuous — a planted corruption is caught.
"""

from __future__ import annotations

import pytest

from repro.api import ApiStatus
from repro.errors import ReplayedOfferError
from repro.workload import AdversaryDriver, ConcurrentDriver, ConsumerPopulation
from repro.workload.scenarios import ScenarioRunner
from repro.adversarial.audit import InvariantAuditor
from repro.adversarial.handshake import TAMPER_MODES
from repro.ecommerce.platform_builder import build_platform

ADMISSION = {
    "reads": {"operations": ["query"], "capacity": 20, "refill_per_ms": 0.05},
    "trades": {"operations": ["join_auction"], "capacity": 8, "refill_per_ms": 0.02},
}


def _secured_platform(seed: int = 5, **overrides):
    defaults = dict(
        num_marketplaces=2,
        num_sellers=2,
        items_per_seller=10,
        seed=seed,
        num_buyer_servers=2,
        replication_factor=1,
        handshake_trades=True,
        api_admission_classes=ADMISSION,
    )
    defaults.update(overrides)
    return build_platform(**defaults)


def _attack(platform, seed: int, **inject_kwargs):
    """Inject one attack mix on its own, drain the scheduler, report."""
    driver = AdversaryDriver(platform, seed=seed)
    driver.inject(**inject_kwargs)
    platform.gateway().sessions.run_until_idle()
    return driver.collect()


class TestSecuredTrades:
    def test_every_purchase_path_leaves_a_transcript(self):
        platform = _secured_platform()
        gateway = platform.gateway()
        gateway.login("alice")
        listings = platform.marketplaces[0].catalog.listings()
        bought = gateway.buy("alice", listings[0].item)
        auctioned = gateway.join_auction(
            "alice", listings[1].item, max_price=listings[1].item.price * 3
        )
        negotiated = gateway.negotiate(
            "alice", listings[2].item, max_price=listings[2].item.price * 3
        )
        assert bought.ok and auctioned.ok and negotiated.ok

        market = platform.marketplaces[0]
        trades = [
            response.result.transaction
            for response in (bought, auctioned, negotiated)
            if getattr(response.result, "transaction", None) is not None
        ]
        assert trades, "at least the direct buy must record a transaction"
        for txn in trades:
            transcript = market.trade_handshakes[txn.transaction_id]
            assert transcript.verified
            assert transcript.handshake_id in market.handshakes.completed

        audit = InvariantAuditor(platform).audit()
        assert audit.ok, audit.violations
        assert audit.checks["handshake-backed-trades"] == len(trades)

    def test_auditor_catches_planted_corruption(self):
        platform = _secured_platform()
        gateway = platform.gateway()
        gateway.login("alice")
        item = platform.marketplaces[0].catalog.listings()[0].item
        assert gateway.buy("alice", item).ok

        market = platform.marketplaces[0]
        txn = market.transactions[0]

        # Plant 1: duplicate the marketplace ledger entry (double mint).
        market.transactions.append(txn)
        report = InvariantAuditor(platform).audit()
        assert not report.ok
        assert any("double purchase" in v for v in report.violations)
        market.transactions.pop()

        # Plant 2: strip the handshake transcript (unbacked trade).
        transcript = market.trade_handshakes.pop(txn.transaction_id)
        report = InvariantAuditor(platform).audit()
        assert any("unbacked trade" in v for v in report.violations)
        market.trade_handshakes[txn.transaction_id] = transcript

        # Restored state audits clean again.
        assert InvariantAuditor(platform).audit().ok

    def test_a_redeemed_handshake_leaves_no_session_behind(self):
        """A broker forgets each session, credential included, once its
        transcript is spent; the replay rule and the audit read what stays."""
        platform = build_platform(
            num_marketplaces=1, num_sellers=1, items_per_seller=1,
            stock_per_item=200, seed=3, handshake_trades=True,
        )
        gateway = platform.gateway()
        gateway.login("alice")
        market = platform.marketplaces[0]
        broker = market.handshakes
        item = market.catalog.listings()[0].item
        for _ in range(200):
            assert gateway.buy("alice", item).result.succeeded
        assert broker.redeemed_count == len(broker.completed) == 200
        assert broker._sessions == {}
        spent = next(iter(market.trade_handshakes.values()))
        with pytest.raises(ReplayedOfferError, match="already redeemed"):
            broker.redeem(spent)
        audit = InvariantAuditor(platform).audit()
        assert audit.ok, audit.violations
        assert audit.checks["handshake-backed-trades"] == 200

    def test_admission_order_is_pinned(self):
        """A direct buy is admitted before its stock check; auction and
        negotiation check the listing first, so a sold-out one draws no
        handshake.  Every admitted trade is redeemed, won or lost."""
        platform = build_platform(
            num_marketplaces=1, num_sellers=1, items_per_seller=4,
            stock_per_item=1, seed=3, handshake_trades=True,
        )
        gateway = platform.gateway()
        gateway.login("alice")
        gateway.login("bob")
        market = platform.marketplaces[0]
        broker = market.handshakes
        items = [listing.item for listing in market.catalog.listings()]

        def counts():
            return (broker.opened_count, broker.finalized_count, broker.redeemed_count)

        assert gateway.buy("alice", items[0]).result.succeeded
        assert counts() == (1, 1, 1)
        assert not gateway.buy("bob", items[0]).result.succeeded
        assert counts() == (2, 2, 2)
        assert len(market.trade_handshakes) == 1
        sold_out = items[0].price * 3
        assert not gateway.join_auction("bob", items[0], max_price=sold_out).result.succeeded
        assert not gateway.negotiate("bob", items[0], max_price=sold_out).result.succeeded
        assert counts() == (2, 2, 2)
        lost = gateway.join_auction("bob", items[1], max_price=items[1].price * 0.2)
        assert lost.result.outcome["won"] is False
        assert counts() == (3, 3, 3)
        failed = gateway.negotiate("bob", items[2], max_price=items[2].price * 0.2)
        assert failed.result.outcome["agreed"] is False
        assert counts() == (4, 4, 4)
        won = gateway.join_auction("alice", items[3], max_price=items[3].price * 3)
        assert won.result.outcome["won"] is True
        assert counts() == (5, 5, 5)
        assert len(market.trade_handshakes) == 2

        audit = InvariantAuditor(platform).audit()
        assert audit.ok, audit.violations
        assert audit.checks["handshake-backed-trades"] == 2


class TestAdversaryDriver:
    def test_attack_mix_is_shed_with_zero_protocol_success(self):
        platform = _secured_platform(seed=6)
        report = _attack(
            platform, 6, scalpers=5, bids_per_scalper=4, protocol_rounds=2, flood_requests=30
        )

        assert report.attacker_success_rate == 0.0
        assert report.protocol_succeeded == 0
        for tamper in TAMPER_MODES:
            assert report.protocol_attempts[tamper] == 2
            assert report.protocol_rejected[tamper] == 2
        # The admission classes shed part of the hot-auction and flood load.
        assert report.scalper_shed > 0
        assert report.flood_shed > 0
        assert report.statuses.get("rejected", 0) > 0

        counters = platform.metrics.snapshot()["counters"]
        assert counters["adversary.protocol.rejected"] == float(
            2 * len(TAMPER_MODES)
        )
        assert "adversary.protocol.succeeded" not in counters
        assert counters["adversary.scalper.shed"] == float(report.scalper_shed)
        for tamper in TAMPER_MODES:
            assert counters[f"api.auth.rejected.{tamper}"] == 2.0

    def test_honest_chains_complete_alongside_the_attack(self):
        platform = _secured_platform(seed=8)
        population = ConsumerPopulation(12, seed=8)
        adversary = AdversaryDriver(platform, seed=8)
        honest = ConcurrentDriver(platform, population, seed=8)

        adversary.inject(
            scalpers=4, bids_per_scalper=3, protocol_rounds=1, flood_requests=15
        )
        honest_report = honest.run(
            sessions=10,
            queries_per_session=1,
            arrival_rate_per_ms=0.05,
            think_time_ms=100.0,
            recommendation_probability=0.2,
        )
        attack_report = adversary.collect()

        # Honest sessions completed despite sharing the drain with attacks.
        assert honest_report.completed == honest_report.requests
        assert attack_report.attacker_success_rate == 0.0

        merged_statuses = dict(honest_report.statuses)
        for status, count in attack_report.statuses.items():
            merged_statuses[status] = merged_statuses.get(status, 0) + count
        audit = InvariantAuditor(platform).audit(
            statuses=merged_statuses, error_codes=attack_report.error_codes
        )
        assert audit.ok, audit.violations

    def test_same_seed_attacks_are_identical(self):
        reports = []
        for _ in range(2):
            platform = _secured_platform(seed=9)
            reports.append(
                _attack(platform, 9, scalpers=3, bids_per_scalper=2,
                        protocol_rounds=1, flood_requests=10).as_dict()
            )
        assert reports[0] == reports[1]


class TestChaosMarketplaceDay:
    def _run(self, seed: int = 11):
        platform = _secured_platform(seed=seed, num_buyer_servers=3)
        population = ConsumerPopulation(20, seed=seed)
        runner = ScenarioRunner(platform, population, seed=seed)
        return runner.chaos_marketplace_day(
            windows=3,
            sessions_per_window=10,
            chaos_outages=2,
            chaos_horizon_ms=4_000.0,
            chaos_mean_gap_ms=600.0,
            chaos_mean_outage_ms=1_500.0,
            scalpers=3,
            bids_per_scalper=2,
            protocol_rounds=1,
            flood_requests=10,
            seed=seed,
        )

    def test_chaos_day_finishes_with_a_clean_audit(self):
        report = self._run()
        assert report.scenario == "chaos_marketplace_day"
        assert report.audit["ok"], report.audit["violations"]
        assert report.audit["violations"] == []
        assert report.adversary["attacker_success_rate"] == 0.0
        assert report.as_dict()["adversary"]["protocol"]["succeeded"] == 0
        assert report.honest_goodput >= 0.85
        assert report.requests > 0
        assert report.outages > 0
        assert set(report.statuses) <= set(ApiStatus.ALL)
        for tamper in TAMPER_MODES:
            assert report.auth_rejections.get(tamper, 0) > 0

    def test_chaos_day_is_deterministic(self):
        assert self._run(seed=12).as_dict() == self._run(seed=12).as_dict()

    def test_chaos_day_requires_a_secured_fleet(self):
        from repro.errors import WorkloadError

        unsecured = build_platform(
            num_marketplaces=1, num_sellers=1, items_per_seller=5, seed=1,
            num_buyer_servers=2, replication_factor=1,
        )
        runner = ScenarioRunner(unsecured, ConsumerPopulation(5, seed=1), seed=1)
        with pytest.raises(WorkloadError, match="handshake_trades"):
            runner.chaos_marketplace_day(windows=1, sessions_per_window=2)

        no_fleet = build_platform(
            num_marketplaces=1, num_sellers=1, items_per_seller=5, seed=1,
            handshake_trades=True,
        )
        runner = ScenarioRunner(no_fleet, ConsumerPopulation(5, seed=1), seed=1)
        with pytest.raises(WorkloadError, match="fleet"):
            runner.chaos_marketplace_day(windows=1, sessions_per_window=2)
