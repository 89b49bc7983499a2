"""Benchmark: the marketplace under simultaneous chaos and attack.

One scenario-level measurement of the PR-10 adversarial subsystem:
``chaos_marketplace_day`` runs honest concurrent sessions against a
replicated three-server fleet with handshake-secured trades while a
seeded :class:`~repro.adversarial.chaos.ChaosSchedule` crashes and
partitions buyer servers and an
:class:`~repro.workload.adversary.AdversaryDriver` interleaves scalper
fleets, handshake protocol bots and a quota flood into the same
session-scheduler drains.  The run ends with the
:class:`~repro.adversarial.audit.InvariantAuditor` sweep, embedded
verbatim in the report.

The simulation is deterministic end to end, so the full report — chaos
event trail, per-window traffic, the adversary's fate, the
``api.auth.rejected.*`` counters and the audit — is checked in as
``BENCH_adversarial.json``, and regenerating the artifact must
reproduce it byte for byte.  The acceptance bars are the adversarial
contract itself: zero invariant violations, zero attacker success, and
an honest-goodput floor under fire.

Run ``python benchmarks/bench_adversarial.py`` to regenerate the
artifact after an intentional behaviour change.
"""

import json
import os
from pathlib import Path

from repro.api.envelope import ApiStatus
from repro.ecommerce import build_platform
from repro.workload import ConsumerPopulation, ScenarioRunner

FULL_MODE = os.environ.get("REPRO_BENCH_FULL") == "1"
ARTIFACT = Path(__file__).with_name("BENCH_adversarial.json")

SCENARIO = {
    "platform": {
        "seed": 7,
        "num_buyer_servers": 3,
        "replication_factor": 1,
        "handshake_trades": True,
        "api_admission_classes": {
            "reads": {"operations": ["query"], "capacity": 30, "refill_per_ms": 0.05},
            "trades": {
                "operations": ["join_auction"],
                "capacity": 12,
                "refill_per_ms": 0.02,
            },
        },
    },
    "population": 40,
    "seed": 7,
    "run": {
        "windows": 6,
        "sessions_per_window": 25,
        "queries_per_session": 1,
        "chaos_outages": 3,
        "chaos_horizon_ms": 10_000.0,
        "chaos_mean_gap_ms": 1_000.0,
        "chaos_mean_outage_ms": 2_500.0,
        "scalpers": 6,
        "bids_per_scalper": 3,
        "protocol_rounds": 2,
        "flood_requests": 30,
    },
}

#: Honest requests answered (ok/degraded) even under chaos + attack.
GOODPUT_FLOOR = 0.85

#: Window count used by the quick smoke test.
SMOKE_WINDOWS = 2


def run_scenario(windows=None) -> dict:
    """Run the chaos day on a fresh platform; return config + report."""
    spec = SCENARIO
    platform = build_platform(**spec["platform"])
    population = ConsumerPopulation(spec["population"], seed=spec["platform"]["seed"])
    runner = ScenarioRunner(platform, population, seed=spec["seed"])
    run_args = dict(spec["run"])
    run_args["seed"] = spec["seed"]
    if windows is not None:
        run_args["windows"] = windows
    report = runner.chaos_marketplace_day(**run_args)
    return {
        "config": {
            "platform": spec["platform"],
            "population": spec["population"],
            "seed": spec["seed"],
            "run": spec["run"],
        },
        "report": report.as_dict(),
    }


def generate_payload() -> dict:
    return {
        "benchmark": "adversarial",
        "scenarios": {"chaos_marketplace_day": run_scenario()},
    }


def render(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_chaos_marketplace_smoke(benchmark):
    """Wall-clock cost of a smoke-sized chaos day + shape of the report."""
    outcome = benchmark.pedantic(
        lambda: run_scenario(windows=SMOKE_WINDOWS),
        rounds=1,
        iterations=1,
    )
    report = outcome["report"]
    assert report["scenario"] == "chaos_marketplace_day"
    assert report["requests"] > 0
    assert report["adversary"]["attacker_success_rate"] == 0.0
    assert report["audit"]["ok"], report["audit"]["violations"]


def test_artifact_matches_regeneration():
    """The checked-in artifact must reproduce byte for byte.

    The regression gate for the adversarial stack: the chaos schedule's
    RNG draws, the handshake broker's nonce/credential streams, the
    attack interleaving and the audit sweep all feed these bytes.
    """
    regenerated = render(generate_payload())
    checked_in = ARTIFACT.read_text()
    assert regenerated == checked_in, (
        "BENCH_adversarial.json drifted from regeneration — if the "
        "change is intentional, refresh it with "
        "`python benchmarks/bench_adversarial.py`"
    )


def test_artifact_meets_acceptance_bars():
    """The checked-in report must show the adversarial contract holding."""
    payload = json.loads(ARTIFACT.read_text())
    report = payload["scenarios"]["chaos_marketplace_day"]["report"]
    audit = report["audit"]

    # The invariant audit is clean: no double purchase, no lost paid
    # transaction, balanced ledgers, closed taxonomy, handshake-backed
    # trades — and it actually checked all of those.
    assert audit["ok"] and audit["violations"] == []
    for invariant in (
        "unique-transaction-ids",
        "no-lost-paid-transaction",
        "ledger-balance-totals",
        "replica-ledgers",
        "envelope-statuses",
        "envelope-error-codes",
        "handshake-backed-trades",
    ):
        assert audit["checks"].get(invariant, 0) > 0, invariant

    # Every protocol attack was refused with its own typed rejection;
    # none succeeded.
    assert report["adversary"]["attacker_success_rate"] == 0.0
    adversary = report["adversary"]
    assert adversary["protocol"]["succeeded"] == 0
    for kind in ("forged-nonce", "replayed-offer", "double-finalize",
                 "stale-credential"):
        assert adversary["protocol"]["rejected"].get(kind, 0) > 0, kind
        assert report["auth_rejections"].get(kind, 0) > 0, kind

    # Chaos actually happened — faults overlapped traffic — and honest
    # goodput stayed above the floor anyway.
    assert report["outages"] > 0
    assert any(window["hosts_down"] for window in report["windows"])
    assert report["honest_goodput"] >= GOODPUT_FLOOR
    assert set(report["statuses"]) <= set(ApiStatus.ALL)


if __name__ == "__main__":
    ARTIFACT.write_text(render(generate_payload()))
    print(f"wrote {ARTIFACT}")
