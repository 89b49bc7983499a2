#!/usr/bin/env bash
# Tier-1 CI gate: the whole test suite in one leg, the numpy-hidden backend
# leg, the benchmark smokes, the wall-clock ledger digests, the examples and
# the scenario smokes.
#
# Usage: scripts/ci_check.sh
#
# The benchmarks run in smoke mode (small populations, <10s total) but still
# assert brute-force equivalence of the indexed path; export
# REPRO_BENCH_FULL=1 to run the 5000-consumer scaling check instead (where
# the wall-clock bars of benchmarks/bench_neighbors_scaling.py are enforced
# too).
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: unit + property + integration tests (20 slowest on record) =="
python -m pytest -x -q --durations=20 tests

echo "== tier-1 (numpy hidden): backend selection + index suites under =="
echo "==   REPRO_NO_NUMPY=1 — the first leg already scores through the  =="
echo "==   default dict kernel, so only the selection plumbing differs  =="
REPRO_NO_NUMPY=1 python -m pytest -x -q \
  tests/property/test_scoring_kernel.py \
  tests/property/test_elastic_byte_identity.py \
  tests/property/test_neighbor_index.py \
  tests/unit/test_neighbors.py

echo "== tier-1: benchmark smoke (neighbor index scaling + scoring-  =="
echo "==         kernel trajectory: deterministic block must        =="
echo "==         regenerate byte-for-byte, recorded full-mode       =="
echo "==         timings must hold the dict-vs-brute floor)         =="
python -m pytest -x -q benchmarks/bench_neighbors_scaling.py

echo "== tier-1: benchmark smoke (concurrent load + artifact reproduction) =="
python -m pytest -x -q benchmarks/bench_concurrent_load.py

echo "== tier-1: benchmark smoke (saturation sweep: artifact reproduction, =="
echo "==         goodput knee, closed taxonomy, shed/rejected agreement)   =="
python -m pytest -x -q benchmarks/bench_saturation_sweep.py

echo "== tier-1: benchmark smoke (elastic fleet + artifact reproduction) =="
python -m pytest -x -q benchmarks/bench_elastic_fleet.py

echo "== tier-1: benchmark smoke (adversarial chaos day + artifact reproduction) =="
python -m pytest -x -q benchmarks/bench_adversarial.py

echo "== tier-1: wall-clock ledger digests (full-scale fixed phase of every =="
echo "==         workload must be correct and reproduce expected/*.json, =="
echo "==         each on two seeds)                                      =="
for run in browse:1 browse:2 trade:1 trade:2 similar_fanout:1 similar_fanout:2 \
           overload_submit:1 overload_submit:2 \
           fleet_maintenance:1 fleet_maintenance:2; do
  workload="${run%:*}" seed="${run#*:}"
  python3 benchmarks/wallclock/run.py --workload "${workload}" --seed "${seed}" \
      --seconds 1 --trace 1 | tail -n 1 | WORKLOAD="${workload} seed ${seed}" python3 -c '
import json, os, sys
result = json.loads(sys.stdin.readline())
digest = result["metrics"]["sim.digest_match"]["value"]
assert result["correct"] is True and result["failed"] == 0, result
assert digest == 1.0, f"sim.digest_match is {digest}, expected 1.0"
print("-- " + os.environ["WORKLOAD"] + ": correct, digest matches,",
      result["attempted"], "operations")
'
done

echo "== tier-1: example smoke runs (deprecation-clean: examples must not =="
echo "==         touch the shimmed legacy session/fleet methods)         =="
for example in examples/*.py; do
  echo "-- ${example}"
  python -W error::DeprecationWarning "${example}" >/dev/null
done

echo "== tier-1: gateway smoke (one request per operation type) =="
python - <<'PY'
from repro import build_platform
from repro.api import ApiStatus

platform = build_platform(seed=5, num_buyer_servers=3, replication_factor=1,
                          api_admission_capacity=64)
gateway = platform.gateway()
keyword = next(iter(platform.catalog_view())).terms[0][0]

ok = [
    gateway.register("smoke-reg"),
    gateway.login("smoke"),
    gateway.query("smoke", keyword),
]
hit = ok[-1].result.hits[0]
ok += [
    gateway.buy("smoke", hit.item, marketplace=hit.marketplace),
    gateway.join_auction("smoke", hit.item, max_price=hit.price * 1.5,
                         marketplace=hit.marketplace),
    gateway.negotiate("smoke", hit.item, max_price=hit.price,
                      marketplace=hit.marketplace),
    gateway.rate("smoke", hit.item, 4.0),
    gateway.recommendations("smoke", k=5),
    gateway.weekly_hottest("smoke", k=5),
    gateway.cross_sell("smoke", k=3),
    gateway.find_similar("smoke"),
    gateway.admin_stats(),
    gateway.logout("smoke"),
]
for resp in ok:
    assert resp.ok, (resp.operation, resp.status, resp.error)
    assert resp.status == ApiStatus.OK, (resp.operation, resp.status)
    assert resp.error is None and resp.result is not None

# The failure side of the taxonomy: failed / unavailable / rejected.
failed = gateway.query("never-logged-in", keyword)
assert failed.status == ApiStatus.FAILED and failed.error.code == "unknown-user"
over_budget = gateway.find_similar("smoke-reg", deadline_ms=1e-6)
assert over_budget.status == ApiStatus.UNAVAILABLE, over_budget.status
assert over_budget.error.code == "deadline-exceeded"
for server in platform.buyer_servers:
    platform.failures.crash_host(server.name)
down = gateway.login("smoke-2")
assert down.status == ApiStatus.UNAVAILABLE, (down.status, down.error)
statuses = {s for s in (r.status for r in ok)} | {failed.status, down.status}
assert statuses <= set(ApiStatus.ALL)
print("gateway smoke: OK —", len(ok), "operations ok,",
      f"taxonomy covered: {sorted(statuses)}")
PY

echo "== tier-1: concurrent-scenario smoke (overlap must shed, queue, =="
echo "==         and report taxonomy-clean statuses)                  =="
python - <<'PY'
from repro import build_platform
from repro.api import ApiStatus
from repro.workload.consumers import ConsumerPopulation
from repro.workload.scenarios import ScenarioRunner

platform = build_platform(seed=11, num_buyer_servers=4, replication_factor=1,
                          api_admission_capacity=40,
                          api_admission_refill_per_ms=0.2)
runner = ScenarioRunner(platform, ConsumerPopulation(400, groups=4, seed=11),
                        seed=11)
report = runner.concurrent_day(sessions=300, queries_per_session=2,
                               arrival_rate_per_ms=0.15, think_time_ms=150.0,
                               seed=11)
d = report.as_dict()
# A shed request completed nothing: requests == completed + shed, always.
assert d["sessions"] == 300 and d["completed"] == d["requests"] - d["shed"], d
# Overlap was real: admission shed some of it and queues formed.
assert d["shed"] > 0 and 0.0 < report.shed_rate < 1.0, d
assert d["queue_wait_ms"]["count"] > 0 and d["queue_wait_ms"]["max"] > 0.0, d
# Latency stats populated, over dispatched requests only.
assert d["latency_ms"]["count"] == d["completed"] > 0, d
# Cumulative histogram: monotone counts, +Inf bucket holds the total.
counts = [b["count"] for b in d["histogram"]]
assert counts == sorted(counts) and counts[-1] == d["latency_ms"]["count"], d
# Taxonomy-clean: every reported status is in the closed ApiStatus set.
assert set(d["statuses"]) <= set(ApiStatus.ALL), d["statuses"]
assert d["statuses"].get(ApiStatus.REJECTED, 0) == d["shed"], d["statuses"]
# The sequential scenarios' path never engaged the session layer's queues
# before this run, and the metrics middleware kept shed requests out of the
# latency timers.
lat = platform.metrics.timer("api.latency_ms").summary()
assert lat["count"] == d["latency_ms"]["count"], lat
print("concurrent_day smoke: OK —", d["requests"], "requests,",
      f"shed {report.shed_rate:.1%}, queue p95 {d['queue_wait_ms']['p95']:.0f}ms,",
      f"latency p95 {d['latency_ms']['p95']:.0f}ms")
PY

echo "== tier-1: flash-crowd smoke (autoscaler must scale out on the spike, =="
echo "==         drain back to the founding floor, and lose nobody)         =="
python - <<'PY'
import json
from pathlib import Path

from repro import build_platform
from repro.api import ApiStatus
from repro.ecommerce import AutoscalerPolicy
from repro.workload.consumers import ConsumerPopulation
from repro.workload.scenarios import ScenarioRunner

platform = build_platform(seed=5, num_buyer_servers=3, replication_factor=1)
runner = ScenarioRunner(platform, ConsumerPopulation(120, seed=5), seed=5)
report = runner.flash_crowd_day(sessions_per_window=60,
                                policy=AutoscalerPolicy(cooldown_ticks=1))
d = report.as_dict()
assert d["peak_servers"] > d["initial_servers"], d["fleet_sizes"]
assert d["final_servers"] == d["initial_servers"], d["fleet_sizes"]
actions = [decision["action"] for decision in d["decisions"]]
assert "scale-out" in actions and "scale-in" in actions, actions
assert d["splits"] + d["handbacks"] > 0, d
assert d["lost_consumers"] == 0 and d["missing_consumers"] == 0, d
assert set(d["statuses"]) <= set(ApiStatus.ALL), d["statuses"]
assert d["epoch_trail"] == sorted(d["epoch_trail"]), d["epoch_trail"]

# The checked-in elastic artifact must keep holding the same bars.
payload = json.loads(Path("benchmarks/BENCH_elastic_fleet.json").read_text())
flash = payload["scenarios"]["flash_crowd"]["report"]
upgrade = payload["scenarios"]["rolling_upgrade"]["report"]
assert flash["peak_servers"] > flash["initial_servers"] == flash["final_servers"]
assert {"scale-out", "scale-in"} <= {x["action"] for x in flash["decisions"]}
upgrades = [w for w in upgrade["windows"] if "server" in w]
assert upgrades and all(w["ownership_restored"] for w in upgrades)
for rep in (flash, upgrade):
    assert rep["lost_consumers"] == 0 and rep["missing_consumers"] == 0
    assert set(rep["statuses"]) <= set(ApiStatus.ALL)
    assert rep["epoch_trail"] == sorted(rep["epoch_trail"])
print("flash crowd smoke: OK —",
      f"fleet {d['fleet_sizes']}, epochs {d['epoch_trail']},",
      f"{d['transferred_consumers']} consumers migrated live, 0 lost;",
      "artifact bars hold")
PY

echo "== tier-1: adversarial chaos smoke (invariants + attack shedding) =="
python - <<'PY'
import json
from pathlib import Path

from repro import build_platform
from repro.api import ApiStatus
from repro.workload.consumers import ConsumerPopulation
from repro.workload.scenarios import ScenarioRunner

platform = build_platform(seed=11, num_buyer_servers=3, replication_factor=1,
                          handshake_trades=True)
runner = ScenarioRunner(platform, ConsumerPopulation(20, seed=11), seed=11)
report = runner.chaos_marketplace_day(
    windows=3, sessions_per_window=10,
    chaos_outages=2, chaos_horizon_ms=4000.0,
    chaos_mean_gap_ms=600.0, chaos_mean_outage_ms=1500.0,
    scalpers=3, bids_per_scalper=2, protocol_rounds=1, flood_requests=10,
    seed=11)
d = report.as_dict()
# Acceptance bars: clean invariant audit, zero attacker success, honest
# goodput floor — under real chaos (faults actually landed).
assert d["audit"]["ok"] and d["audit"]["violations"] == [], d["audit"]
assert d["attacker_success_rate"] == 0.0, d["adversary"]
assert d["adversary"]["protocol"]["succeeded"] == 0, d["adversary"]
assert d["honest_goodput"] >= 0.85, d["honest_goodput"]
assert d["outages"] > 0, d
assert set(d["statuses"]) <= set(ApiStatus.ALL), d["statuses"]
for kind in ("forged-nonce", "replayed-offer", "double-finalize",
             "stale-credential"):
    assert d["auth_rejections"].get(kind, 0) > 0, d["auth_rejections"]

# The checked-in adversarial artifact must keep holding the same bars.
payload = json.loads(Path("benchmarks/BENCH_adversarial.json").read_text())
rep = payload["scenarios"]["chaos_marketplace_day"]["report"]
assert rep["audit"]["ok"] and rep["audit"]["violations"] == []
assert rep["attacker_success_rate"] == 0.0
assert rep["honest_goodput"] >= 0.85
assert rep["outages"] > 0
print("chaos_marketplace_day: OK —",
      f"goodput {d['honest_goodput']:.3f}, {d['outages']} outages,",
      f"{sum(d['auth_rejections'].values())} attacks refused, audit clean;",
      "artifact bars hold")
PY

echo "ci_check: OK"
