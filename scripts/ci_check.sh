#!/usr/bin/env bash
# Tier-1 CI gate: the whole test suite in one leg, the benchmark smokes, the
# figure / capability benchmarks with timing disabled, the wall-clock ledger
# digests and the examples.
# The gateway, concurrent, flash-crowd and adversarial smokes are pytest
# tests (test_api_gateway.py, test_concurrent_report.py,
# test_elastic_fleet.py, test_adversarial_subsystem.py and the matching
# benchmarks/bench_*.py artifact bars), run by the test and benchmark legs.
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

echo "== tier-1: unit + property + integration tests (20 slowest on record; =="
echo "==         a DeprecationWarning is an error)                          =="
python -m pytest -x -q --durations=20 -W error::DeprecationWarning tests

echo "== tier-1: benchmark smokes (a DeprecationWarning is an error)   =="
echo "== tier-1: benchmark smoke (neighbor index scaling + scoring-  =="
echo "==         kernel trajectory: deterministic block must        =="
echo "==         regenerate byte-for-byte, recorded full-mode       =="
echo "==         timings must hold the dict-vs-brute floor)         =="
python -m pytest -x -q -W error::DeprecationWarning benchmarks/bench_neighbors_scaling.py

echo "== tier-1: benchmark smoke (concurrent load + artifact reproduction) =="
python -m pytest -x -q -W error::DeprecationWarning benchmarks/bench_concurrent_load.py

echo "== tier-1: benchmark smoke (saturation sweep: artifact reproduction, =="
echo "==         goodput knee, closed taxonomy, shed/rejected agreement)   =="
python -m pytest -x -q -W error::DeprecationWarning benchmarks/bench_saturation_sweep.py

echo "== tier-1: benchmark smoke (elastic fleet + artifact reproduction) =="
python -m pytest -x -q -W error::DeprecationWarning benchmarks/bench_elastic_fleet.py

echo "== tier-1: benchmark smoke (adversarial chaos day + artifact reproduction) =="
python -m pytest -x -q -W error::DeprecationWarning benchmarks/bench_adversarial.py

echo "== tier-1: memory ledger (tracemalloc bytes per consumer per module; =="
echo "==         the total and core/profile.py must stay under their bars)  =="
python -m pytest -x -q -s -W error::DeprecationWarning benchmarks/bench_memory.py

echo "== tier-1: figure and capability benchmarks (timing disabled: every  =="
echo "==         experiment must still run and assert its rows)            =="
python -m pytest -x -q --benchmark-disable -W error::DeprecationWarning \
  benchmarks/bench_fig31_platform.py \
  benchmarks/bench_fig32_mechanism.py \
  benchmarks/bench_fig41_creation.py \
  benchmarks/bench_fig42_query.py \
  benchmarks/bench_fig43_buy_auction.py \
  benchmarks/bench_fig45_similarity.py \
  benchmarks/bench_cap2_multimarket.py \
  benchmarks/bench_cap4_quality.py \
  benchmarks/bench_ablation_similarity.py

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

echo "== tier-1: example smoke runs (a DeprecationWarning is an error) =="
for example in examples/*.py; do
  echo "-- ${example}"
  python -W error::DeprecationWarning "${example}" >/dev/null
done

echo "ci_check: OK"
