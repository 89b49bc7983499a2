#!/usr/bin/env bash
# Tier-1 CI gate: the whole test suite in one leg, the benchmark smokes, the
# figure / capability benchmarks with timing disabled, the wall-clock ledger
# digests, the examples and the experiments (each stdout diffed against its
# golden in examples/expected/) and the reachability ledger.
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
#
# Every leg after the test suite runs an entry point of the system with the
# reachability hook (scripts/reach_hook) switched on; the last leg checks
# what they reached against REACHABILITY.json (scripts/reachability.py).
# The hook makes those legs ~2.5-3x slower; the test suite runs unhooked.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
reach_dir="$(mktemp -d)"
trap 'rm -rf "${reach_dir}"' EXIT
hooked() {
  PYTHONPATH="${PWD}/scripts/reach_hook:${PYTHONPATH}" REPRO_REACH_OUT="${reach_dir}" "$@"
}

echo "== tier-1: unit + property + integration tests (20 slowest on record; =="
echo "==         a DeprecationWarning is an error)                          =="
python -m pytest -x -q --durations=20 -W error::DeprecationWarning tests

echo "== tier-1: benchmark smokes (a DeprecationWarning is an error)   =="
echo "== tier-1: benchmark smoke (neighbor index scaling + scoring-  =="
echo "==         kernel trajectory: deterministic block must        =="
echo "==         regenerate byte-for-byte, recorded full-mode       =="
echo "==         timings must hold the dict-vs-brute floor)         =="
hooked python -m pytest -x -q -W error::DeprecationWarning benchmarks/bench_neighbors_scaling.py

echo "== tier-1: benchmark smoke (concurrent load + artifact reproduction) =="
hooked python -m pytest -x -q -W error::DeprecationWarning benchmarks/bench_concurrent_load.py

echo "== tier-1: benchmark smoke (saturation sweep: artifact reproduction, =="
echo "==         goodput knee, closed taxonomy, shed/rejected agreement)   =="
hooked python -m pytest -x -q -W error::DeprecationWarning benchmarks/bench_saturation_sweep.py

echo "== tier-1: benchmark smoke (elastic fleet + artifact reproduction) =="
hooked python -m pytest -x -q -W error::DeprecationWarning benchmarks/bench_elastic_fleet.py

echo "== tier-1: benchmark smoke (adversarial chaos day + artifact reproduction) =="
hooked python -m pytest -x -q -W error::DeprecationWarning benchmarks/bench_adversarial.py

echo "== tier-1: memory ledger (tracemalloc bytes per consumer per module, =="
echo "==         each reading after a full gc.collect(); the WAL-retained   =="
echo "==         and truncated totals and core/profile.py must stay under   =="
echo "==         their bars; the WAL holds one profile version per consumer;=="
echo "==         platform/events.py is the event log's fixed ring over the  =="
echo "==         community size)                                            =="
hooked python -m pytest -x -q -s -W error::DeprecationWarning benchmarks/bench_memory.py

echo "== tier-1: figure and capability benchmarks (timing disabled: every  =="
echo "==         experiment must still run and assert its rows)            =="
hooked python -m pytest -x -q --benchmark-disable -W error::DeprecationWarning \
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
  hooked python3 benchmarks/wallclock/run.py --workload "${workload}" --seed "${seed}" \
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

echo "== tier-1: example runs (each stdout must equal examples/expected/; =="
echo "==         a DeprecationWarning is an error)                       =="
for example in examples/*.py; do
  echo "-- ${example}"
  hooked python -W error::DeprecationWarning "${example}" \
    | diff -u "examples/expected/$(basename "${example}" .py).txt" -
done

echo "== tier-1: experiments (every figure and capability experiment, quick =="
echo "==         parameters; stdout must equal                           =="
echo "==         examples/expected/experiments_quick.txt; a              =="
echo "==         DeprecationWarning is an error)                         =="
hooked python -W error::DeprecationWarning -m repro.experiments --quick \
  | diff -u examples/expected/experiments_quick.txt -

echo "== tier-1: reachability ledger (every src/repro function an entry point =="
echo "==         leaves unreached, and every PlatformConfig field none sets, =="
echo "==         is listed in REACHABILITY.json with a reason; nothing more) =="
python3 scripts/reachability.py "${reach_dir}"

echo "ci_check: OK"
