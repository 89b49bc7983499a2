"""Benchmark: brute-force vs indexed similar-user search across populations.

The Figure 4.5 similarity search is the mechanism's hot path; this benchmark
measures how the :class:`~repro.core.neighbors.ProfileNeighborIndex` scales
against the brute-force scan as the consumer community grows, verifying at
every size that the two return identical ranked neighbor lists.

Two modes, both pytest-runnable:

- **smoke** (default): small populations, finishes in a few seconds, suitable
  for tier-1 CI (``scripts/ci_check.sh`` runs it).
- **full**: set ``REPRO_BENCH_FULL=1`` to scale to 5000 consumers, where the
  indexed path is required to be at least 5x faster than brute force.

The **scoring-kernel trajectory** times the same indexed search through the
scoring kernel (category-signature partitions pruned by block-max bounds)
up to 50 000 consumers in full mode, equivalence-checked against brute force
up to 5000.  The trajectory is checked in as ``BENCH_neighbors_scaling.json``
— a byte-reproducible ``deterministic`` block (score checksums; regenerated
and compared by CI at smoke sizes) plus a ``measured`` block recording the
full-mode timings (wall-clock, so recorded once, validated by invariants
rather than re-timed).  Regenerate with ``REPRO_BENCH_FULL=1 python
benchmarks/bench_neighbors_scaling.py`` after an intentional change.
"""

import hashlib
import json
import os
import time
from pathlib import Path

import pytest

from repro.core.neighbors import ProfileNeighborIndex
from repro.core.similarity import SimilarityConfig, find_similar_users
from repro.experiments.harness import ExperimentResult, build_standard_dataset

FULL_MODE = os.environ.get("REPRO_BENCH_FULL") == "1"
POPULATION_SIZES = (1000, 2500, 5000) if FULL_MODE else (150, 400)
ARTIFACT = Path(__file__).with_name("BENCH_neighbors_scaling.json")
#: Scoring-kernel trajectory sizes.  Brute force is never run past
#: :data:`KERNEL_BRUTE_CEILING` consumers (it would dominate the run for no
#: information — the indexed path is equivalence-checked against brute
#: force at every smaller size).
KERNEL_SIZES = (1000, 5000, 50000) if FULL_MODE else (150, 400)
KERNEL_SMOKE_SIZES = (150, 400)
KERNEL_BRUTE_CEILING = 5000
#: Sanity floor: the ``dict`` kernel must beat brute force by at
#: least this factor at 5000 consumers (full mode only; the checked-in
#: artifact records the measured value).  It catches an index that fell back
#: to quadratic work, nothing finer: three full-mode recordings of the
#: posting-list kernel read 18.2x, 24.3x and 28.1x, two of the partitioned
#: kernel that screens rows on their term walk 26.4x and 25.0x (the last is
#: checked in), and the per-candidate dict loops before them were recorded
#: at 19.1x, inside that spread — so this bar would still pass with any of
#: them reverted.  The regression guard for a kernel gain is ``throughput_rps`` on
#: the wall-clock ledger's ``similar_fanout`` workload (paired runs against
#: the parent commit), not this ratio of two noisy timings.
DICT_REQUIRED_SPEEDUP_VS_BRUTE = 15.0
#: Minimum indexed-vs-brute speedup demanded at the largest population.
#: Enforced only in full mode: wall-clock assertions on a loaded CI runner
#: would flake, so the smoke run asserts equivalence and merely reports
#: timings (typically ~20x even at smoke sizes).
REQUIRED_SPEEDUP = 5.0
#: How many (target, category) queries are averaged per measurement.
QUERIES = 6


def _build_profiles(consumers: int):
    dataset = build_standard_dataset(
        num_consumers=consumers,
        num_items=120,
        events_per_user=8,
        seed=37,
    )
    profiles = dataset.build_profiles()
    return dataset, profiles


def _query_plan(dataset, profiles):
    """A deterministic mix of open and category-filtered searches."""
    targets = [profiles[user_id] for user_id in dataset.users[:QUERIES]]
    plan = []
    for position, target in enumerate(targets):
        if position % 2 == 0:
            plan.append((target, None))
        else:
            names = target.category_names()
            plan.append((target, names[0] if names else None))
    return plan


def _timed(callable_):
    started = time.perf_counter()
    result = callable_()
    return result, (time.perf_counter() - started) * 1000.0


def run_scaling_experiment(population_sizes=POPULATION_SIZES) -> ExperimentResult:
    """Brute vs indexed latency per population size (medians over the plan)."""
    result = ExperimentResult(
        name="neighbor-index-scaling",
        description="brute-force vs indexed similar-user search latency",
    )
    config = SimilarityConfig(top_k=10)
    for consumers in population_sizes:
        dataset, profiles = _build_profiles(consumers)
        plan = _query_plan(dataset, profiles)

        brute_ms = 0.0
        brute_results = []
        for target, category in plan:
            neighbours, elapsed = _timed(
                lambda t=target, c=category: find_similar_users(
                    t, profiles.values(), config, category=c
                )
            )
            brute_results.append(neighbours)
            brute_ms += elapsed

        index = ProfileNeighborIndex(provider=profiles.values, config=config)
        _, build_ms = _timed(index.sync)
        indexed_ms = 0.0
        for position, (target, category) in enumerate(plan):
            neighbours, elapsed = _timed(
                lambda t=target, c=category: index.find_similar(t, category=c)
            )
            indexed_ms += elapsed
            assert neighbours == brute_results[position], (
                f"indexed search diverged from brute force at {consumers} "
                f"consumers (target={target.user_id!r}, category={category!r})"
            )

        brute_avg = brute_ms / len(plan)
        indexed_avg = indexed_ms / len(plan)
        result.add_row(
            consumers=consumers,
            brute_ms=round(brute_avg, 3),
            indexed_ms=round(indexed_avg, 3),
            index_build_ms=round(build_ms, 3),
            speedup=round(brute_avg / indexed_avg, 1) if indexed_avg > 0 else float("inf"),
        )
    result.add_note(
        "speedup = per-query brute-force latency / indexed latency; the index "
        "is built once and reused, matching how RecommendationService uses it"
    )
    result.add_note(f"mode: {'full' if FULL_MODE else 'smoke'} (REPRO_BENCH_FULL=1 for full)")
    return result


def test_neighbor_index_scaling(experiment_reporter):
    result = run_scaling_experiment()
    experiment_reporter(result)

    speedups = result.column("speedup")
    largest = result.rows[-1]
    assert largest["consumers"] == POPULATION_SIZES[-1]
    # Equivalence was asserted per query inside run_scaling_experiment; the
    # timing bar only applies in full mode, where the populations are large
    # enough for wall-clock measurements to be stable.
    if FULL_MODE:
        assert largest["speedup"] >= REQUIRED_SPEEDUP, (
            f"indexed search must be ≥{REQUIRED_SPEEDUP}x faster than brute "
            f"force at {largest['consumers']} consumers, measured "
            f"{largest['speedup']}x"
        )
        # The advantage must not collapse as the population grows.
        assert min(speedups) > 1.0


# ---------------------------------------------------------------------------
# Scoring-kernel trajectory + checked-in artifact
# ---------------------------------------------------------------------------


#: Timed passes averaged per measurement (after one untimed warm pass, so
#: the numbers are steady-state — the index and its per-target caches are
#: built once and reused, exactly how RecommendationService serves).
KERNEL_TIMING_ROUNDS = 3


def _kernel_query_plan(dataset, profiles):
    """Open (category=None) searches only: the kernel trajectory measures
    full-population block scoring; category-filtered queries are timed by
    the other experiments."""
    return [(profiles[user_id], None) for user_id in dataset.users[:QUERIES]]


def _ranking_checksum(rankings) -> str:
    """Stable digest of ranked (user_id, score) lists — float bit patterns
    included, so any scoring divergence changes the checksum."""
    blob = repr(rankings).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def run_kernel_point(consumers: int):
    """One trajectory point: the kernel's timing, equivalence-checked.

    Returns ``(deterministic_row, measured_row)``.
    """
    config = SimilarityConfig(top_k=10)
    dataset, profiles = _build_profiles(consumers)
    plan = _kernel_query_plan(dataset, profiles)

    # Determinism, then steady-state timing: the first pass is untimed (it
    # warms the caches) and gives the rankings; then the timed rounds run.
    index = ProfileNeighborIndex(provider=profiles.values, config=config)
    index.sync()
    rankings = [index.find_similar(target, category=category) for target, category in plan]
    total_ms = 0.0
    for _ in range(KERNEL_TIMING_ROUNDS):
        for target, category in plan:
            _, elapsed = _timed(
                lambda t=target, c=category: index.find_similar(t, category=c)
            )
            total_ms += elapsed
    dict_ms = total_ms / (len(plan) * KERNEL_TIMING_ROUNDS)

    brute_ms = None
    if consumers <= KERNEL_BRUTE_CEILING:
        total = 0.0
        for position, (target, category) in enumerate(plan):
            neighbours, elapsed = _timed(
                lambda t=target, c=category: find_similar_users(
                    t, profiles.values(), config, category=c
                )
            )
            total += elapsed
            assert neighbours == rankings[position]
        brute_ms = round(total / len(plan), 3)

    deterministic_row = {
        "consumers": consumers,
        "queries": len(plan),
        "score_checksum": _ranking_checksum(rankings),
    }
    measured_row = {
        "consumers": consumers,
        "dict_ms": round(dict_ms, 3),
        "brute_ms": brute_ms,
        "dict_vs_brute": round(brute_ms / dict_ms, 1) if brute_ms is not None else None,
    }
    return deterministic_row, measured_row


def run_kernel_trajectory(sizes=KERNEL_SIZES):
    """(deterministic rows, measured rows, reportable ExperimentResult)."""
    result = ExperimentResult(
        name="scoring-kernel-trajectory",
        description="scoring-kernel indexed search latency",
    )
    deterministic, measured = [], []
    for consumers in sizes:
        det_row, meas_row = run_kernel_point(consumers)
        deterministic.append(det_row)
        measured.append(meas_row)
        result.add_row(**{**det_row, **meas_row})
    result.add_note(
        "equivalence with brute force (rankings, float bit patterns) is "
        f"asserted per point up to {KERNEL_BRUTE_CEILING} consumers"
    )
    result.add_note(f"mode: {'full' if FULL_MODE else 'smoke'}")
    return deterministic, measured, result


def generate_kernel_payload() -> dict:
    """The checked-in artifact: smoke-size deterministic block (regenerated
    byte-for-byte by CI) + full-mode measured trajectory (recorded once)."""
    deterministic, _, _ = run_kernel_trajectory(sizes=KERNEL_SMOKE_SIZES)
    _, measured, _ = run_kernel_trajectory(sizes=KERNEL_SIZES)
    return {
        "benchmark": "neighbors_scaling_kernels",
        "config": {
            "top_k": 10,
            "queries": QUERIES,
            "dataset_seed": 37,
        },
        "deterministic": {
            "sizes": list(KERNEL_SMOKE_SIZES),
            "rows": deterministic,
        },
        "measured": {
            "mode": "full" if FULL_MODE else "smoke",
            "required_dict_vs_brute_at_5000": DICT_REQUIRED_SPEEDUP_VS_BRUTE,
            "sizes": list(KERNEL_SIZES),
            "rows": measured,
        },
    }


def render_deterministic(rows) -> str:
    return json.dumps(rows, indent=2, sort_keys=True)


def test_kernel_trajectory_equivalence(experiment_reporter):
    """Smoke: the kernel equals brute force at every size.  Full: it must be
    fast."""
    _, measured, result = run_kernel_trajectory()
    experiment_reporter(result)
    if FULL_MODE:
        at_5k = next(r for r in measured if r["consumers"] == 5000)
        assert at_5k["dict_vs_brute"] >= DICT_REQUIRED_SPEEDUP_VS_BRUTE, (
            f"dict kernel must be ≥{DICT_REQUIRED_SPEEDUP_VS_BRUTE}x over brute "
            f"force at 5000 consumers, measured {at_5k['dict_vs_brute']}x"
        )


def test_artifact_deterministic_block_matches_regeneration():
    """The checked-in deterministic block must reproduce byte for byte —
    scores and checksums are seeded, so any drift is a real
    scoring change (regenerate with REPRO_BENCH_FULL=1 python
    benchmarks/bench_neighbors_scaling.py if intentional)."""
    payload = json.loads(ARTIFACT.read_text())
    regenerated, _, _ = run_kernel_trajectory(sizes=KERNEL_SMOKE_SIZES)
    assert render_deterministic(regenerated) == render_deterministic(
        payload["deterministic"]["rows"]
    )
    assert payload["deterministic"]["sizes"] == list(KERNEL_SMOKE_SIZES)


def test_artifact_records_full_kernel_trajectory():
    """The checked-in measured block pins the kernel acceptance bar."""
    payload = json.loads(ARTIFACT.read_text())
    measured = payload["measured"]
    assert measured["mode"] == "full"
    sizes = [row["consumers"] for row in measured["rows"]]
    assert sizes == [1000, 5000, 50000]
    # One timing column for the kernel and one for brute force, nothing else.
    assert all(
        {key for key in row if key.endswith("_ms")} == {"dict_ms", "brute_ms"}
        for row in measured["rows"]
    )
    at_5k = next(r for r in measured["rows"] if r["consumers"] == 5000)
    assert at_5k["dict_vs_brute"] >= measured["required_dict_vs_brute_at_5000"]
    at_50k = next(r for r in measured["rows"] if r["consumers"] == 50000)
    # Brute force is never run at 50k — the trajectory's whole point.
    assert at_50k["brute_ms"] is None
    assert at_50k["dict_ms"] is not None


@pytest.mark.parametrize("consumers", [POPULATION_SIZES[0]])
def test_indexed_query_cost(benchmark, consumers):
    """pytest-benchmark timing table for one indexed query at steady state."""
    dataset, profiles = _build_profiles(consumers)
    config = SimilarityConfig(top_k=10)
    index = ProfileNeighborIndex(provider=profiles.values, config=config)
    index.sync()
    target = profiles[dataset.users[0]]

    neighbours = benchmark(lambda: index.find_similar(target))
    assert neighbours == find_similar_users(target, profiles.values(), config)


if __name__ == "__main__":
    if not FULL_MODE:
        raise SystemExit(
            "refusing to write BENCH_neighbors_scaling.json from a smoke "
            "run — set REPRO_BENCH_FULL=1 so the measured trajectory covers "
            "the 50000-consumer point"
        )
    ARTIFACT.write_text(
        json.dumps(generate_kernel_payload(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {ARTIFACT}")
