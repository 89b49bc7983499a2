"""Run every experiment of the paper's evaluation and print the results.

Usage::

    python -m repro.experiments            # full sweep (a few minutes)
    python -m repro.experiments --quick    # reduced parameters (~30 seconds)
    python -m repro.experiments --only fig42 cap4-quality

The printed tables are the experiments' results; no checked-in file records them.
"""

from __future__ import annotations

import argparse
from typing import Callable, Dict

from repro.experiments import figures
from repro.experiments.harness import ExperimentResult
from repro.experiments.reporting import print_result


def _registry(quick: bool) -> Dict[str, Callable[[], ExperimentResult]]:
    """Experiment id -> runnable, with reduced parameters in quick mode."""
    if quick:
        return {
            "fig31": lambda: figures.fig31_platform_architecture((1, 2), consumers=3),
            "fig32": lambda: figures.fig32_mechanism_concurrency((5, 10)),
            "fig41": lambda: figures.fig41_creation_protocol(repeats=2),
            "fig42": figures.fig42_query_workflow,
            "fig43": figures.fig43_buy_auction_workflow,
            "fig45-learning": lambda: figures.fig45_profile_learning((5, 20, 40), (0.3,)),
            "fig45-similarity": lambda: figures.fig45_similarity_scaling((20, 50)),
            "cap2": lambda: figures.cap2_multi_marketplace((1, 2)),
            "cap4-quality": lambda: figures.cap4_recommendation_quality(
                num_consumers=25, events_per_user=25
            ),
            "cap4-cold-start": lambda: figures.cap4_cold_start((3, 20), num_consumers=15),
            "ablation": lambda: figures.ablation_similarity_mix(
                mixes=((1.0, 0.0), (0.6, 0.4)), tolerances=(0.5, 10.0)
            ),
        }
    return {
        "fig31": figures.fig31_platform_architecture,
        "fig32": figures.fig32_mechanism_concurrency,
        "fig41": figures.fig41_creation_protocol,
        "fig42": figures.fig42_query_workflow,
        "fig43": figures.fig43_buy_auction_workflow,
        "fig45-learning": figures.fig45_profile_learning,
        "fig45-similarity": figures.fig45_similarity_scaling,
        "cap2": figures.cap2_multi_marketplace,
        "cap4-quality": figures.cap4_recommendation_quality,
        "cap4-cold-start": figures.cap4_cold_start,
        "ablation": figures.ablation_similarity_mix,
    }


def main(argv: list = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate every figure of the paper's evaluation.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="use reduced parameters for a fast sweep")
    parser.add_argument("--only", nargs="+", default=None, metavar="ID",
                        help="run only the listed experiment ids")
    parser.add_argument("--list", action="store_true", help="list experiment ids and exit")
    args = parser.parse_args(argv)

    registry = _registry(args.quick)
    if args.list:
        for name in registry:
            print(name)
        return 0

    selected = args.only if args.only else list(registry)
    unknown = [name for name in selected if name not in registry]
    if unknown:
        parser.error(f"unknown experiment ids: {unknown}; use --list to see them")

    for name in selected:
        result = registry[name]()
        print_result(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
