"""Shared helpers for the benchmark suite.

Every benchmark regenerates one experiment of ``repro.experiments``.  Besides
the pytest-benchmark timing table (real wall-clock cost of the simulation),
each bench prints the experiment's rows — the tables ``python -m
repro.experiments`` prints — so running ``pytest benchmarks/ --benchmark-only
-s`` reproduces both.
"""

from __future__ import annotations

import pytest

from repro.experiments.harness import ExperimentResult
from repro.experiments.reporting import format_table


def report(result: ExperimentResult) -> None:
    """Print an experiment's rows beneath the benchmark output."""
    print()
    print(f"== {result.name} ==")
    print(format_table(result.rows))
    for note in result.notes:
        print(f"note: {note}")


@pytest.fixture
def experiment_reporter():
    return report
