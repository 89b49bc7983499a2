"""Experiment harness regenerating every figure of the paper's evaluation.

The paper's evaluation consists of architecture/workflow figures and four
claimed capabilities rather than numeric tables; this package turns each of
them into an executable experiment (docs/ARCHITECTURE.md's "Paper components
→ modules" maps the components themselves to modules), so that the benchmarks
under ``benchmarks/`` and the scripts under ``examples/`` share one
implementation:

- :mod:`repro.experiments.figures` — one function per experiment id
  (FIG-3.1, FIG-3.2, FIG-4.1, FIG-4.2, FIG-4.3, FIG-4.5, CAP-2, CAP-4).
- :mod:`repro.experiments.harness` — shared machinery: building platforms and
  datasets, evaluating a set of recommenders, collecting rows.
- :mod:`repro.experiments.reporting` — plain-text table rendering used when an
  experiment is run as a script.
"""

from repro.experiments.harness import (
    ExperimentResult,
    build_standard_dataset,
    build_standard_recommenders,
    evaluate_recommenders,
)
from repro.experiments.reporting import format_table, print_result
from repro.experiments import figures

__all__ = [
    "ExperimentResult",
    "build_standard_dataset",
    "build_standard_recommenders",
    "evaluate_recommenders",
    "format_table",
    "print_result",
    "figures",
]
