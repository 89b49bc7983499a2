"""Synthetic workloads: merchandise, consumers and behaviour traces.

The paper evaluates its mechanism qualitatively on a departmental testbed and
publishes no dataset, so every experiment in this reproduction runs on
synthetic workloads built here:

- :mod:`repro.workload.products` — a merchandise taxonomy (categories,
  sub-categories, descriptive terms) and a deterministic product generator.
- :mod:`repro.workload.consumers` — consumers with latent taste vectors,
  clustered into taste groups so collaborative filtering has structure to
  find; each consumer knows which items it *truly* finds relevant, which is
  what the quality metrics are computed against.
- :mod:`repro.workload.generator` — offline interaction datasets (train/test
  splits of feedback events) for the algorithm-level benchmarks.
- :mod:`repro.workload.scenarios` — drivers that replay consumer behaviour
  against a live :class:`~repro.ecommerce.platform_builder.ECommercePlatform`
  for the workflow-level benchmarks.
- :mod:`repro.workload.arrivals` — open-loop (Poisson) and closed-loop
  (think-time) arrival models for the concurrent scenarios.
- :mod:`repro.workload.concurrent` — the overlapping-session driver,
  :class:`~repro.workload.concurrent.ConcurrentDriver`, that every concurrent
  scenario and the fleet days' traffic windows run on.
- :mod:`repro.workload.adversary` — scripted abuse traffic (scalper
  fleets, handshake protocol bots, quota floods) interleaved with honest
  sessions for the adversarial scenarios.
"""

from repro.workload.products import ProductGenerator, TAXONOMY
from repro.workload.consumers import SyntheticConsumer, ConsumerPopulation
from repro.workload.generator import InteractionDataset, InteractionGenerator
from repro.workload.scenarios import ElasticScenarioReport, ScenarioRunner, ScenarioReport
from repro.workload.arrivals import PoissonArrivals, ThinkTime
from repro.workload.concurrent import (
    ConcurrentDriver,
    ConcurrentScenarioReport,
    LATENCY_HISTOGRAM_BOUNDS_MS,
)
from repro.workload.adversary import AdversaryDriver, AdversaryReport

__all__ = [
    "ProductGenerator",
    "TAXONOMY",
    "SyntheticConsumer",
    "ConsumerPopulation",
    "InteractionDataset",
    "InteractionGenerator",
    "ElasticScenarioReport",
    "ScenarioRunner",
    "ScenarioReport",
    "PoissonArrivals",
    "ThinkTime",
    "ConcurrentDriver",
    "ConcurrentScenarioReport",
    "LATENCY_HISTOGRAM_BOUNDS_MS",
    "AdversaryDriver",
    "AdversaryReport",
]
