"""Tier-1 smoke test of the wall-clock ledger: every workload at ~2 % size.

Checks the output schema against ``BENCHMARK.json`` and that the benchmark's
own correctness gate passes; it asserts nothing about speed.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from . import harness
from .tracer import leaked_wrappers
from .workloads import WORKLOADS

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8")
)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SCALE = 0.02
SECONDS = 0.2


def _declared(block: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[block]}


def test_spec_matches_the_code():
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)
    assert _declared("end_to_end") == harness.END_TO_END
    assert _declared("per_layer") == harness.PER_LAYER
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    names = list(WORKLOADS) + list(harness.END_TO_END) + list(harness.PER_LAYER)
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in harness.END_TO_END


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run(name):
    result = harness.run_workload(WORKLOADS[name], seed=1, seconds=SECONDS, trace=False, scale=SCALE)
    assert result["failures"] == [] and result["failed"] == 0
    assert set(result["metrics"]) == set(harness.END_TO_END)
    assert all(value > 0 for value in result["metrics"].values()), result["metrics"]
    assert result["headline_samples"] > 0
    assert leaked_wrappers() == []


def test_traced_run(tmp_path):
    dump = tmp_path / "trace.json"
    result = harness.run_workload(
        WORKLOADS["trade"], seed=1, seconds=SECONDS, trace=True, scale=SCALE, trace_out=str(dump)
    )
    assert result["failures"] == [] and result["failed"] == 0
    assert set(result["metrics"]) == set(harness.PER_LAYER)
    assert result["operations_traced"] > 0
    # The write path crosses these layers on every trade.
    for span in ("api.gateway", "agents.serialization", "ecommerce.replication", "adversarial.handshake"):
        assert result["metrics"][f"{span}.calls_per_op"] > 0, span
    spans = json.loads(dump.read_text(encoding="utf-8"))
    assert spans["columns"] == ["name", "start_s", "end_s", "parent", "op"]
    assert spans["spans"]
    assert leaked_wrappers() == []
