"""Runs one workload: set-up, fixed phase, timed phase, checks, metrics.

``run_workload`` is what one ``run.py --workload ...`` invocation does.  The
end-to-end metrics come from an untraced run; the per-layer metrics from a
separate traced run (see :mod:`wallclock.tracer`).  Metric definitions and
their bounds are documented in ``README.md`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.adversarial.audit import InvariantAuditor
from repro.core.similarity import find_similar_users
from repro.errors import ReproError

from .calibration import Calibrator, Speed, clock
from .tracer import DRIVER_SPAN, SPAN_NAMES, Tracer, leaked_wrappers
from .workloads import Workload

__all__ = ["END_TO_END", "PER_LAYER", "run_workload"]

HERE = Path(__file__).resolve().parent

#: End-to-end metric → unit (tracing off).  ``error_share`` is carried by the
#: result line's ``failed`` / ``attempted`` because a metric may never be 0.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

_COUNTS: Dict[str, str] = {
    "api.shed_share": "share",
    "api.queue_wait_sim_ms_p50": "sim_ms",
    "agents.messages_per_op": "1/op",
    "agents.dispatches_per_op": "1/op",
    "agents.serialization.sim_bytes_per_op": "B/op",
    "core.neighbors.bound_skips_per_op": "1/op",
    "ecommerce.fanout.stale_shards_per_op": "1/op",
    "ecommerce.replication.wal_entries_per_op": "1/op",
    "ecommerce.fleet_ops.promote_ms_p50": "ms",
    "ecommerce.fleet_ops.transfer_ms_p50": "ms",
    "ecommerce.fleet_ops.refresh_ms_per_consumer": "ms",
    "platform.telemetry.events_per_op": "1/op",
    "platform.telemetry.timer_samples_per_op": "1/op",
    "setup.register_ms_per_consumer": "ms",
    "setup.rss_bytes_per_consumer": "B",
    "run.rss_growth_bytes_per_op": "B/op",
    "sim.ms_per_op": "sim_ms/op",
    "sim.digest_match": "bool",
    "trace.overhead_share": "share",
    "trace.unattributed_share": "share",
    "machine.calibration_ms": "ms",
    "machine.off_cpu_share": "share",
    "raw.throughput_rps": "1/s",
}

#: Per-layer metric → unit (traced run only).
PER_LAYER: Dict[str, str] = {
    **{
        f"{span}.{suffix}": unit
        for span in SPAN_NAMES
        for suffix, unit in (("self_ms_per_op", "ms/op"), ("calls_per_op", "1/op"))
    },
    **_COUNTS,
}

SAMPLE_CHECKS = 25
_SETUP_REPEATS = 3
#: Share of a traced run's timed phase that runs before the wrappers go in;
#: it is the baseline ``trace.overhead_share`` compares the traced part to.
_UNTRACED_SHARE = 0.4


# -- recording ---------------------------------------------------------------


class Recorder:
    """Times every program call a workload makes and keeps its status.

    Before a call, a calibration sample is taken if one is due, so the
    machine's speed is known every ``Calibrator.interval_s`` of the run.
    """

    def __init__(self, calibrator: Calibrator, keep_results: bool = False) -> None:
        self.calibrator = calibrator
        self.kind: List[int] = []
        self.began: List[float] = []
        self.ended: List[float] = []
        self.status: List[str] = []
        self.error_codes: List[str] = []
        self.results: Optional[List[Any]] = [] if keep_results else None
        #: Program calls the workload needs but that are not operations.
        self.aux_began: List[float] = []
        self.aux_ended: List[float] = []
        #: ``(operations, aux calls)`` completed when each round ended.
        self.rounds: List[Tuple[int, int]] = []
        #: Filled by :meth:`normalise`: seconds at reference machine speed.
        self.norm_s: List[float] = []
        self.round_s: List[float] = []

    def _begin(self) -> float:
        began = clock()
        if began >= self.calibrator.due:
            began = self.calibrator.sample()
        return began

    def request(self, kind: int, execute: Callable[[Any], Any], request: Any) -> Any:
        """One gateway call returning an envelope."""
        began = self._begin()
        response = execute(request)
        ended = clock()
        self.kind.append(kind)
        self.began.append(began)
        self.ended.append(ended)
        self.observe(response)
        return response

    def step(self, served: int, shed: int, step: Callable[[], bool]) -> bool:
        """One scheduler step; its envelope arrives through :meth:`observe`.

        The operation's kind is ``shed`` when admission refused the request
        and ``served`` otherwise.
        """
        began = self._begin()
        worked = step()
        ended = clock()
        if worked:
            self.kind.append(shed if self.status[-1] == "rejected" else served)
            self.began.append(began)
            self.ended.append(ended)
        return worked

    def call(self, kind: int, function: Callable[..., Any], *args: Any) -> Any:
        """One fleet call that returns a plain value or raises."""
        began = self._begin()
        try:
            result = function(*args)
            status = "ok"
        except ReproError as exc:
            result = f"{type(exc).__name__}: {exc}"
            status = "raised"
        ended = clock()
        self.kind.append(kind)
        self.began.append(began)
        self.ended.append(ended)
        self.status.append(status)
        if self.results is not None:
            self.results.append(result)
        return result

    def aux(self, function: Callable[..., Any], *args: Any) -> None:
        """A program call that takes wall time but is not counted as an operation."""
        began = self._begin()
        function(*args)
        ended = clock()
        self.aux_began.append(began)
        self.aux_ended.append(ended)

    def observe(self, response: Any) -> None:
        self.status.append(response.status)
        if response.error is not None:
            self.error_codes.append(response.error.code)
        if self.results is not None:
            self.results.append(response)

    def end_round(self) -> None:
        self.rounds.append((len(self.kind), len(self.aux_began)))

    @property
    def operations(self) -> int:
        return len(self.kind)

    def normalise(self, speed: Speed) -> None:
        """Scale every measured duration to the reference machine speed.

        A round's time is the time of its program calls: the harness's own
        loop and the calibration samples are not in it.
        """
        self.norm_s = [
            (ended - began) * speed.scale(began) for began, ended in zip(self.began, self.ended)
        ]
        aux_s = [
            (ended - began) * speed.scale(began)
            for began, ended in zip(self.aux_began, self.aux_ended)
        ]
        self.round_s = []
        first_op = first_aux = 0
        for end_op, end_aux in self.rounds:
            self.round_s.append(sum(self.norm_s[first_op:end_op]) + sum(aux_s[first_aux:end_aux]))
            first_op, first_aux = end_op, end_aux

    def durations_ms(self, kinds: Sequence[int]) -> List[float]:
        """Normalised durations of the operations of the given kinds."""
        wanted = set(kinds)
        return [
            seconds * 1000.0 for kind, seconds in zip(self.kind, self.norm_s) if kind in wanted
        ]


class TracedRecorder(Recorder):
    """A recorder that opens a driver root span around every program call."""

    def __init__(self, calibrator: Calibrator, tracer: Tracer) -> None:
        super().__init__(calibrator)
        self._root = tracer.root

    def request(self, kind: int, execute: Callable[[Any], Any], request: Any) -> Any:
        return super().request(kind, lambda req: self._root(execute, req), request)

    def step(self, served: int, shed: int, step: Callable[[], bool]) -> bool:
        return super().step(served, shed, lambda: self._root(step))

    def call(self, kind: int, function: Callable[..., Any], *args: Any) -> Any:
        return super().call(kind, self._root, function, *args)

    def aux(self, function: Callable[..., Any], *args: Any) -> None:
        super().aux(self._root, function, *args)


def _drive(
    workload: Workload,
    state: SimpleNamespace,
    rec: Recorder,
    first_round: int,
    rounds: Optional[int] = None,
    deadline: Optional[float] = None,
    rss: Optional[Dict[str, float]] = None,
) -> Tuple[int, List[str], bool]:
    """Run rounds until the count or the clock runs out; untimed checks between."""
    index = first_round
    failures: List[str] = []
    more = True
    while more and (rounds is None or index - first_round < rounds):
        if deadline is not None and perf_counter() >= deadline:
            break
        more = workload.round(state, index, rec)
        rec.end_round()
        index += 1
        failures += workload.after_round(state)
        if rss is not None and "kb" not in rss and rec.operations >= rss["after_ops"]:
            rss["kb"] = _max_rss_kb()
    return index, failures, more


# -- small measurement helpers ------------------------------------------------


def _max_rss_kb() -> float:
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _current_rss_bytes() -> float:
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            return float(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return _max_rss_kb() * 1024.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def _segment_throughput(rec: Recorder) -> float:
    """Median operations per reference second over 5 equal-count groups of rounds."""
    count = len(rec.rounds)
    groups = min(5, count)
    rates = []
    for group in range(groups):
        low, high = group * count // groups, (group + 1) * count // groups
        operations = rec.rounds[high - 1][0] - (rec.rounds[low - 1][0] if low else 0)
        seconds = sum(rec.round_s[low:high])
        if seconds > 0:
            rates.append(operations / seconds)
    return statistics.median(rates) if rates else 0.0


def _queue_waits(platform: Any) -> List[float]:
    """Simulated queue-wait samples, without creating the timer by asking."""
    if "api.queue_wait_ms" not in platform.metrics.timer_summaries():
        return []
    return platform.metrics.timer("api.queue_wait_ms").samples


def _registry(state: SimpleNamespace) -> Dict[str, Any]:
    """A point-in-time read of the program's own registries."""
    platform = state.platform
    return {
        "counters": platform.metrics.counters(),
        "events": len(platform.event_log),
        "timer_samples": sum(
            summary["count"] for summary in platform.metrics.timer_summaries().values()
        ),
        "queue_waits": len(_queue_waits(platform)),
        "bound_skips": sum(
            server.recommendations.neighbor_index.bound_skips for server in state.servers
        ),
        "now": platform.now,
    }


# -- the deterministic block ---------------------------------------------------


def _fingerprint(result: Any) -> Any:
    """The ids / rankings an operation returned, as plain JSON values."""
    payload = getattr(result, "result", result)
    if payload is None or isinstance(payload, (bool, int, str)):
        return payload
    if hasattr(payload, "neighbors"):
        return [[user, round(score, 9)] for user, score in payload.neighbors]
    if hasattr(payload, "hits"):
        return [
            [hit.item_id for hit in payload.hits],
            [rec.item_id for rec in payload.recommendations],
        ]
    if hasattr(payload, "succeeded"):
        transaction = payload.transaction
        return [payload.succeeded, transaction.transaction_id if transaction else None]
    if hasattr(payload, "recommendations"):
        return [rec.item_id for rec in payload.recommendations]
    if hasattr(payload, "results") and hasattr(payload, "complete"):
        return [payload.complete, len(payload.results)]
    return type(payload).__name__


def _digest(workload: Workload, rec: Recorder, state: SimpleNamespace) -> Dict[str, Any]:
    status_counts: Dict[str, int] = {}
    rows = []
    for kind, status, result in zip(rec.kind, rec.status, rec.results or ()):
        name = getattr(result, "operation", "") or workload.kinds[kind]
        key = f"{name}:{status}"
        status_counts[key] = status_counts.get(key, 0) + 1
        rows.append([name, status, _fingerprint(result)])
    body = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return {
        "status_counts": dict(sorted(status_counts.items())),
        "sim_clock_ms": round(state.platform.now, 6),
        "sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
    }


def expected_path(workload: Workload) -> Path:
    return HERE / "expected" / f"{workload.name}.json"


def _digest_match(workload: Workload, seed: int, scale: float, digest: Dict[str, Any]) -> float:
    """1 match, 0 mismatch, -1 when no expectation is on file for this seed."""
    path = expected_path(workload)
    if scale != 1.0 or not path.is_file():
        return -1.0
    expected = json.loads(path.read_text(encoding="utf-8")).get(str(seed))
    if expected is None:
        return -1.0
    return 1.0 if expected == digest else 0.0


# -- correctness ---------------------------------------------------------------


def _status_failures(workload: Workload, rec: Recorder) -> List[str]:
    failures = []
    unexpected: Dict[str, int] = {}
    for status in rec.status:
        if status not in workload.expected:
            unexpected[status] = unexpected.get(status, 0) + 1
    for status, count in sorted(unexpected.items()):
        failures += [f"unexpected status {status!r}"] * count
    failures += ["internal error envelope"] * rec.error_codes.count("internal")
    if len(rec.status) != rec.operations:
        failures.append(
            f"{rec.operations} operations but {len(rec.status)} statuses observed"
        )
    return failures


def _similar_failures(state: SimpleNamespace, seed: int) -> List[str]:
    """A sample of fleet find_similar answers against the brute-force scan."""
    fleet = state.fleet
    profiles = {
        user: server.user_db.profile(user)
        for server in state.servers
        if server.name not in fleet.retired
        for user in fleet.consumers_served_by(server)
    }
    config = state.platform.config.similarity
    users = sorted(profiles)
    rng = random.Random(seed)
    failures = []
    for user in rng.sample(users, min(SAMPLE_CHECKS, len(users))):
        answer = fleet.query_similar(user).neighbors
        reference = find_similar_users(profiles[user], profiles.values(), config)
        same = len(answer) == len(reference) and all(
            got[0] == want[0] and abs(got[1] - want[1]) <= 1e-9
            for got, want in zip(answer, reference)
        )
        if not same:
            failures.append(f"find_similar({user}) differs from the brute-force scan")
    return failures


def _audit_failures(state: SimpleNamespace, recorders: Sequence[Recorder]) -> List[str]:
    for server in state.servers:
        server.replication.anti_entropy_tick()
    statuses: Dict[str, int] = {}
    codes: Dict[str, int] = {}
    for rec in recorders:
        for status in rec.status:
            if status != "raised":
                statuses[status] = statuses.get(status, 0) + 1
        for code in rec.error_codes:
            codes[code] = codes.get(code, 0) + 1
    report = InvariantAuditor(state.platform).audit(
        statuses=statuses, error_codes=codes, require_converged=True
    )
    return [f"audit: {violation}" for violation in report.violations]


# -- one run ---------------------------------------------------------------------


def _timed_setup(
    workload: Workload, inputs: SimpleNamespace, cal: Calibrator, repeats: int
) -> Tuple[SimpleNamespace, List[Tuple[float, float]], float]:
    """Set up ``repeats`` times; the last state, each set-up's clock interval, RSS per consumer."""
    spans = []
    state = None
    rss_per_consumer = 0.0
    for attempt in range(repeats):
        state = None
        gc.collect()
        rss_before = _current_rss_bytes()
        began = cal.sample()
        state = workload.setup(inputs, cal.tick)
        spans.append((began, clock()))
        cal.sample()
        if attempt == 0:
            rss_per_consumer = max(0.0, _current_rss_bytes() - rss_before) / len(inputs.consumers)
    return state, spans, rss_per_consumer


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Run ``workload`` once; returns metrics, counts and check failures."""
    failures = [f"{site} is wrapped before the run" for site in leaked_wrappers()]
    inputs = workload.inputs(seed, scale)
    population = len(inputs.consumers)
    cal = Calibrator()

    # Set-up, several times when it is the metric: report the median.
    repeats = _SETUP_REPEATS if not trace and scale >= 1.0 else 1
    state, setup_spans, rss_per_consumer = _timed_setup(workload, inputs, cal, repeats)

    # Fixed phase: the same work on every machine, so counts repeat exactly.
    fixed_rounds = max(1, int(round(workload.fixed_rounds * min(scale, 1.0))))
    before = _registry(state)
    fixed = Recorder(cal, keep_results=True)
    next_round, extra, more = _drive(workload, state, fixed, 0, rounds=fixed_rounds)
    failures += extra
    after = _registry(state)
    digest = _digest(workload, fixed, state)
    counts = _fixed_counts(state, fixed, before, after)
    fixed.results = None

    gc.collect()
    rss_after_fixed = _current_rss_bytes()
    rss = {"after_ops": workload.rss_ops * min(scale, 1.0)}
    timed = Recorder(cal)
    traced: Optional[TracedRecorder] = None
    summary: Dict[str, Dict[str, float]] = {}
    timed_from = len(cal.unit_s)
    began, cpu_began = perf_counter(), clock()
    if not trace:
        _, extra, _ = _drive(
            workload, state, timed, next_round, deadline=began + seconds, rss=rss
        )
        failures += extra
        speed = cal.speed()
    else:
        next_round, extra, more = _drive(
            workload, state, timed, next_round, deadline=began + seconds * _UNTRACED_SHARE
        )
        failures += extra
        untraced_wall, untraced_cpu = perf_counter() - began, clock() - cpu_began
        with Tracer() as tracer:
            traced = TracedRecorder(cal, tracer)
            if more:
                _, extra, _ = _drive(
                    workload, state, traced, next_round,
                    deadline=perf_counter() + seconds * (1.0 - _UNTRACED_SHARE),
                )
                failures += extra
            speed = cal.speed()
            summary = tracer.summarize(speed)
            if tracer.missing:
                print("trace: wrap sites no longer in the program:", ", ".join(tracer.missing))
            if trace_out:
                tracer.dump(trace_out, summary)
    peak_rss_kb = rss.get("kb", _max_rss_kb())
    rss_growth = max(0.0, _current_rss_bytes() - rss_after_fixed)

    setup_s = statistics.median(speed.reference_seconds(*span) for span in setup_spans)

    failures += [f"{site} is still wrapped after the run" for site in leaked_wrappers()]
    recorders = [rec for rec in (fixed, timed, traced) if rec is not None]
    for rec in recorders:
        failures += _status_failures(workload, rec)
        rec.normalise(speed)
    failures += _similar_failures(state, seed)
    if workload.audit:
        failures += _audit_failures(state, recorders)

    headline = [workload.kinds.index(name) for name in workload.headline]
    latencies = timed.durations_ms(headline)
    attempted = sum(rec.operations for rec in recorders) + SAMPLE_CHECKS
    result: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "trace": bool(trace),
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "failures": failures[:20],
        "operations_timed": timed.operations,
        "headline_samples": len(latencies),
        "digest": digest,
    }
    if not trace:
        result["metrics"] = {
            "setup_s": setup_s,
            "throughput_rps": _segment_throughput(timed),
            "latency_p50_ms": percentile(latencies, 0.50),
            "latency_p95_ms": percentile(latencies, 0.95),
            "peak_rss_mb": peak_rss_kb / 1024.0,
        }
        return result

    assert traced is not None
    counts.update(
        {
            "setup.register_ms_per_consumer": setup_s * 1000.0 / population,
            "setup.rss_bytes_per_consumer": rss_per_consumer,
            "run.rss_growth_bytes_per_op": rss_growth
            / max(1, timed.operations + traced.operations),
            "sim.digest_match": _digest_match(workload, seed, scale, digest),
            "machine.calibration_ms": statistics.median(cal.unit_s[timed_from:] or cal.unit_s) * 1000.0,
            "machine.off_cpu_share": 1.0 - untraced_cpu / untraced_wall,
            "raw.throughput_rps": timed.operations / untraced_wall,
        }
    )
    counts.update(_fleet_op_walls(workload, timed, population))
    metrics = _layer_metrics(summary, timed, traced)
    metrics.update(counts)
    result["metrics"] = {name: metrics.get(name, 0.0) for name in PER_LAYER}
    result["operations_traced"] = traced.operations
    return result


def _fixed_counts(
    state: SimpleNamespace, fixed: Recorder, before: Dict[str, Any], after: Dict[str, Any]
) -> Dict[str, float]:
    """Registry deltas over the fixed phase, per operation."""
    operations = max(1, fixed.operations)

    def delta(name: str) -> float:
        return after["counters"].get(name, 0.0) - before["counters"].get(name, 0.0)

    platform = state.platform
    waits = _queue_waits(platform)[before["queue_waits"]:]
    shipped_bytes = sum(
        event.payload.get("payload_bytes", 0)
        for event in platform.event_log.events[before["events"]:after["events"]]
        if event.category in ("transfer.agent-dispatch", "transfer.agent-retract")
    )
    requests = delta("api.requests")
    return {
        "api.shed_share": delta("api.admission.rejected") / requests if requests else 0.0,
        "api.queue_wait_sim_ms_p50": percentile(waits, 0.50),
        "agents.messages_per_op": delta("messages.delivered") / operations,
        "agents.dispatches_per_op": delta("agents.dispatched") / operations,
        "agents.serialization.sim_bytes_per_op": shipped_bytes / operations,
        "core.neighbors.bound_skips_per_op": (after["bound_skips"] - before["bound_skips"])
        / operations,
        "ecommerce.fanout.stale_shards_per_op": delta("fleet.fanout.stale_shards") / operations,
        "ecommerce.replication.wal_entries_per_op": delta("replication.entries_shipped")
        / operations,
        "platform.telemetry.events_per_op": (after["events"] - before["events"]) / operations,
        "platform.telemetry.timer_samples_per_op": (
            after["timer_samples"] - before["timer_samples"]
        )
        / operations,
        "sim.ms_per_op": (after["now"] - before["now"]) / operations,
    }


def _fleet_op_walls(workload: Workload, untraced: Recorder, population: int) -> Dict[str, float]:
    """Reference time of the control-plane calls, from the untraced part of the run."""

    def median_ms(kind: str) -> float:
        if kind not in workload.kinds:
            return 0.0
        samples = untraced.durations_ms([workload.kinds.index(kind)])
        return statistics.median(samples) if samples else 0.0

    return {
        "ecommerce.fleet_ops.promote_ms_p50": median_ms("promote"),
        "ecommerce.fleet_ops.transfer_ms_p50": median_ms("transfer_shard"),
        "ecommerce.fleet_ops.refresh_ms_per_consumer": median_ms("refresh_all") / population,
    }


def _layer_metrics(
    summary: Dict[str, Dict[str, float]], untraced: Recorder, traced: Recorder
) -> Dict[str, float]:
    operations = max(1, traced.operations)
    metrics: Dict[str, float] = {}
    total_self = sum(entry["self_s"] for entry in summary.values())
    for span in SPAN_NAMES:
        entry = summary.get(span, {"calls": 0, "self_s": 0.0})
        metrics[f"{span}.self_ms_per_op"] = entry["self_s"] * 1000.0 / operations
        metrics[f"{span}.calls_per_op"] = entry["calls"] / operations
    driver = summary.get(DRIVER_SPAN, {"self_s": 0.0})
    metrics["trace.unattributed_share"] = driver["self_s"] / total_self if total_self else 0.0
    untraced_wall, traced_wall = sum(untraced.round_s), sum(traced.round_s)
    if untraced.operations and traced.operations and untraced_wall > 0:
        per_op_untraced = untraced_wall / untraced.operations
        per_op_traced = traced_wall / traced.operations
        metrics["trace.overhead_share"] = per_op_traced / per_op_untraced - 1.0
    return metrics
