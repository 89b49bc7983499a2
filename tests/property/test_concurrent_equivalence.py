"""Property tests for the concurrent-session layer.

Two properties anchor the concurrency design:

1. **Replay determinism** — a seeded concurrent scenario replayed on a
   fresh same-seed platform yields a byte-identical envelope stream (and
   an identical report).  Everything is simulated: there is no wall clock,
   no thread scheduler, no racing — only the deterministic virtual-time
   order.
2. **Zero-overlap equivalence** — N sessions run "concurrently" but
   chained so that each request arrives exactly when the previous one
   finished are indistinguishable, byte for byte, from the same requests
   issued sequentially through ``gateway.execute`` on a twin platform.
   This is the signature test that the submit path added *only*
   interleaving, not new semantics.
"""

import json

import pytest

from repro.api.requests import LoginRequest, LogoutRequest, QueryRequest
from repro.ecommerce.platform_builder import build_platform
from repro.workload import ConcurrentDriver, ConsumerPopulation, ScenarioRunner


def _fresh_platform(**overrides):
    defaults = dict(seed=7, num_buyer_servers=3, replication_factor=1)
    defaults.update(overrides)
    return build_platform(**defaults)


def _session_requests(users, queries=2):
    requests = []
    for user in users:
        requests.append(LoginRequest(user))
        for index in range(queries):
            requests.append(QueryRequest(user, "laptop" if index % 2 else "books"))
        requests.append(LogoutRequest(user))
    return requests


class TestReplayDeterminism:
    def _run_stream(self):
        """A mixed overlapping run; returns the ordered envelope reprs."""
        platform = _fresh_platform(
            api_admission_capacity=40, api_admission_refill_per_ms=0.05
        )
        gateway = platform.gateway()
        scheduler = gateway.sessions
        base = scheduler.horizon
        users = [f"user-{i}" for i in range(12)]
        futures = []
        for position, user in enumerate(users):
            login = gateway.submit(LoginRequest(user), at_ms=base + position * 3.0)
            futures.append(login)

            def follow_up(future, user=user):
                futures.append(
                    gateway.submit(
                        QueryRequest(user, "books"),
                        at_ms=future.finished_at_ms + 10.0,
                    )
                )

            login.add_done_callback(follow_up)
        scheduler.run_until_idle()
        return [repr(future.response) for future in futures]

    def test_submit_streams_replay_byte_identically(self):
        assert self._run_stream() == self._run_stream()

    def test_driver_report_replays_identically(self):
        def run():
            platform = _fresh_platform(
                api_admission_capacity=60, api_admission_refill_per_ms=0.1
            )
            driver = ConcurrentDriver(platform, ConsumerPopulation(60, seed=7), seed=7)
            report = driver.run(
                sessions=50,
                queries_per_session=2,
                arrival_rate_per_ms=0.05,
                think_time_ms=120.0,
            )
            return json.dumps(report.as_dict(), sort_keys=True)

        first, second = run(), run()
        assert first == second


class TestZeroOverlapEquivalence:
    @pytest.mark.parametrize("queries", [1, 2])
    def test_chained_submits_match_sequential_execute(self, queries):
        users = [f"user-{i}" for i in range(6)]
        requests = _session_requests(users, queries=queries)

        sequential_platform = _fresh_platform()
        sequential_gateway = sequential_platform.gateway()
        sequential = [
            repr(sequential_gateway.execute(request))
            for request in _session_requests(users, queries=queries)
        ]

        concurrent_platform = _fresh_platform()
        concurrent_gateway = concurrent_platform.gateway()
        scheduler = concurrent_gateway.sessions
        futures = []
        remaining = list(requests)

        def submit_next(previous=None):
            if not remaining:
                return
            at = None if previous is None else previous.finished_at_ms
            future = concurrent_gateway.submit(remaining.pop(0), at_ms=at)
            future.add_done_callback(submit_next)
            futures.append(future)

        submit_next()
        scheduler.run_until_idle()
        concurrent = [repr(future.response) for future in futures]

        assert concurrent == sequential

    def test_zero_overlap_charges_no_queue_wait(self):
        platform = _fresh_platform()
        gateway = platform.gateway()
        scheduler = gateway.sessions
        remaining = _session_requests([f"user-{i}" for i in range(4)])

        def submit_next(previous=None):
            if not remaining:
                return
            at = None if previous is None else previous.finished_at_ms
            gateway.submit(remaining.pop(0), at_ms=at).add_done_callback(submit_next)

        submit_next()
        scheduler.run_until_idle()
        assert platform.metrics.timer("api.queue_wait_ms").summary()["count"] == 0

    def test_default_off_overload_knobs_are_byte_invisible(self):
        """The overload features ship dark: a platform built with the
        hedging/admission-class knobs explicitly disabled produces the
        same envelope stream and report, byte for byte, as one that never
        heard of them.  (Queue drops need ``api_deadline_ms``, which the
        default platform does not set — so the drop branch is already
        unreachable on the default path.)"""
        def run(**overrides):
            platform = _fresh_platform(
                api_admission_capacity=60,
                api_admission_refill_per_ms=0.1,
                **overrides,
            )
            driver = ConcurrentDriver(platform, ConsumerPopulation(60, seed=7), seed=7)
            report = driver.run(
                sessions=50,
                queries_per_session=2,
                arrival_rate_per_ms=0.05,
                think_time_ms=120.0,
            )
            events = [repr(event) for event in platform.event_log.events]
            return json.dumps(report.as_dict(), sort_keys=True), events

        default = run()
        disabled = run(
            api_admission_classes=None,
            fleet_hedge_delay_percentile=None,
        )
        assert disabled == default

    def test_armed_but_unfired_hedging_is_byte_invisible(self):
        """``p=1.0`` arms the hedging machinery at a threshold no latency
        can exceed — the whole run stays byte-identical to default."""
        def run(**overrides):
            platform = _fresh_platform(**overrides)
            driver = ConcurrentDriver(platform, ConsumerPopulation(40, seed=5), seed=5)
            report = driver.run(
                sessions=30,
                queries_per_session=1,
                arrival_rate_per_ms=0.05,
                think_time_ms=100.0,
            )
            return json.dumps(report.as_dict(), sort_keys=True)

        assert run(fleet_hedge_delay_percentile=1.0) == run()

    def test_sequential_scenarios_unaffected_by_concurrent_run(self):
        """Running a concurrent day must not perturb a sequential scenario
        issued afterwards on a twin platform pair: the concurrent layer
        spends only virtual time and its own RNGs."""
        def warm_report(run_concurrent_first):
            platform = _fresh_platform()
            population = ConsumerPopulation(10, seed=3)
            runner = ScenarioRunner(platform, population, seed=3)
            if run_concurrent_first:
                ConcurrentDriver(platform, population, seed=11).run(
                    sessions=8, queries_per_session=1,
                    arrival_rate_per_ms=0.05, think_time_ms=50.0,
                )
            report = runner.warm_up(consumers=6)
            return {
                key: value
                for key, value in report.as_dict().items()
                if key != "simulated_duration_ms"
            }

        assert warm_report(False) == warm_report(True)
