"""Regression tests for concurrent-run reporting correctness.

Each class pins one of the reporting bugs fixed alongside the overload
work: cross-run ``queue_wait_ms`` contamination, shed requests counted as
``completed``, a "cumulative" histogram that only incremented one bucket,
and the new per-server occupancy section.  Every test here fails on the
old code.
"""

import pytest

from repro.api import ApiStatus
from repro.workload.concurrent import (
    ConcurrentDriver,
    LATENCY_HISTOGRAM_BOUNDS_MS,
    latency_histogram,
)
from repro.workload.consumers import ConsumerPopulation
from repro.ecommerce.platform_builder import build_platform


def _driver(platform_overrides=None, population=80, seed=5):
    overrides = {
        "seed": 7,
        "num_buyer_servers": 3,
        "replication_factor": 1,
    }
    overrides.update(platform_overrides or {})
    platform = build_platform(**overrides)
    pool = ConsumerPopulation(population, seed=overrides["seed"])
    return platform, ConcurrentDriver(platform, pool, seed=seed)


class TestLatencyHistogram:
    def test_buckets_are_truly_cumulative(self):
        """Regression: each sample used to land in exactly one bucket, so
        the claimed Prometheus-cumulative counts were actually a density."""
        samples = [0.5, 1.5, 7.0, 7.0, 30.0, 99_999.0]
        buckets = latency_histogram(samples)
        counts = [bucket["count"] for bucket in buckets]
        assert counts == sorted(counts), "cumulative counts must be monotone"
        by_le = {bucket["le"]: bucket["count"] for bucket in buckets}
        assert by_le[1.0] == 1.0
        assert by_le[2.0] == 2.0  # includes the <=1ms sample too
        assert by_le[10.0] == 4.0
        assert by_le[50.0] == 5.0
        assert by_le[-1.0] == float(len(samples))  # +Inf holds the total

    def test_overflow_bucket_always_totals(self):
        assert latency_histogram([])[-1]["count"] == 0.0
        huge = [bound * 10 for bound in LATENCY_HISTOGRAM_BOUNDS_MS]
        buckets = latency_histogram([max(huge)])
        assert buckets[-1]["count"] == 1.0
        assert all(b["count"] == 0.0 for b in buckets[:-1])


class TestBackToBackRuns:
    def test_queue_wait_samples_do_not_leak_between_runs(self):
        """Regression: ``queue_wait_ms`` summarised the *platform-lifetime*
        timer, so a second drive on the same platform reported the first
        drive's waits on top of its own."""
        platform, driver = _driver()
        first = driver.run(sessions=20, arrival_rate_per_ms=None,
                           think_time_ms=0.0)
        timer_after_first = len(
            platform.metrics.timer("api.queue_wait_ms").samples
        )
        second = driver.run(sessions=20, arrival_rate_per_ms=None,
                            think_time_ms=0.0)
        timer_after_second = len(
            platform.metrics.timer("api.queue_wait_ms").samples
        )
        assert first.queue_wait_ms["count"] == timer_after_first
        assert second.queue_wait_ms["count"] == (
            timer_after_second - timer_after_first
        )
        assert first.queue_wait_ms["count"] > 0
        assert second.queue_wait_ms["count"] > 0

    def test_server_stats_do_not_leak_between_runs(self):
        platform, driver = _driver()
        first = driver.run(sessions=20, arrival_rate_per_ms=None,
                           think_time_ms=0.0)
        second = driver.run(sessions=20, arrival_rate_per_ms=None,
                            think_time_ms=0.0)
        for report in (first, second):
            total_served = sum(s["served"] for s in report.servers.values())
            assert total_served == report.completed


class TestCompletedCounting:
    def test_shed_requests_are_not_completed(self):
        """Regression: ``completed`` used to count every resolved future,
        rejections included, so ``completed == requests`` even when the
        admission bucket turned half the load away."""
        _platform, driver = _driver(
            {"api_admission_capacity": 25,
             "api_admission_refill_per_ms": 0.000001},
        )
        report = driver.run(sessions=40, arrival_rate_per_ms=None,
                            think_time_ms=0.0)
        assert report.shed > 0, "burst against a tiny bucket must shed"
        assert report.completed == report.requests - report.shed
        assert report.completed < report.requests
        # The dict shape carries the same invariant.
        d = report.as_dict()
        assert d["completed"] + d["shed"] == d["requests"]
        assert d["histogram"][-1]["count"] == float(d["completed"])

    def test_report_histogram_counts_dispatched_requests(self):
        _platform, driver = _driver()
        report = driver.run(sessions=15, arrival_rate_per_ms=None,
                            think_time_ms=0.0)
        assert report.shed == 0
        assert report.histogram[-1]["count"] == float(report.completed)
        counts = [bucket["count"] for bucket in report.histogram]
        assert counts == sorted(counts)


class TestServerOccupancy:
    def test_servers_section_and_gauges_populated(self):
        platform, driver = _driver()
        report = driver.run(sessions=30, arrival_rate_per_ms=None,
                            think_time_ms=0.0)
        names = {server.name for server in platform.buyer_servers}
        assert set(report.servers) == names
        assert any(s["busy_ms"] > 0 for s in report.servers.values())
        for name, stats in report.servers.items():
            assert 0.0 <= stats["utilization"] <= 1.0
            assert stats["busy_ms"] == pytest.approx(
                stats["utilization"] * report.simulated_duration_ms
            )
            gauges = platform.metrics
            assert gauges.gauge(f"api.server.{name}.utilization").value == (
                stats["utilization"]
            )
            assert gauges.gauge(f"api.server.{name}.backlog_ms").value == (
                stats["queue_wait_ms"]
            )

    def test_queue_dropped_reported_under_deadline_pressure(self):
        _platform, driver = _driver(
            {"num_buyer_servers": 2, "api_deadline_ms": 40.0},
        )
        report = driver.run(sessions=60, arrival_rate_per_ms=None,
                            think_time_ms=0.0)
        assert report.queue_dropped > 0, (
            "a simultaneous burst against 2 servers with a 40ms budget "
            "must drop queued work"
        )
        assert report.as_dict()["queue_dropped"] == report.queue_dropped
        # Dropped requests completed (with unavailable), they were not shed.
        assert report.completed == report.requests - report.shed


class TestConcurrentDay:
    def test_overlapping_day_sheds_queues_and_reports_clean_statuses(self):
        platform = build_platform(seed=11, num_buyer_servers=4, replication_factor=1,
                                  api_admission_capacity=40,
                                  api_admission_refill_per_ms=0.2)
        driver = ConcurrentDriver(platform, ConsumerPopulation(400, groups=4, seed=11),
                                  seed=11)
        report = driver.run(sessions=300, queries_per_session=2,
                            arrival_rate_per_ms=0.15, think_time_ms=150.0)
        d = report.as_dict()
        # A shed request completed nothing.
        assert d["sessions"] == 300
        assert d["completed"] == d["requests"] - d["shed"]
        # Overlap was real: admission shed some of it and queues formed.
        assert d["shed"] > 0 and 0.0 < report.shed_rate < 1.0
        assert d["queue_wait_ms"]["count"] > 0 and d["queue_wait_ms"]["max"] > 0.0
        # Latency covers dispatched requests only, in the report and in the
        # metrics middleware's timer alike.
        assert d["latency_ms"]["count"] == d["completed"] > 0
        assert platform.metrics.timer("api.latency_ms").summary()["count"] == (
            d["latency_ms"]["count"]
        )
        counts = [bucket["count"] for bucket in d["histogram"]]
        assert counts == sorted(counts) and counts[-1] == d["latency_ms"]["count"]
        assert set(d["statuses"]) <= set(ApiStatus.ALL)
        assert d["statuses"].get(ApiStatus.REJECTED, 0) == d["shed"]
