"""Overlapping sessions through the gateway's concurrent submit path.

A sequential scenario is one client running requests back to back — the
platform never sees two sessions in flight, so admission control never
sheds and queues never form.  This walkthrough runs a few hundred
*overlapping* sessions: Poisson arrivals, per-session think time, per-server
FIFO queueing, and an admission bucket sized to actually shed under the
offered load.  Everything is simulated and seeded, so the whole report is
deterministic.

Run with::

    python examples/concurrent_load.py
"""

from __future__ import annotations

from repro import build_platform
from repro.api.requests import LoginRequest, QueryRequest
from repro.workload.concurrent import ConcurrentDriver
from repro.workload.consumers import ConsumerPopulation


def main() -> None:
    platform = build_platform(
        seed=11,
        num_buyer_servers=4,
        replication_factor=1,
        api_admission_capacity=60,
        api_admission_refill_per_ms=0.25,
    )
    gateway = platform.gateway()

    # --- the submit path, by hand: two sessions that overlap ----------------
    scheduler = gateway.sessions
    base = scheduler.horizon
    first = gateway.submit(LoginRequest("alice"), at_ms=base, session_id="alice")
    second = gateway.submit(LoginRequest("bob"), at_ms=base, session_id="bob")
    first.add_done_callback(
        lambda f: gateway.submit(
            QueryRequest("alice", "book"), at_ms=f.finished_at_ms + 25.0
        )
    )
    scheduler.run_until_idle()
    print("Two overlapping logins (same instant, same-server contention possible):")
    for future in (first, second):
        response = future.response
        print(f"  {future.session_id:<6s} {response.status:<9s} "
              f"arrived={future.submitted_at_ms:8.2f}ms "
              f"finished={future.finished_at_ms:8.2f}ms "
              f"latency={response.latency_ms:6.2f}ms")
    print()

    # --- a whole day of overlapping sessions --------------------------------
    population = ConsumerPopulation(500, groups=4, seed=11)
    driver = ConcurrentDriver(platform, population, seed=11)
    report = driver.run(
        sessions=400,
        queries_per_session=2,
        arrival_rate_per_ms=0.15,
        think_time_ms=150.0,
        recommendation_probability=0.25,
    )

    print(f"Concurrent day: {report.sessions} sessions, "
          f"{report.requests} requests, "
          f"{report.completed} completed, {report.shed} shed "
          f"(shed rate {report.shed_rate:.1%})")
    print(f"  statuses   : {report.statuses}")
    print(f"  latency    : p50={report.latency_ms['p50']:.1f}ms "
          f"p95={report.latency_ms['p95']:.1f}ms "
          f"p99={report.latency_ms['p99']:.1f}ms "
          f"(dispatched requests only)")
    print(f"  queue wait : count={report.queue_wait_ms['count']:.0f} "
          f"p95={report.queue_wait_ms['p95']:.1f}ms "
          f"max={report.queue_wait_ms['max']:.1f}ms")
    print("  latency histogram (ms):")
    for bucket in report.histogram:
        label = "+Inf" if bucket["le"] < 0 else f"<={bucket['le']:.0f}"
        count = int(bucket["count"])
        bar = "#" * min(60, count)
        print(f"    {label:>7s} {count:5d} {bar}")
    print()
    print(f"  simulated duration: {report.simulated_duration_ms:.0f}ms; "
          f"shared-clock work meter moved "
          f"{platform.scheduler.clock.now - base:.0f}ms "
          f"(total service time across all sessions)")


if __name__ == "__main__":
    main()
