"""Failure injection: what happens when a marketplace goes down.

The paper motivates mobile agents with robustness and fault tolerance (§1).
This example crashes one marketplace mid-shopping-session and shows that the
recommendation mechanism simply drops it from the Mobile Buyer Agent's
itinerary (the consumer still gets results from the survivors), that an
outage of *every* marketplace comes back as a clean ``failed`` envelope with
a structured error — the gateway never raises at a client — and that full
coverage returns once the hosts recover.  A marketplace the buyer host
cannot reach — partitioned away, or behind a link a scheduled failure plan
cuts — is dropped the same way, until the partition heals or the plan
restores the link.

Run with::

    python examples/failure_injection.py
"""

from __future__ import annotations

from repro import build_platform
from repro.platform.failure import FailurePlan


def main() -> None:
    platform = build_platform(num_marketplaces=3, num_sellers=3,
                              items_per_seller=20, seed=29)
    gateway = platform.gateway()
    gateway.login("carol")

    all_marketplaces = platform.marketplace_names()
    print(f"Marketplaces online: {all_marketplaces}")
    response = gateway.query("carol", "books")
    print(f"Initial query across all marketplaces: "
          f"{len(response.result.hits)} items found (status={response.status})")
    print()

    # -- crash one marketplace ---------------------------------------------------
    victim = all_marketplaces[0]
    platform.failures.crash_host(victim)
    print(f"*** {victim} has crashed ***")

    response = gateway.query("carol", "books")
    results = response.result.hits
    sources = sorted({hit.marketplace for hit in results})
    print(f"The MBA skipped the dead marketplace and still found {len(results)} items "
          f"from {sources}")
    skipped = platform.event_log.by_category("workflow.itinerary-filtered")[-1]
    print(f"Event log records the filtered itinerary: skipped={skipped.payload['skipped']}")
    if results:
        best = results[0]
        purchase = gateway.buy("carol", best.item, marketplace=best.marketplace)
        print(f"Bought {best.item.name!r} on {best.marketplace} "
              f"for {purchase.result.price_paid:.2f} despite the outage")
    print()

    # -- total outage -------------------------------------------------------------
    for name in all_marketplaces[1:]:
        platform.failures.crash_host(name)
    print("*** every marketplace is now down ***")
    response = gateway.query("carol", "books")
    print(f"Total outage is reported cleanly in the envelope: "
          f"status={response.status} error={response.error.code} "
          f"({response.error.kind}: {response.error.message})")
    print()

    # -- recovery ---------------------------------------------------------------------
    for name in all_marketplaces:
        platform.failures.recover_host(name)
    print("*** all marketplaces have recovered ***")
    response = gateway.query("carol", "books")
    print(f"Query across all marketplaces again: "
          f"{len(response.result.hits)} items found from "
          f"{sorted({hit.marketplace for hit in response.result.hits})}")

    print()

    # -- partition and heal -------------------------------------------------------------
    buyer_host = platform.buyer_server.name
    isolated = all_marketplaces[1]
    platform.failures.partition([buyer_host], [isolated])
    print(f"*** {isolated} is partitioned away from {buyer_host} ***")
    response = gateway.query("carol", "books")
    skipped = platform.event_log.latest("workflow.itinerary-filtered")
    print(f"The MBA left the unreachable marketplace off its itinerary "
          f"(skipped={skipped.payload['skipped']}) and found {len(response.result.hits)} "
          f"items from {sorted({hit.marketplace for hit in response.result.hits})}")
    platform.failures.heal()
    print("*** the partition has healed ***")
    response = gateway.query("carol", "books")
    print(f"Query after the heal: {len(response.result.hits)} items found from "
          f"{sorted({hit.marketplace for hit in response.result.hits})}")
    print()

    # -- a scheduled link cut ------------------------------------------------------------
    severed = all_marketplaces[2]
    cut_at, restore_at = platform.now + 1.0, platform.now + 1_000.0
    platform.failures.apply_plan(
        FailurePlan()
        .cut_link(cut_at, buyer_host, severed)
        .restore_link(restore_at, buyer_host, severed)
    )
    print(f"Failure plan: cut {buyer_host} <-> {severed} at {cut_at:.1f} ms, "
          f"restore it at {restore_at:.1f} ms")
    platform.scheduler.run_until(cut_at)
    response = gateway.query("carol", "books")
    print(f"While the link is cut: {len(response.result.hits)} items found from "
          f"{sorted({hit.marketplace for hit in response.result.hits})}")
    platform.scheduler.run_until(restore_at)
    response = gateway.query("carol", "books")
    print(f"Once the plan restores it: {len(response.result.hits)} items found from "
          f"{sorted({hit.marketplace for hit in response.result.hits})}")

    gateway.logout("carol")
    print()
    print("Network statistics:", platform.network.stats())


if __name__ == "__main__":
    main()
