"""Two platforms in one process are independent values.

Every id a platform mints — aglet ids, transaction ids, auction and
negotiation ids — comes from a sequence owned by one of its own objects, and
every random stream from its own seed.  So driving two platforms one gateway
call at a time, interleaved, must leave each exactly as if it had run alone:
the same envelopes, event-log rows, ``stats()``, simulated time,
marketplace transactions and completed auction and negotiation results, ids
included.  A fresh interpreter must also print the same digest of a run
whatever ``PYTHONHASHSEED`` it starts under.

Run this file as a script to print the digest of one platform's run alone.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ecommerce.platform_builder import build_platform

SEEDS = (3, 4)
SHOPPERS = ("alice", "bob", "carol")


def _platform(seed):
    return build_platform(
        seed=seed, items_per_seller=12, num_buyer_servers=2, replication_factor=1
    )


def script(platform, record):
    """Drive ``platform`` through the gateway, yielding after every call.

    Each envelope's ``repr`` is appended to ``record`` as it returns.
    """
    gateway = platform.gateway()

    def call(operation, *args, **kwargs):
        response = getattr(gateway, operation)(*args, **kwargs)
        record.append(repr(response))
        return response

    keyword = next(iter(platform.catalog_view())).terms[0][0]
    for user_id in SHOPPERS:
        call("login", user_id)
        yield
    hits = {}
    for user_id in SHOPPERS:
        hits[user_id] = call("query", user_id, keyword).result.hits
        yield
    assert all(hits.values()), "the scripted keyword must find merchandise"
    for user_id in SHOPPERS:
        call("recommendations", user_id)
        yield
    for index, user_id in enumerate(SHOPPERS):
        hit = hits[user_id][index % len(hits[user_id])]
        call("buy", user_id, hit.item, marketplace=hit.marketplace)
        yield
        call("join_auction", user_id, hit.item, max_price=hit.price * 1.4,
             marketplace=hit.marketplace)
        yield
        call("negotiate", user_id, hit.item, max_price=hit.price,
             marketplace=hit.marketplace)
        yield
    for user_id in SHOPPERS:
        call("find_similar", user_id)
        yield
        call("recommendations", user_id)
        yield


def final_record(platform, envelopes):
    """Everything observable about ``platform`` after its script ran."""
    return {
        "envelopes": envelopes,
        "events": [repr(event) for event in platform.event_log],
        "stats": repr(platform.stats()),
        "now": platform.now,
        "marketplaces": {
            market.name: (
                list(market.transactions),
                list(market.auction_house.completed),
                list(market.negotiations.completed),
            )
            for market in platform.marketplaces
        },
    }


def run_alone(seed):
    platform, envelopes = _platform(seed), []
    for _ in script(platform, envelopes):
        pass
    return final_record(platform, envelopes)


def run_interleaved(seeds):
    """Run one script per seed, advancing them one gateway call at a time."""
    platforms = [_platform(seed) for seed in seeds]
    records = [[] for _ in seeds]
    pending = [script(platform, record) for platform, record in zip(platforms, records)]
    while pending:
        for steps in list(pending):
            try:
                next(steps)
            except StopIteration:
                pending.remove(steps)
    return [final_record(platform, record) for platform, record in zip(platforms, records)]


def digest(record):
    return hashlib.sha256(repr(record).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def alone():
    return {seed: run_alone(seed) for seed in SEEDS}


@pytest.mark.parametrize("order", [SEEDS, SEEDS[::-1]], ids=["3-then-4", "4-then-3"])
def test_interleaved_twins_equal_their_runs_alone(alone, order):
    for seed, record in zip(order, run_interleaved(order)):
        assert record == alone[seed], f"seed {seed} moved when interleaved"


def test_the_script_trades_on_every_service(alone):
    for record in alone.values():
        transactions, auctions, negotiations = (
            sum(len(market[kind]) for market in record["marketplaces"].values())
            for kind in range(3)
        )
        assert transactions and auctions and negotiations
        auction_ids = [
            result.auction_id
            for market in record["marketplaces"].values() for result in market[1]
        ]
        assert all(id_.startswith("auction-marketplace-") for id_ in auction_ids)


def test_a_second_run_alone_repeats_the_first(alone):
    assert run_alone(SEEDS[0]) == alone[SEEDS[0]]


def test_digest_is_independent_of_the_hash_seed():
    source = Path(__file__).resolve().parents[2] / "src"
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(source))
        completed = subprocess.run(
            [sys.executable, __file__], env=env, capture_output=True, text=True,
            check=True, timeout=300,
        )
        digests.add(completed.stdout.strip())
    assert len(digests) == 1, digests


if __name__ == "__main__":
    print(digest(run_alone(SEEDS[0])))
