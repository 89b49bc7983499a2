"""Memory ledger: what one registered consumer costs the heap, module by module.

A replicated four-server fleet (replication factor 1, the wall-clock
ledger's deployment shape) registers and warms a community through the
gateway: login, three ratings, logout — the set-up of every wall-clock
workload.  It is read twice: once with every WAL entry of the set-up still
retained (the state each wall-clock set-up ends in), and once after the
scheduled anti-entropy ticks truncated each WAL behind a snapshot, as in a
running platform.  ``tracemalloc`` attributes every block alive at a
reading to the source file that allocated it, and the difference from the
empty platform, divided by the community size, is the per-consumer cost of
each ``repro`` module.  Blocks allocated elsewhere (the standard library,
on behalf of ``repro`` code) are one line, ``(outside repro)``.  Each
reading, the empty one included, follows a full ``gc.collect()``: that
empties the object free lists, whose parked blocks ``tracemalloc`` would
count as allocated (see below).

The smoke asserts three bars: the retained total, the truncated total and
the truncated ``core/profile.py``, the Figure 4.4 profile that the buyer
server's UserDB stores.  The total bars sit about 5 % above what the run
measured when they were set (bytes per consumer on CPython 3.11, the same
under any ``PYTHONHASHSEED``: retained 9 863, truncated 9 488).  Holding
one profile version per consumer in the WAL (a superseded
``store-profile`` row reads the consumer's latest dump) took the retained
total from 11 549 to 10 445 and left the truncated one at 10 070, and
deriving ``RatingsStore.last_interaction_at`` from the consumer's own
interactions instead of a ``(user, item)``-keyed timestamp map took
another 582 from each (``core/ratings.py`` 1 675 → 1 094 retained); all
four figures are read with the collection, which the ledger took up in
the same change.  The ``platform/events.py`` line is a fixed cost divided by the community size,
not a per-consumer one: the event log keeps only its last
``EventLog.RETAINED_ROWS`` rows (16 384), and the set-up records ~30 per
consumer, so at 600 consumers the ring is full and the line is its value
tuples, ~850 kB, over 600 (~1 420 B; the ring's columns are allocated with
the platform, before the empty reading).  A larger community reads less
there.  Keeping each WAL entry as a row of columns (the op, an interned
key tuple beside a tuple of the payload's values, a packed timestamp and
size) instead of an entry object with its own copy of the payload dict
took the retained total from 13 286 to 11 545; ``ecommerce/replication.py``
went from 2 996 to 1 095 there.  Read without a collection, the truncated
total rose from 10 088 to ~10 364 then, although no more was live: the
truncation frees the rows' value tuples, the tuple free lists keep up to
2 000 of each length for reuse, and ``tracemalloc`` counts a free-listed
block as allocated, charged to the site that first allocated it (the
value-tuple line of ``ReplicationLog.append``, ~280 B per consumer).
With the collection the truncated total read 10 061 before that change
and 10 065 after, which is why every reading now collects first.
Bounding the log took the totals from 15 216 and 12 018, when that
line was 3 319 B per consumer and grew with the community.  Keeping each
event payload as a tuple of its values beside one shared key tuple per
payload shape, instead of the caller's keyword dict, took the totals from
18 663 and 15 460.  ``PROFILE_BAR`` was set at a ``core/profile.py``
reading of 3 070 and is left there, although that line now reads ~2 020
with no profile change: ``tracemalloc`` charges a block taken from the
allocator's free list to the site that first allocated it, so freeing the
per-row keyword dicts moved bytes between module lines.  Only the totals
compare across that change.  Copy-on-write term dicts, and dumps that
reuse every node of the consumer's previous dump a learning event left
alone, took the totals from 22 466 and 16 768 and ``core/profile.py``
from 4 258; holding each shipped profile dump once, instead of a replica
``Profile`` graph and a snapshot re-dump beside it, had taken the
truncated pair from 20 082 and 7 638.  A change that makes a consumer
dearer fails here, and one that makes it cheaper should lower them.

Run ``python -m pytest -q -s benchmarks/bench_memory.py`` to print the
ledger, or ``python benchmarks/bench_memory.py``.
"""

import gc
import random
import tracemalloc
from pathlib import Path

from repro import build_platform
from repro.workload import ConsumerPopulation

CONSUMERS = 600
SEED = 1
#: Bytes per consumer; see the module docstring for how they were set.
RETAINED_BAR = 10_350
TOTAL_BAR = 9_950
PROFILE_BAR = 3_250

SOURCE_ROOT = Path(__import__("repro").__file__).resolve().parent
OUTSIDE = "(outside repro)"


def _module(filename: str) -> str:
    path = Path(filename).resolve()
    try:
        return path.relative_to(SOURCE_ROOT).as_posix()
    except ValueError:
        return OUTSIDE


def _per_consumer(snapshot, empty, consumers: int) -> dict:
    per_module: dict = {}
    for stat in snapshot.compare_to(empty, "filename"):
        module = _module(stat.traceback[0].filename)
        per_module[module] = per_module.get(module, 0) + stat.size_diff
    return {module: size / consumers for module, size in per_module.items()}


def measure(consumers: int = CONSUMERS, seed: int = SEED) -> tuple:
    """``{module: bytes per consumer}`` retained by a warmed community, read
    twice: with every WAL entry of the set-up still retained, and after the
    anti-entropy ticks truncated each WAL behind a snapshot."""
    population = ConsumerPopulation(consumers, seed=seed).consumers()
    tracemalloc.start()
    try:
        platform = build_platform(seed=seed, num_buyer_servers=4, replication_factor=1)
        gateway = platform.gateway()
        items = sorted(platform.catalog_view(), key=lambda item: item.item_id)
        picks = random.Random(seed)
        gc.collect()  # free lists hold freed blocks tracemalloc counts as live
        empty = tracemalloc.take_snapshot()
        for consumer in population:
            user = consumer.user_id
            responses = [gateway.login(user)]
            for item in picks.sample(items, 3):
                responses.append(gateway.rate(user, item, round(5.0 * consumer.utility(item), 1)))
            responses.append(gateway.logout(user))
            for response in responses:
                assert response.ok, response.describe()
        gc.collect()
        retained = tracemalloc.take_snapshot()
        platform.scheduler.run_until(platform.now)  # anti-entropy: WAL truncation
        gc.collect()
        truncated = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    return (
        _per_consumer(retained, empty, consumers),
        _per_consumer(truncated, empty, consumers),
    )


def report(per_module: dict) -> str:
    rows = sorted(per_module.items(), key=lambda row: (-row[1], row[0]))
    width = max(len(module) for module, _ in rows)
    lines = [f"{'module':<{width}}  bytes/consumer"]
    lines += [f"{module:<{width}}  {size:14,.0f}" for module, size in rows if abs(size) >= 1]
    lines.append(f"{'total':<{width}}  {sum(per_module.values()):14,.0f}")
    return "\n".join(lines)


def test_memory_per_consumer_stays_under_its_bars():
    retained, per_module = measure()
    print()
    print(f"== memory ledger: {CONSUMERS} consumers, 4 servers, replication factor 1 ==")
    print("-- WAL retained (before the anti-entropy ticks) --")
    print(report(retained))
    print("-- WAL truncated behind a snapshot --")
    print(report(per_module))
    total = sum(retained.values())
    assert total <= RETAINED_BAR, f"WAL retained: {total:,.0f} B per consumer, bar {RETAINED_BAR:,}"
    total = sum(per_module.values())
    assert total <= TOTAL_BAR, f"{total:,.0f} B per consumer, bar {TOTAL_BAR:,}"
    profile = per_module.get("core/profile.py", 0.0)
    assert profile <= PROFILE_BAR, f"core/profile.py {profile:,.0f} B per consumer, bar {PROFILE_BAR:,}"


if __name__ == "__main__":
    for reading in measure():
        print(report(reading))
