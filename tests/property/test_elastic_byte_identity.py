"""Property tests: elastic topology changes are byte-invisible (PR 9).

The elastic fleet's contract is that *where* a consumer's state lives is
unobservable from the query surface: a platform that splits shards, hands
them back, or loses and recovers servers mid-flight must answer every
similar-consumer query byte-identically to a static same-seed reference
that never changed topology.  These tests hold that line after every
individual migration step, including a crash *during* a split.
"""

import pytest

from repro.ecommerce import build_platform


SEED = 1234
USERS = [f"user-{index}" for index in range(48)]
KEYWORDS = ("book", "music", "garden", "movie")


def make(seed=SEED, **overrides):
    defaults = dict(num_buyer_servers=3, replication_factor=1, seed=seed)
    defaults.update(overrides)
    return build_platform(**defaults)


def drive(platform, users=USERS):
    """Deterministic traffic: registration, logins, queries and buys."""
    gateway = platform.gateway()
    for index, user_id in enumerate(users):
        gateway.register(user_id)
        gateway.login(user_id)
        keyword = KEYWORDS[index % len(KEYWORDS)]
        gateway.query(user_id, keyword)
        gateway.query(user_id, KEYWORDS[(index + 1) % len(KEYWORDS)])
        if index % 3 == 0:
            gateway.buy(user_id, f"{keyword}-1")
        gateway.logout(user_id)


def neighbor_stream(platform, users=USERS):
    """Every consumer's neighbor list — the byte-identity witness.

    Latencies are excluded on purpose: moving a shard legitimately changes
    *where* (and how fast) an answer is computed, never *what* it is.
    """
    return [platform.fleet.query_similar(user_id).neighbors for user_id in users]


def assert_identical(reference, elastic, context):
    assert neighbor_stream(elastic) == reference, context


def test_split_is_byte_invisible_at_every_step():
    reference_platform = make()
    elastic = make()
    drive(reference_platform)
    drive(elastic)
    reference = neighbor_stream(reference_platform)
    assert_identical(reference, elastic, "same-seed platforms must agree")

    fleet = elastic.fleet
    target = fleet.owner_of_shard(1)
    split = fleet.split_shard(0, target=target)
    step = 0
    while not split.done:
        split.step()
        step += 1
        assert_identical(reference, elastic, f"mid-split after step {step}")
    split.finalize()
    assert_identical(reference, elastic, "after split commit")
    # Splitting the child again (recursive lineage) stays invisible too.
    nested = fleet.split_shard(split.child, target=fleet.owner_of_shard(2))
    nested.run()
    assert_identical(reference, elastic, "after nested split")


def test_handback_is_byte_invisible_at_every_step():
    reference_platform = make()
    elastic = make()
    drive(reference_platform)
    drive(elastic)
    reference = neighbor_stream(reference_platform)

    fleet = elastic.fleet
    newcomer = elastic.add_buyer_server()
    assert_identical(reference, elastic, "after server join")
    fleet.transfer_shard(0, newcomer)
    assert_identical(reference, elastic, "after handback to the newcomer")
    fleet.transfer_shard(0, fleet.servers[0])
    assert_identical(reference, elastic, "after handing the shard home")
    elastic.remove_buyer_server(newcomer)
    assert_identical(reference, elastic, "after decommission")


def test_crash_during_split_preserves_byte_identity():
    """A server dies *mid-split*; both platforms fail over identically.

    The reference platform suffers the identical crash + promotion but no
    split — proving the in-flight migration neither loses consumers nor
    perturbs a single answer while the fleet is simultaneously failing
    over, and that the retargeted migration still commits cleanly.
    """
    reference_platform = make()
    elastic = make()
    drive(reference_platform)
    drive(elastic)

    fleet = elastic.fleet
    victim = fleet.owner_of_shard(0)
    target = fleet.owner_of_shard(1)
    split = fleet.split_shard(0, target=target)
    split.step(max(1, len(split.pending) // 2))

    # Crash the parent shard's owner in both worlds, then promote.
    for platform in (reference_platform, elastic):
        platform.failures.crash_host(victim.name)
        platform.fleet.handle_server_failure(0)
    reference = neighbor_stream(reference_platform)
    assert_identical(reference, elastic, "degraded, split in flight")

    # The split finishes against the promoted owner.
    split.run()
    assert_identical(reference, elastic, "split committed after failover")
    assert elastic.fleet.lost_consumers == reference_platform.fleet.lost_consumers

    # Recovery converges both worlds again.
    for platform in (reference_platform, elastic):
        platform.failures.recover_host(victim.name)
        platform.fleet.recover_server(platform.fleet.servers[0])
    reference = neighbor_stream(reference_platform)
    assert_identical(reference, elastic, "after recovery")
