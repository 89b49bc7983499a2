"""Every way a consumer changes server carries the same durable record.

Promotion failover, shard handback (with and without replication), a live
split step and the per-consumer migration all move state with
``UserDB.adopt``.  This is the one test that fails when a durable field is
added to UserDB and ``adopt`` is not taught to copy it: it compares every
``UserRecord`` field plus the profile, interaction and transaction
collections across each kind of move.
"""

import dataclasses

import pytest

from repro.ecommerce.platform_builder import build_platform

CONSUMERS = [f"consumer-{index}" for index in range(10)]


def _drive_workload(platform):
    """Give every consumer logins, a learned profile, ratings and purchases."""
    gateway = platform.gateway()
    keyword = next(iter(platform.catalog_view())).terms[0][0]
    for user_id in CONSUMERS:
        for _ in range(2):
            assert gateway.login(user_id).ok
            hit = gateway.query(user_id, keyword).result.hits[0]
            assert gateway.buy(user_id, hit.item, marketplace=hit.marketplace).ok
            assert gateway.rate(user_id, hit.item, 4.0).ok
            assert gateway.logout(user_id).ok


def _durable_state(user_db, user_id):
    return {
        "record": dataclasses.asdict(user_db.user(user_id)),
        "profile": user_db.profile(user_id).to_dict(),
        "interactions": user_db.ratings.interactions_of(user_id),
        "transactions": user_db.transactions_of(user_id),
    }


def _promote(platform, shard, other):
    platform.failures.crash_host(platform.fleet.owner_of_shard(shard).name)
    platform.fleet.handle_server_failure(shard)


def _transfer(platform, shard, other):
    platform.fleet.transfer_shard(shard, other)


def _split_step(platform, shard, other):
    split = platform.fleet.split_shard(shard, target=other)
    split.step(len(split.pending))


def _migrate(platform, shard, other):
    fleet = platform.fleet
    target_shard = fleet.shards_of(other)[0]
    for user_id in fleet.consumers_of(shard):
        fleet.migrate_consumer(user_id, target_shard)


@pytest.mark.parametrize(
    "move, replication_factor",
    [
        (_promote, 1),
        (_transfer, 1),
        (_transfer, 0),
        (_split_step, 0),
        (_migrate, 0),
    ],
)
def test_a_moved_consumer_keeps_every_durable_field(move, replication_factor):
    platform = build_platform(
        seed=11, num_buyer_servers=3, replication_factor=replication_factor
    )
    fleet = platform.fleet
    _drive_workload(platform)
    sizes = fleet.shard_sizes()
    shard = sizes.index(max(sizes))
    source = fleet.owner_of_shard(shard)
    other = next(server for server in fleet.servers if server is not source)
    before = {
        user_id: _durable_state(source.user_db, user_id)
        for user_id in fleet.consumers_of(shard)
    }

    move(platform, shard, other)

    moved = [user_id for user_id in before if fleet.server_for(user_id) is not source]
    assert moved
    for user_id in moved:
        state = _durable_state(fleet.server_for(user_id).user_db, user_id)
        assert state == before[user_id]
        # The comparison above is only worth something over non-trivial state.
        assert state["record"]["logins"] == 2
        assert state["record"]["last_login_at"] > state["record"]["registered_at"]
        assert state["profile"]["categories"]
        assert state["interactions"] and state["transactions"]
