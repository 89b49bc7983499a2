"""Unit tests for the versioned shard map (`repro.core.shard_map`)."""

import pytest

from repro.core.shard_map import (
    SHARD_MIGRATING,
    SHARD_STEADY,
    ShardMap,
    split_membership,
)
from repro.errors import ShardMapError


def fresh_map():
    return ShardMap(["server-a", "server-b", "server-c"])


class TestConstruction:
    def test_from_list_assigns_dense_ids(self):
        shard_map = fresh_map()
        assert shard_map.num_shards == 3
        assert shard_map.shard_ids() == [0, 1, 2]
        assert shard_map.owner_of(0) == "server-a"
        assert shard_map.owner_of(2) == "server-c"
        assert shard_map.epoch == 1

    def test_from_mapping(self):
        shard_map = ShardMap({0: "x", 1: "y"})
        assert shard_map.owner_of(1) == "y"

    def test_rejects_empty(self):
        with pytest.raises(ShardMapError):
            ShardMap([])

    def test_rejects_sparse_ids(self):
        with pytest.raises(ShardMapError):
            ShardMap({0: "x", 2: "y"})

    def test_all_shards_start_steady(self):
        shard_map = fresh_map()
        assert all(shard_map.state_of(s) == SHARD_STEADY for s in shard_map.shard_ids())
        assert shard_map.migrating() == {}


class TestReads:
    def test_shards_of_and_owners(self):
        shard_map = ShardMap(["a", "b", "a"])
        assert shard_map.shards_of("a") == [0, 2]
        assert shard_map.shards_of("b") == [1]
        assert shard_map.shards_of("ghost") == []
        assert shard_map.owners() == ["a", "b"]

    def test_owner_of_unknown_shard_raises(self):
        with pytest.raises(ShardMapError):
            fresh_map().owner_of(99)

    def test_as_dict_snapshot(self):
        shard_map = fresh_map()
        snap = shard_map.as_dict()
        assert snap["epoch"] == 1
        assert snap["assignments"] == {0: "server-a", 1: "server-b", 2: "server-c"}
        assert snap["migrations"] == {}
        assert snap["splits"] == {}


class TestReassign:
    def test_bulk_reassign_bumps_epoch_once(self):
        shard_map = fresh_map()
        events = []
        shard_map.subscribe(lambda m, reason, shards: events.append((m.epoch, reason, shards)))
        shard_map.reassign([0, 2], "server-b", reason="promote")
        assert shard_map.owner_of(0) == "server-b"
        assert shard_map.owner_of(2) == "server-b"
        assert shard_map.epoch == 2
        assert events == [(2, "promote", (0, 2))]

    def test_reassign_nothing_is_a_noop(self):
        shard_map = fresh_map()
        shard_map.reassign([], "server-b")
        assert shard_map.epoch == 1

    def test_reassign_retargets_inflight_migration(self):
        # A crash mid-split promotes the child's owner away; the split
        # continues against the promoted server.
        shard_map = fresh_map()
        child = shard_map.begin_split(0, owner="server-b", source="server-a")
        shard_map.reassign([child], "server-c", reason="promote")
        migration = shard_map.migration_of(child)
        assert migration is not None
        assert migration.target == "server-c"
        assert shard_map.owner_of(child) == "server-c"
        # Commit must not flip ownership back to the stale target.
        shard_map.commit_migration(child)
        assert shard_map.owner_of(child) == "server-c"


class TestMigration:
    def test_handback_flips_owner_on_commit(self):
        shard_map = fresh_map()
        shard_map.begin_migration(1, kind="handback", target="server-c")
        assert shard_map.owner_of(1) == "server-b"  # unchanged until commit
        assert shard_map.state_of(1) == SHARD_MIGRATING
        shard_map.commit_migration(1)
        assert shard_map.owner_of(1) == "server-c"
        assert shard_map.state_of(1) == SHARD_STEADY
        assert shard_map.migrating() == {}

    def test_abort_keeps_current_owner(self):
        shard_map = fresh_map()
        shard_map.begin_migration(1, kind="handback", target="server-c")
        shard_map.abort_migration(1)
        assert shard_map.owner_of(1) == "server-b"
        assert shard_map.state_of(1) == SHARD_STEADY

    def test_double_begin_raises(self):
        shard_map = fresh_map()
        shard_map.begin_migration(1, kind="handback", target="server-c")
        with pytest.raises(ShardMapError):
            shard_map.begin_migration(1, kind="handback", target="server-a")

    def test_commit_without_begin_raises(self):
        with pytest.raises(ShardMapError):
            fresh_map().commit_migration(0)

    def test_abort_without_begin_raises(self):
        with pytest.raises(ShardMapError):
            fresh_map().abort_migration(0)

    def test_every_transition_bumps_epoch(self):
        shard_map = fresh_map()
        shard_map.begin_migration(0, kind="handback", target="server-b")
        assert shard_map.epoch == 2
        shard_map.commit_migration(0)
        assert shard_map.epoch == 3


class TestSplit:
    def test_split_appends_dense_child_owned_immediately(self):
        shard_map = fresh_map()
        child = shard_map.begin_split(1, owner="server-a", source="server-b")
        assert child == 3
        assert shard_map.num_shards == 4
        assert shard_map.shard_ids() == [0, 1, 2, 3]
        assert shard_map.owner_of(child) == "server-a"  # owned from the start
        assert shard_map.state_of(child) == SHARD_MIGRATING
        assert shard_map.splits_of(1) == (child,)
        assert shard_map.parent_of(child) == 1
        assert shard_map.parent_of(1) is None

    def test_split_commit_does_not_flip_owner(self):
        shard_map = fresh_map()
        child = shard_map.begin_split(1, owner="server-a", source="server-b")
        shard_map.commit_migration(child)
        assert shard_map.owner_of(child) == "server-a"
        assert shard_map.state_of(child) == SHARD_STEADY

    def test_route_follows_split_lineage(self):
        shard_map = fresh_map()
        base = {f"user-{i}": shard_map.base_shard(f"user-{i}") for i in range(200)}
        child = shard_map.begin_split(1, owner="server-a", source="server-b")
        # Base placement hashes over the founding shards, never the split ones.
        assert {uid: shard_map.base_shard(uid) for uid in base} == base
        assert set(base.values()) == {0, 1, 2}
        movers = [uid for uid in (f"user-{i}" for i in range(200))
                  if split_membership(uid, 1, 0)]
        stayers = [uid for uid in (f"user-{i}" for i in range(200))
                   if not split_membership(uid, 1, 0)]
        assert movers and stayers  # the hash actually cuts both ways
        for uid in movers[:20]:
            assert shard_map.route(uid, 1) == child
        for uid in stayers[:20]:
            assert shard_map.route(uid, 1) == 1
        # Shards that never split route to themselves.
        assert shard_map.route("anyone", 0) == 0

    def test_route_descends_recursive_splits(self):
        shard_map = fresh_map()
        child = shard_map.begin_split(1, owner="server-a", source="server-b")
        shard_map.commit_migration(child)
        grandchild = shard_map.begin_split(child, owner="server-c", source="server-a")
        uid = next(u for u in (f"user-{i}" for i in range(500))
                   if split_membership(u, 1, 0) and split_membership(u, child, 0))
        assert shard_map.route(uid, 1) == grandchild

    def test_split_membership_is_deterministic(self):
        assert split_membership("alice", 0, 0) == split_membership("alice", 0, 0)
        # Different split identities give independent cuts: at least one
        # consumer in a small population disagrees across them.
        pop = [f"user-{i}" for i in range(64)]
        assert any(
            split_membership(u, 0, 0) != split_membership(u, 1, 0) for u in pop
        )


class TestListeners:
    def test_listener_sees_reason_and_shards(self):
        shard_map = fresh_map()
        seen = []
        shard_map.subscribe(lambda m, reason, shards: seen.append((reason, shards)))
        child = shard_map.begin_split(0, owner="server-b", source="server-a")
        shard_map.commit_migration(child)
        shard_map.begin_migration(1, kind="handback", target="server-a")
        shard_map.abort_migration(1)
        assert seen == [
            ("split-begin", (0, child)),
            ("migration-commit", (child,)),
            ("migration-begin", (1,)),
            ("migration-abort", (1,)),
        ]
