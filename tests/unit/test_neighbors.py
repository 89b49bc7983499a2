"""Unit tests for the profile neighbor index (repro.core.neighbors).

The property suite (``tests/property/test_neighbor_index.py``) proves the
indexed search equals brute force; the tests here pin down the *mechanics*:
exact incremental invalidation through ProfileLearner hooks, the stale-cache
regression the hooks exist to prevent, discard-rule candidate pruning, and
cache reuse across queries.
"""

import copy
import json
import math
import os
import subprocess
import sys

from repro.core.neighbors import ProfileNeighborIndex
from repro.core.profile import Profile
from repro.core.profile_learning import FeedbackEvent, ProfileLearner
from repro.core.ratings import InteractionKind
from repro.core.similarity import SimilarityConfig, find_similar_users
from repro.ecommerce.platform_builder import build_platform

from tests.conftest import make_item


def build_profile(user_id, preferences, terms=None):
    profile = Profile(user_id)
    for category, value in preferences.items():
        profile.category(category).preference = value
    for category, term_weights in (terms or {}).items():
        for term, weight in term_weights.items():
            profile.category(category).terms.set(term, weight)
    return profile


def held_row(index, user_id):
    """Where the kernel holds ``user_id``: partition object, row, stamp."""
    partition = index._kernel._partition_of[user_id]
    row = partition.row_of[user_id]
    return partition, row, partition.stamps[row]


def community():
    """Three consumers with overlapping tastes, keyed by user id."""
    return {
        "alice": build_profile("alice", {"books": 5.0}, {"books": {"novel": 1.0}}),
        "bob": build_profile("bob", {"books": 4.5}, {"books": {"novel": 0.8}}),
        "carol": build_profile(
            "carol", {"electronics": 6.0}, {"electronics": {"laptop": 1.0}}
        ),
    }


class TestIncrementalInvalidation:
    def test_learner_hook_invalidates_exactly_the_affected_consumer(self):
        profiles = community()
        index = ProfileNeighborIndex(profiles=profiles.values())
        learner = ProfileLearner()
        index.attach_to(learner)
        rows_before = {name: held_row(index, name) for name in profiles}
        books_before = index._kernel.target_of("bob").prefs["books"]

        event = FeedbackEvent(
            "bob", make_item("item-x", category="books"), InteractionKind.BUY
        )
        learner.apply(profiles["bob"], event)

        assert index.dirty_users() == {"bob"}
        index.sync()
        assert index.dirty_users() == set()
        # Only bob's row was re-put; alice and carol kept their partition,
        # row and stamp.
        assert held_row(index, "alice") == rows_before["alice"]
        assert held_row(index, "carol") == rows_before["carol"]
        assert held_row(index, "bob")[2] != rows_before["bob"][2]
        assert index._kernel.target_of("bob").prefs["books"] > books_before

    def test_stale_cache_regression_update_visible_in_next_query(self):
        """A feedback event must be reflected by the very next query."""
        profiles = community()
        index = ProfileNeighborIndex(profiles=profiles.values())
        learner = ProfileLearner()
        index.attach_to(learner)
        config = SimilarityConfig()

        target = profiles["alice"]
        before = index.find_similar(target)

        # Carol suddenly develops alice's taste in books.
        for _ in range(5):
            learner.apply(
                profiles["carol"],
                FeedbackEvent(
                    "carol",
                    make_item("item-y", category="books", terms={"novel": 1.0}),
                    InteractionKind.BUY,
                ),
            )

        after = index.find_similar(target)
        brute = find_similar_users(target, profiles.values(), config)
        assert after == brute
        assert after != before
        assert "carol" in [user_id for user_id, _ in after]

    def test_version_stamp_catches_updates_without_hooks(self):
        """Provider-backed indexes self-heal even if no hook was registered."""
        profiles = community()
        index = ProfileNeighborIndex(provider=lambda: profiles.values())
        target = profiles["alice"]
        index.find_similar(target)  # warm caches

        learner = ProfileLearner()  # deliberately NOT attached
        learner.apply(
            profiles["carol"],
            FeedbackEvent(
                "carol",
                make_item("item-z", category="books", terms={"novel": 1.0}),
                InteractionKind.BUY,
            ),
        )
        assert index.dirty_users() == set()

        brute = find_similar_users(target, profiles.values(), SimilarityConfig())
        assert index.find_similar(target) == brute

    def test_explicit_invalidate_rebuilds_after_direct_mutation(self):
        profiles = community()
        index = ProfileNeighborIndex(profiles=profiles.values())
        profiles["bob"].category("books").preference = 9.0
        index.invalidate("bob")
        assert index.dirty_users() == {"bob"}
        stamp = index._kernel.stamp_of("bob")
        index.sync()
        assert index._kernel.stamp_of("bob") == stamp  # no learner, no new stamp
        assert index._kernel.target_of("bob").prefs["books"] == 9.0

    def test_invalidate_unknown_user_is_ignored(self):
        index = ProfileNeighborIndex(profiles=community().values())
        index.invalidate("nobody")
        assert index.dirty_users() == set()

    def test_remove_and_re_add(self):
        profiles = community()
        index = ProfileNeighborIndex(profiles=profiles.values())
        target = profiles["alice"]
        assert "bob" in [user_id for user_id, _ in index.find_similar(target)]

        index.remove("bob")
        assert "bob" not in index
        assert "bob" not in [user_id for user_id, _ in index.find_similar(target)]

        index.add(profiles["bob"])
        assert "bob" in [user_id for user_id, _ in index.find_similar(target)]

    def test_queries_without_changes_rebuild_nothing(self):
        profiles = community()
        index = ProfileNeighborIndex(provider=lambda: profiles.values())
        index.find_similar(profiles["alice"])
        rebuilds = index.rebuilds
        index.find_similar(profiles["alice"])
        index.find_similar(profiles["bob"])
        assert index.rebuilds == rebuilds

    def test_provider_version_fast_path_skips_reconcile_but_stays_correct(self):
        profiles = community()
        version = {"n": 0}
        index = ProfileNeighborIndex(
            provider=lambda: profiles.values(),
            provider_version=lambda: version["n"],
        )
        learner = ProfileLearner()
        index.attach_to(learner)
        index.find_similar(profiles["alice"])  # full reconcile, stamp recorded

        # Unchanged stamp + no dirty consumers: sync is a no-op.
        assert index.sync() == 0

        # A hooked learner update rebuilds only that consumer.
        learner.apply(
            profiles["carol"],
            FeedbackEvent(
                "carol",
                make_item("item-n", category="books", terms={"novel": 1.0}),
                InteractionKind.BUY,
            ),
        )
        assert index.sync() == 1

        # A membership change (new registration) bumps the stamp and is
        # picked up by the next query even though no hook fired for it.
        profiles["erin"] = build_profile(
            "erin", {"books": 5.0}, {"books": {"novel": 1.0}}
        )
        version["n"] += 1
        neighbours = index.find_similar(profiles["alice"])
        assert "erin" in [user_id for user_id, _ in neighbours]
        brute = find_similar_users(
            profiles["alice"], profiles.values(), SimilarityConfig()
        )
        assert neighbours == brute

    def test_a_pending_consumer_who_leaves_is_forgotten(self):
        """A consumer registered through the learner hook (dirty, not yet
        indexed) who leaves the provider before the next query is forgotten
        by that query's reconcile: not held, and not brought back by a later
        ``invalidate``."""
        profiles = community()
        version = {"n": 0}
        index = ProfileNeighborIndex(
            provider=lambda: profiles.values(),
            provider_version=lambda: version["n"],
        )
        learner = ProfileLearner()
        index.attach_to(learner)
        index.find_similar(profiles["alice"])

        profiles["dave"] = build_profile("dave", {"books": 5.0}, {"books": {"novel": 1.0}})
        version["n"] += 1
        learner.apply(
            profiles["dave"],
            FeedbackEvent(
                "dave",
                make_item("item-d", category="books", terms={"novel": 1.0}),
                InteractionKind.BUY,
            ),
        )
        assert index.dirty_users() == {"dave"}
        del profiles["dave"]
        version["n"] += 1

        index.sync()
        assert "dave" not in [profile.user_id for profile in index.indexed_profiles()]
        assert "dave" not in index and index.dirty_users() == set()
        index.invalidate("dave")
        answer = index.find_similar(profiles["alice"])
        assert answer == find_similar_users(
            profiles["alice"], profiles.values(), index.config
        )
        assert "dave" not in [user_id for user_id, _ in answer]

    def test_an_update_burst_is_deferred_and_costs_one_rebuild(self):
        """Hooks only mark state dirty; the next query re-indexes the touched
        consumer once, however many updates the burst held."""
        profiles = community()
        index = ProfileNeighborIndex(profiles=profiles.values())
        index.find_similar(profiles["alice"])
        rebuilds, mutations = index.rebuilds, index.mutations

        bob = profiles["bob"]
        for step in range(5):
            bob.category("books").terms.set("novel", 2.0 + step)
            index.on_profile_update(bob)
        assert (index.rebuilds, index.mutations) == (rebuilds, mutations)
        assert index.dirty_users() == {"bob"}

        answer = index.find_similar(profiles["alice"])
        assert (index.rebuilds, index.mutations) == (rebuilds + 1, mutations + 1)
        assert answer == find_similar_users(
            profiles["alice"], profiles.values(), index.config
        )

    def test_batch_refresh_rebuilds_only_the_touched_consumer(self):
        """Service-level: a second batch refresh after a burst of one
        consumer's learning updates re-indexes only that consumer, once."""
        platform = build_platform(seed=7)
        server = platform.buyer_server
        gateway = platform.gateway()
        keyword = next(iter(platform.catalog_view())).terms[0][0]
        users = [f"lazy-{index}" for index in range(6)]
        for user_id in users:
            gateway.login(user_id)
            gateway.query(user_id, keyword)
            gateway.logout(user_id)
        service = server.recommendations
        service.batch_refresh(users, k=5)
        index = service.neighbor_index
        rebuilds_before = index.rebuilds

        item = next(iter(platform.catalog_view()))
        profile = server.user_db.profile(users[0])
        for step in range(3):
            server.profile_learner.apply(
                profile,
                FeedbackEvent(users[0], item, InteractionKind.VIEW, timestamp=float(step)),
            )
        assert index.dirty_users() == {users[0]}

        service.batch_refresh(users, k=5)
        assert index.rebuilds == rebuilds_before + 1


class TestCandidatePruning:
    def test_discard_rule_prunes_before_scoring(self):
        target = build_profile("me", {"books": 5.0}, {"books": {"novel": 1.0}})
        near = build_profile("near", {"books": 4.0}, {"books": {"novel": 1.0}})
        far = build_profile("far", {"books": 9.5}, {"books": {"novel": 1.0}})
        index = ProfileNeighborIndex(profiles=[target, near, far])

        config = SimilarityConfig(discard_tolerance=2.0)
        neighbours = index.find_similar(target, category="books", config=config)
        assert [user_id for user_id, _ in neighbours] == ["near"]

    def test_consumers_without_the_category_pass_when_target_is_near_zero(self):
        # Target preference 1.0, tolerance 3.0: consumers with no "books"
        # category at all (implicit value 0.0) must still be candidates.
        target = build_profile("me", {"books": 1.0}, {"books": {"novel": 1.0}})
        other = build_profile("other", {}, {"electronics": {"novel": 1.0}})
        index = ProfileNeighborIndex(profiles=[target, other])

        config = SimilarityConfig(discard_tolerance=3.0, min_similarity=0.0)
        brute = find_similar_users(target, [target, other], config, category="books")
        indexed = index.find_similar(target, category="books", config=config)
        assert indexed == brute
        assert [user_id for user_id, _ in indexed] == ["other"]

    def test_consumers_without_the_category_drop_when_target_is_far(self):
        target = build_profile("me", {"books": 8.0}, {"books": {"novel": 1.0}})
        other = build_profile("other", {}, {"electronics": {"novel": 1.0}})
        index = ProfileNeighborIndex(profiles=[target, other])

        config = SimilarityConfig(discard_tolerance=3.0, min_similarity=0.0)
        assert index.find_similar(target, category="books", config=config) == []

    def test_discard_boundary_holds_in_and_outside_the_signature(self):
        """``|Tx − Ty| == tolerance`` passes whether Ty is read from a
        partition's column or is the implicit 0.0 of a signature without the
        category, and one ulp past the tolerance does not."""
        terms = {"books": {"novel": 1.0}}
        profiles = [
            build_profile("me-5", {"books": 5.0, "music": 1.0}, terms),
            build_profile("me-2", {"music": 1.0, "books": 2.0}, terms),
            build_profile("edge", {"books": 3.0}, terms),
            build_profile("edge-music", {"music": 2.0, "books": 7.0}, terms),
            build_profile("past", {"books": math.nextafter(3.0, 0.0)}, terms),
            build_profile("over", {"books": 2.5}, terms),
            build_profile("absent", {"music": 4.0}, {"music": {"novel": 1.0}}),
        ]
        index = ProfileNeighborIndex(profiles=profiles)
        assert len(index._kernel._partitions) == 4
        config = SimilarityConfig(discard_tolerance=2.0, min_similarity=0.0, top_k=10)
        expected = {"me-5": {"edge", "edge-music"}, "me-2": {"edge", "past", "over", "absent"}}
        for target in profiles[:2]:
            answer = index.find_similar(target, category="books", config=config)
            assert answer == find_similar_users(target, profiles, config, category="books")
            assert {user_id for user_id, _ in answer} == expected[target.user_id]

    def test_target_never_included_in_its_own_neighbours(self):
        profiles = community()
        index = ProfileNeighborIndex(profiles=profiles.values())
        for name, profile in profiles.items():
            assert name not in [
                user_id for user_id, _ in index.find_similar(profile)
            ]

    def test_empty_index_returns_nothing(self):
        index = ProfileNeighborIndex()
        target = build_profile("me", {"books": 1.0})
        assert index.find_similar(target) == []


def _fresh_row_community():
    """Sub-categories and shared terms, so flattening the target is real work."""
    profiles = community()
    profiles["alice"].category("books").subcategory("fiction").terms.set("novel", 0.3)
    profiles["alice"].category("books").subcategory("fiction").terms.set("saga", 0.7)
    profiles["bob"].category("electronics").preference = 1.5
    profiles["bob"].category("electronics").terms.set("laptop", 0.4)
    profiles["dave"] = build_profile(
        "dave", {"books": 4.0, "electronics": 2.0}, {"books": {"saga": 0.9, "novel": 0.1}}
    )
    return profiles


class TestFreshRowTarget:
    """A target that is the index's own up-to-date row is read from the row;
    any other target is flattened on the spot.  Same pairs, same floats."""

    def test_own_row_answers_exactly_like_a_detached_copy(self, monkeypatch):
        profiles = _fresh_row_community()
        flattened = []
        flatten = Profile.flattened_terms
        monkeypatch.setattr(
            Profile,
            "flattened_terms",
            lambda self: flattened.append(self) or flatten(self),
        )
        index = ProfileNeighborIndex(profiles=profiles.values())
        index.sync()
        for target in profiles.values():
            for category in (None, "books", "electronics", "toys"):
                del flattened[:]
                from_row = index.find_similar(target, category=category)
                assert flattened == []
                detached = copy.deepcopy(target)
                assert index.find_similar(detached, category=category) == from_row
                assert detached in flattened
                assert from_row == find_similar_users(
                    target, profiles.values(), index.config, category=category
                )

    def test_an_unstamped_edit_shows_only_after_invalidate(self):
        """Editing a profile in place without the learner moves no stamp:
        the row is stale, and so is the target side read from it, until
        ``invalidate`` — after which both sides of every query see the edit."""
        profiles = _fresh_row_community()
        index = ProfileNeighborIndex(profiles=profiles.values())
        alice, bob = profiles["alice"], profiles["bob"]
        before = {name: index.find_similar(profiles[name]) for name in profiles}

        alice.category("books").terms.set("laptop", 3.0)
        alice.category("books").subcategory("fiction").terms.set("saga", 0.0)
        alice.category("books").preference = 0.5
        assert index.find_similar(alice) == before["alice"]
        assert index.find_similar(bob) == before["bob"]

        index.invalidate("alice")
        for name, target in profiles.items():
            answer = index.find_similar(target)
            assert answer == find_similar_users(target, profiles.values(), index.config)
            assert answer == index.find_similar(copy.deepcopy(target))
        assert index.find_similar(alice) != before["alice"]
        assert index.find_similar(bob) != before["bob"]


class TestFreshIndex:
    def test_fresh_index_matches_brute_force(self):
        profiles = community()
        config = SimilarityConfig()
        target = profiles["alice"]
        index = ProfileNeighborIndex(profiles=profiles.values(), config=config)
        assert index.find_similar(target) == find_similar_users(
            target, profiles.values(), config
        )

    def test_each_query_counts_once(self):
        profiles = community()
        index = ProfileNeighborIndex(profiles=profiles.values())
        queries_before = index.queries
        index.find_similar(profiles["alice"])
        assert index.queries == queries_before + 1


#: One fixed register / rate / query sequence; prints what must not depend
#: on how a set of user ids happens to iterate.
HASH_SEED_SCRIPT = """
import json

from repro.core.items import Item
from repro.core.neighbors import ProfileNeighborIndex
from repro.core.profile import Profile
from repro.core.profile_learning import FeedbackEvent, ProfileLearner
from repro.core.ratings import InteractionKind

CATEGORIES = ["books", "electronics", "fashion", "toys"]
TERMS = ["alpha", "beta", "gamma", "delta", "epsilon"]


def register(index, number):
    profile = Profile(f"consumer-{number:02d}")
    for offset in range(1 + number % 3):
        entry = profile.category(CATEGORIES[(number + offset) % 4])
        entry.preference = 1.0 + (number * 7 + offset) % 9
        entry.terms.set(TERMS[(number + 2 * offset) % 5], 0.5 + number % 4)
    # Registration reaches the index the way a rating does: through the hook.
    index.on_profile_update(profile)
    return profile


index = ProfileNeighborIndex()
learner = ProfileLearner()
index.attach_to(learner)
profiles = {p.user_id: p for p in (register(index, number) for number in range(12))}
rankings = [index.find_similar(profiles["consumer-00"])]
for step in range(10):
    user_id = f"consumer-{(step * 5) % 12:02d}"
    item = Item.build(
        item_id=f"item-{step}", name="generated", category=CATEGORIES[step % 4],
        subcategory="", terms={TERMS[step % 5]: 0.7}, price=10.0,
    )
    learner.apply(
        profiles[user_id],
        FeedbackEvent(user_id=user_id, item=item, kind=InteractionKind.RATE,
                      timestamp=float(step), rating=4.0),
    )
for user_id in ("consumer-03", "consumer-08", "consumer-10"):
    index.remove(user_id)
    del profiles[user_id]
# Newcomers take the three free rows, then a new one, in the order the
# rebuild visits them.
for number in (12, 13, 14, 15):
    profile = register(index, number)
    profiles[profile.user_id] = profile
for category in (None, "books", "toys"):
    for profile in profiles.values():
        rankings.append(index.find_similar(profile, category=category))
print(json.dumps({
    "members": list(index._kernel._partition_of),
    "rows": {
        user_id: [list(partition.signature), partition.row_of[user_id]]
        for user_id, partition in index._kernel._partition_of.items()
    },
    "rankings": rankings,
}))
"""


class TestHashSeedIndependence:
    def test_rows_entry_order_and_rankings_ignore_the_hash_seed(self):
        """The dirty set is rebuilt in sorted order, so kernel row numbers,
        the kernel's membership order and every ranking are the same under
        any ``PYTHONHASHSEED``."""
        source = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        outputs = []
        for hash_seed in ("1", "2"):
            completed = subprocess.run(
                [sys.executable, "-c", HASH_SEED_SCRIPT],
                env={**os.environ, "PYTHONHASHSEED": hash_seed,
                     "PYTHONPATH": os.path.abspath(source)},
                capture_output=True, text=True, check=True,
            )
            outputs.append(json.loads(completed.stdout))
        first, second = outputs
        assert len(first["members"]) == 13 and len(first["rankings"]) == 40
        assert first["members"] == sorted(first["members"])
        assert first == second
