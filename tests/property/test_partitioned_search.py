"""Property tests: a partitioned community searches exactly like one index.

The buyer server fleet is the only partitioning of the consumer community:
each server holds one :class:`~repro.core.neighbors.ProfileNeighborIndex`
over the consumers the stable hash
(:meth:`ShardMap.base_shard <repro.core.shard_map.ShardMap.base_shard>`)
places on it, and a fan-out folds the per-server answers with
:func:`~repro.core.shard_map.merge_topk`.  These tests rebuild that search
without the simulated network — partition counts 1-8 over random profile
populations — and require *exactly* the ranked list brute-force
:func:`~repro.core.similarity.find_similar_users` and a single index over
everyone return: same user ids, same scores, same tie-break order, also
after learner updates and registrations / removals behind a provider.
"""

from hypothesis import given, settings, strategies as st

from repro.core.neighbors import ProfileNeighborIndex
from repro.core.profile import Profile
from repro.core.profile_learning import ProfileLearner
from repro.core.shard_map import ShardMap, merge_topk
from repro.core.similarity import find_similar_users

from tests.property.test_neighbor_index import (
    CATEGORIES,
    categories_or_none,
    feedback_events,
    populations,
    preferences,
    similarity_configs,
)


partition_counts = st.integers(min_value=1, max_value=8)


def placement(num_partitions):
    """A founding shard map: partition ``n`` is owned by ``server-n``."""
    return ShardMap([f"server-{number}" for number in range(num_partitions)])


def members_of(shard_map, profiles):
    """``profiles`` split by their stable-hash partition."""
    members = [[] for _ in range(shard_map.num_shards)]
    for profile in profiles:
        members[shard_map.base_shard(profile.user_id)].append(profile)
    return members


def fanout(partitions, target, config, category=None):
    """What a fleet query computes: every partition's top-k, merged."""
    return merge_topk(
        [partition.find_similar(target, category=category) for partition in partitions],
        config.top_k,
    )


@settings(max_examples=40, deadline=None)
@given(
    population=populations(),
    config=similarity_configs(),
    category=categories_or_none,
    num_partitions=partition_counts,
)
def test_partitioned_search_equals_brute_force_and_single_index(
    population, config, category, num_partitions
):
    single = ProfileNeighborIndex(profiles=population.values(), config=config)
    partitions = [
        ProfileNeighborIndex(profiles=members, config=config)
        for members in members_of(placement(num_partitions), population.values())
    ]
    for target in population.values():
        brute = find_similar_users(target, population.values(), config, category=category)
        assert single.find_similar(target, category=category) == brute
        assert fanout(partitions, target, config, category) == brute, (
            f"partitions={num_partitions}, category={category!r}"
        )


@settings(max_examples=20, deadline=None)
@given(population=populations(min_size=3), num_partitions=partition_counts)
def test_every_consumer_lives_in_exactly_one_partition(population, num_partitions):
    """The disjoint-membership invariant behind the exact merge."""
    shard_map = placement(num_partitions)
    partitions = [
        ProfileNeighborIndex(profiles=members)
        for members in members_of(shard_map, population.values())
    ]
    assert sum(len(partition.indexed_profiles()) for partition in partitions) == len(
        population
    )
    for user_id in population:
        owner = shard_map.base_shard(user_id)
        assert 0 <= owner < num_partitions
        for number, partition in enumerate(partitions):
            assert (user_id in partition) == (number == owner)


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    population=populations(),
    config=similarity_configs(),
    category=categories_or_none,
    num_partitions=partition_counts,
)
def test_partitions_track_learner_updates(
    data, population, config, category, num_partitions
):
    """Each partition hears only its own consumers' learner (as each server
    does); after a burst of updates the merged answer is still exact."""
    shard_map = placement(num_partitions)
    partitions, learners = [], []
    for members in members_of(shard_map, population.values()):
        partition = ProfileNeighborIndex(profiles=members, config=config)
        learner = ProfileLearner()
        partition.attach_to(learner)
        partitions.append(partition)
        learners.append(learner)
    user_ids = sorted(population)
    # Warm every partition first so updates hit populated caches.
    fanout(partitions, population[user_ids[0]], config, category)

    events = data.draw(st.lists(feedback_events(user_ids), min_size=1, max_size=6))
    for event in events:
        owner = shard_map.base_shard(event.user_id)
        learners[owner].apply(population[event.user_id], event)

    for number, partition in enumerate(partitions):
        assert all(
            shard_map.base_shard(user_id) == number for user_id in partition.dirty_users()
        )
    for target_id in user_ids[:3]:
        target = population[target_id]
        brute = find_similar_users(target, population.values(), config, category=category)
        assert fanout(partitions, target, config, category) == brute


@settings(max_examples=20, deadline=None)
@given(
    data=st.data(),
    population=populations(min_size=3),
    config=similarity_configs(),
    num_partitions=partition_counts,
)
def test_provider_partitions_track_registration_and_removal(
    data, population, config, num_partitions
):
    """Provider-backed partitions reconcile membership on the next query, the
    way each server's index follows its own UserDB."""
    shard_map = placement(num_partitions)
    live = dict(population)

    def provider_of(number):
        return lambda: [
            profile
            for user_id, profile in live.items()
            if shard_map.base_shard(user_id) == number
        ]

    partitions = [
        ProfileNeighborIndex(provider=provider_of(number), config=config)
        for number in range(num_partitions)
    ]
    target = next(iter(live.values()))
    assert fanout(partitions, target, config) == find_similar_users(
        target, live.values(), config
    )

    # A newcomer registers...
    newcomer = Profile("newcomer")
    newcomer.category(data.draw(st.sampled_from(CATEGORIES))).preference = data.draw(
        preferences
    )
    live[newcomer.user_id] = newcomer
    # ...and an existing consumer leaves.
    departed = sorted(live)[1]
    if departed != target.user_id:
        del live[departed]

    assert fanout(partitions, target, config) == find_similar_users(
        target, live.values(), config
    )
    assert sum(len(partition.indexed_profiles()) for partition in partitions) == len(live)


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    population=populations(min_size=3),
    config=similarity_configs(),
    num_partitions=st.integers(min_value=2, max_value=8),
)
def test_merge_ignores_the_order_partitions_answer_in(
    data, population, config, num_partitions
):
    """Fan-out responses arrive in any order; the merged ranking is the same."""
    partitions = [
        ProfileNeighborIndex(profiles=members, config=config)
        for members in members_of(placement(num_partitions), population.values())
    ]
    target = next(iter(population.values()))
    answers = [partition.find_similar(target) for partition in partitions]
    arrival = data.draw(st.permutations(answers))
    assert merge_topk(arrival, config.top_k) == merge_topk(answers, config.top_k)
    assert merge_topk(arrival, config.top_k) == find_similar_users(
        target, population.values(), config
    )
