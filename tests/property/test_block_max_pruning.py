"""The dict kernel's pruned selection is the full block's selection.

``DictKernel.top_pairs`` skips every category-signature partition whose
block-max bound is under the floor and stops inside a partition at the first
row whose bound from its walk-order term cosine is.  These tests hold it
``==`` to the unpruned selection (a full sort of ``score_block``'s
``{user_id: score}`` map) and to the brute-force ``find_similar_users``
over clustered populations where pruning does happen, pin every bound over
every row, count the rows a query scores, and cover the shapes a bound
could get wrong: ties across partitions, discard rules, ``min_similarity``
at both ends, norms outside the bounded range.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.neighbors import ProfileNeighborIndex
from repro.core.profile import Profile
from repro.core.scoring import DictKernel, TargetState
from repro.core.similarity import (
    SimilarityConfig,
    cosine_similarity_cached,
    find_similar_users,
    vector_norm,
)

from tests.conftest import score_block

#: Each category has its own terms and shares two with the next one, as the
#: synthetic catalogue's categories do.
POOLS = {
    "books": ["novel", "poetry", "atlas", "shared-ab"],
    "music": ["jazz", "vinyl", "opera", "shared-ab", "shared-bc"],
    "games": ["puzzle", "arcade", "shared-bc", "shared-cd"],
    "garden": ["seeds", "hose", "shared-cd"],
}
CATEGORIES = list(POOLS)


def clustered_population(rng, size):
    """Consumers of one to three categories with category-drawn terms."""
    population = {}
    for index in range(size):
        profile = Profile(f"user-{index:03d}")
        for category in rng.sample(CATEGORIES, rng.choice([1, 1, 2, 2, 2, 3])):
            entry = profile.category(category)
            entry.preference = round(rng.uniform(0.1, 1.0), rng.choice([1, 3]))
            for term in rng.sample(POOLS[category], rng.randint(0, 3)):
                entry.terms.set(term, round(rng.uniform(0.05, 1.0), rng.choice([1, 3])))
        population[profile.user_id] = profile
    return population


def full_sort(scores, minimum, exclude_user, top_k, discard=None):
    """``sorted(valid, key=(-score, user_id))[:top_k]`` over a score map."""
    valid = [
        (user_id, score)
        for user_id, score in scores.items()
        if user_id != exclude_user
        and score >= minimum
        and not (discard is not None and discard(user_id))
    ]
    return sorted(valid, key=lambda pair: (-pair[1], pair[0]))[:top_k]


def unpruned(index, target, category, config):
    """The index's answer through the full block: every row scored."""
    prefs = target.preference_vector()
    terms = target.flattened_terms().as_dict()
    tq = TargetState(prefs, vector_norm(prefs), terms, vector_norm(terms))
    total = config.preference_weight + config.term_weight
    scores = score_block(index._kernel, tq, config.preference_weight, config.term_weight, total)
    discard = None
    if category is not None:
        target_value = prefs.get(category, 0.0)
        values = {
            profile.user_id: profile.preference_vector().get(category, 0.0)
            for profile in index.indexed_profiles()
        }

        def discard(user_id):
            return not abs(target_value - values[user_id]) <= config.discard_tolerance

    return full_sort(scores, config.min_similarity, target.user_id, config.top_k, discard)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    size=st.integers(2, 40),
    top_k=st.integers(1, 8),
    minimum=st.sampled_from([0.0, 0.05, 0.3, 0.9, 1.0]),
    weights=st.sampled_from(
        [(0.6, 0.4), (1.0, 0.0), (0.0, 1.0), (0.3, 0.9), (5e-324, 5e-324), (0.0, 1e-320)]
    ),
    category=st.one_of(st.none(), st.sampled_from(CATEGORIES)),
    tolerance=st.sampled_from([0.05, 0.3, 3.0]),
)
def test_pruned_answer_is_the_full_blocks_and_brute_forces(
    seed, size, top_k, minimum, weights, category, tolerance
):
    population = clustered_population(random.Random(seed), size)
    config = SimilarityConfig(
        preference_weight=weights[0],
        term_weight=weights[1],
        min_similarity=minimum,
        top_k=top_k,
        discard_tolerance=tolerance,
    )
    index = ProfileNeighborIndex(profiles=population.values(), config=config)
    for target in population.values():
        answer = index.find_similar(target, category=category)
        assert answer == unpruned(index, target, category, config)
        assert answer == find_similar_users(
            target, population.values(), config, category=category
        )


@pytest.mark.parametrize("category", [None, "music"])
def test_clustered_queries_skip_partitions_and_count_them(category):
    population = clustered_population(random.Random(11), 300)
    config = SimilarityConfig(top_k=5)
    index = ProfileNeighborIndex(profiles=population.values(), config=config)
    assert len(index._kernel._partitions) > 10
    for target in list(population.values())[:40]:
        skipped = index.bound_skips
        answer = index.find_similar(target, category=category)
        assert answer == find_similar_users(
            target, population.values(), config, category=category
        )
        assert skipped <= index.bound_skips < skipped + len(population)
    # Most of the community is never scored.
    assert index.bound_skips > 40 * len(population) // 2


def test_the_walk_screen_leaves_most_of_a_visited_partition_unscored():
    """``bound_skips`` counts every row never scored: the rows of skipped
    partitions and the rows a visited partition's walk screen leaves.  On
    the clustered community a top-5 query scores about 18 of its 300 rows;
    scoring every row of each visited partition would be about 70."""
    population = clustered_population(random.Random(11), 300)
    index = ProfileNeighborIndex(
        profiles=population.values(), config=SimilarityConfig(top_k=5)
    )
    queries = list(population.values())[:40]
    for target in queries:
        index.find_similar(target)
    scored = len(population) * len(queries) - index.bound_skips
    assert scored <= 35 * len(queries)


def test_the_screen_visits_best_walk_first_and_stops_under_the_floor():
    """One partition, one row whose terms match the target and nine that
    barely do: the best walk is visited first, its score becomes the floor
    and the screen stops at the next row without scoring it."""
    kernel = DictKernel()
    kernel.put("user-9", {"books": 1.0}, {"novel": 1.0})
    for number in range(9):
        kernel.put(f"user-{number}", {"books": 1.0}, {"novel": 0.1, "atlas": 1.0})
    tq = TargetState({"books": 1.0}, 1.0, {"novel": 1.0}, 1.0)
    assert kernel.top_pairs(tq, 0.0, 1.0, 1.0, 0.05, "", 1) == [("user-9", 1.0)]
    assert kernel.bound_skips == 9


def test_bound_skips_keep_counting_across_a_rebuild():
    """Queries skip rows, and a ``build`` (which resets the kernel) does not
    take the count back: the ledger reads its deltas."""
    population = clustered_population(random.Random(11), 60)
    index = ProfileNeighborIndex(profiles=population.values())
    for target in population.values():
        index.find_similar(target)
    skipped = index.bound_skips
    assert skipped > 0
    index.build(population.values())
    assert index.bound_skips == skipped


def entry(user_id, prefs, terms):
    return SimpleNamespace(
        user_id=user_id,
        prefs=prefs,
        pref_norm=vector_norm(prefs),
        terms=terms,
        term_norm=vector_norm(terms),
    )


def reference_score(target, row, preference_weight, term_weight):
    pref = cosine_similarity_cached(target.prefs, target.pref_norm, row.prefs, row.pref_norm)
    term = cosine_similarity_cached(target.terms, target.term_norm, row.terms, row.term_norm)
    score = (preference_weight * pref + term_weight * term) / (preference_weight + term_weight)
    return max(0.0, min(1.0, score))


#: Magnitudes from 1e-5 to 1e5 of either sign: the bounds take |weight|.
weights = st.builds(
    lambda mantissa, exponent, negative: (-1 if negative else 1) * mantissa * 10.0 ** exponent,
    st.floats(min_value=1.0, max_value=9.999),
    st.integers(min_value=-5, max_value=5),
    st.booleans(),
)
prefs = st.dictionaries(st.sampled_from(["a", "b", "c"]), weights, max_size=3)
terms = st.dictionaries(st.sampled_from(["t0", "t1", "t2", "t3", "t4", "t5"]), weights, max_size=6)


@settings(max_examples=150, deadline=None)
@given(
    target=st.tuples(prefs, terms),
    rows=st.lists(st.tuples(prefs, terms), min_size=1, max_size=12),
    removed=st.lists(st.integers(0, 11), max_size=4),
    weights=st.sampled_from([(0.6, 0.4), (1.0, 0.0), (0.0, 1.0), (0.3, 0.9)]),
)
def test_every_row_scores_under_its_partitions_bounds(target, rows, removed, weights):
    """Both bounds of a partition — the full one and the cheap one that
    takes the term cosine as 1 — are at least every row's reference score,
    also after rows that held a block maximum left; a walk-order term
    cosine is within the slack of the reference's, so the row bound the
    walk screens on is at least the row's score too."""
    kernel = DictKernel()
    entries = {}
    for number, (row_prefs, row_terms) in enumerate(rows):
        entries[f"user-{number}"] = entry(f"user-{number}", row_prefs, row_terms)
        kernel.put(f"user-{number}", row_prefs, row_terms)
    for number in removed:
        if entries.pop(f"user-{number}", None) is not None:
            kernel.drop(f"user-{number}")
    target = entry("target", *target)
    tq = TargetState(target.prefs, target.pref_norm, target.terms, target.term_norm)
    preference_weight, term_weight = weights
    total = preference_weight + term_weight
    for partition in kernel._partitions.values():
        pref_bound = partition.pref_bound(tq)
        full = partition.bound(tq, preference_weight, term_weight, total, pref_bound)
        cheap = partition.bound(tq, preference_weight, term_weight, total, pref_bound, True)
        assert full <= cheap <= 1.0
        walks = partition.walk(tq)
        for user_id, row in partition.row_of.items():
            candidate = entries[user_id]
            score = reference_score(target, candidate, preference_weight, term_weight)
            assert score <= full
            term = cosine_similarity_cached(
                target.terms, target.term_norm, candidate.terms, candidate.term_norm
            )
            assert abs(walks[row] - term) <= 1e-9
            screen = preference_weight * pref_bound + term_weight * (walks[row] + 1e-9)
            assert score <= max(0.0, screen / total)


def test_a_tie_across_partitions_keeps_the_smaller_user_id():
    """Two consumers in different partitions score exactly alike; whichever
    partition is visited first, the floor admits the other's tie."""
    kernel = DictKernel()
    kernel.put("user-b", {"books": 3.0}, {})
    kernel.put("user-a", {"books": 3.0, "music": 0.0}, {})
    kernel.put("user-c", {"music": 1.0}, {"jazz": 1.0})
    tq = TargetState({"books": 5.0}, 5.0, {}, 0.0)
    scores = score_block(kernel, tq, 0.6, 0.4, 1.0)
    assert scores["user-a"] == scores["user-b"] > 0.0
    for top_k in (1, 2, 3):
        assert kernel.top_pairs(tq, 0.6, 0.4, 1.0, 0.0, "", top_k) == full_sort(
            scores, 0.0, "", top_k
        )
    assert kernel.top_pairs(tq, 0.6, 0.4, 1.0, 0.0, "", 1) == [("user-a", scores["user-a"])]


@pytest.mark.parametrize("magnitude", [1e200, 1e-160, 1e-170])
def test_rows_outside_the_bounded_range_are_scored_exactly(magnitude):
    """Norms that overflow, go subnormal or underflow to zero make a float
    cosine stray from any bound; such a row's partition is never pruned and
    the answer is still the brute force's."""
    population = clustered_population(random.Random(5), 40)
    odd = Profile("user-odd")
    odd.category("books").preference = magnitude
    odd.category("books").terms.set("novel", magnitude)
    population[odd.user_id] = odd
    config = SimilarityConfig(top_k=3, min_similarity=0.0)
    index = ProfileNeighborIndex(profiles=population.values(), config=config)
    for target in population.values():
        assert index.find_similar(target) == find_similar_users(
            target, population.values(), config
        )


def test_a_partition_holding_an_unbounded_row_is_never_skipped():
    """A subnormal norm makes a float cosine overshoot 1.  The block maxima
    leave such a row out, so its partition's bound would be about 0 while
    the row ties the best score — and wins the tie on its user id."""
    best = Profile("user-hi")
    best.category("books").preference = 1.0
    best.category("books").terms.set("novel", 1.0)
    best.category("music").preference = 0.0
    odd = Profile("user-aodd")
    odd.category("books").preference = 1e-160
    odd.category("books").terms.set("novel", 1e-160)
    target = Profile("user-target")
    target.category("books").preference = 1.0
    target.category("books").terms.set("novel", 1.0)
    # The target is not indexed: the odd row is alone in its partition.
    population = {p.user_id: p for p in (best, odd)}
    config = SimilarityConfig(top_k=1)
    index = ProfileNeighborIndex(profiles=population.values(), config=config)
    assert index._kernel._partitions[("books",)].unbounded == 2
    expected = find_similar_users(target, population.values(), config)
    assert expected == [("user-aodd", 1.0)]
    assert index.find_similar(target) == expected


def test_subnormal_weights_turn_the_pruning_off():
    """With weights of a few subnormal steps a score rounds to thirds, so
    the walk-order score of a row the reference sums in its own order
    (``1e16 + 1 + 1`` against ``1 + 1 + 1e16``) can sit a third under its
    real score: no row may be cut on it."""
    kernel = DictKernel()
    target_terms = {"k0": 1e8, "k1": 1.0, "k2": 1.0, "k3": 173205080.75688773}
    rows = {
        "user-a": {"k1": 1.0, "k2": 1.0, "k0": 1e8},
        "user-b": {"k0": 1.0},
    }
    for user_id, row_terms in rows.items():
        kernel.put(user_id, {"books": 1.0}, row_terms)
    target = entry("target", {"books": 1.0}, target_terms)
    tq = TargetState(target.prefs, target.pref_norm, target.terms, target.term_norm)
    weight = 3 * 5e-324
    (partition,) = kernel._partitions.values()
    walks = partition.walk(tq)
    scores = {
        user_id: reference_score(target, entry(user_id, {"books": 1.0}, row_terms), 0.0, weight)
        for user_id, row_terms in rows.items()
    }
    assert scores == {"user-a": 2 / 3, "user-b": 2 / 3}
    assert weight * walks[partition.row_of["user-a"]] / weight == 1 / 3
    assert kernel.top_pairs(tq, 0.0, weight, weight, 0.0, "", 1) == [("user-a", 2 / 3)]


def test_a_departing_row_takes_its_block_maximum_with_it():
    """Removing or re-weighting the row that holds a key's largest
    ``|weight| / norm`` takes that peak again over the rows left; the last
    row of a key takes the key's peak with it."""
    rows = {
        "user-a": ({"books": 9.0, "music": 1.0}, {"novel": 5.0, "jazz": 1.0}),
        "user-b": ({"books": 1.0, "music": 1.0}, {"novel": 1.0, "opera": 1.0}),
        "user-c": ({"books": 1.0, "music": 3.0}, {"jazz": 3.0, "opera": 4.0}),
    }

    def peaks(held):
        pref_peaks = [
            max(abs(p[key]) / vector_norm(p) for p, _ in held.values())
            for key in ("books", "music")
        ]
        term_peaks = {}
        for _, terms in held.values():
            for key, weight in terms.items():
                term_peaks[key] = max(term_peaks.get(key, 0.0), abs(weight) / vector_norm(terms))
        return pref_peaks, term_peaks

    kernel = DictKernel()
    for user_id, (row_prefs, row_terms) in rows.items():
        kernel.put(user_id, row_prefs, row_terms)
    (partition,) = kernel._partitions.values()
    before = peaks(rows)
    assert (partition.pref_peaks, partition.term_peaks) == before
    # user-a holds the books and novel peaks; user-c the music, jazz and
    # opera ones.
    del rows["user-a"]
    kernel.drop("user-a")
    assert (partition.pref_peaks, partition.term_peaks) == peaks(rows)
    assert partition.pref_peaks[0] < before[0][0]
    assert partition.term_peaks["novel"] < before[1]["novel"]
    rows["user-c"] = ({"books": 1.0, "music": 1.0}, {"opera": 1.0})
    kernel.put("user-c", *rows["user-c"])
    assert (partition.pref_peaks, partition.term_peaks) == peaks(rows)
    assert "jazz" not in partition.term_peaks
    assert partition.pref_peaks[1] < before[0][1]
