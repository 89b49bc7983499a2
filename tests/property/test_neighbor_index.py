"""Property tests: the neighbor index is equivalent to brute-force search.

The :class:`~repro.core.neighbors.ProfileNeighborIndex` is only allowed to be
*faster* than :func:`~repro.core.similarity.find_similar_users` — never
different.  These tests drive both implementations over random populations,
random similarity configurations and random discard-rule categories, and
require the same ranked neighbor set with the same scores (within 1e-9; in
practice they are bit-identical), including after incremental profile updates
flow through :class:`~repro.core.profile_learning.ProfileLearner` hooks.
"""

from hypothesis import given, settings, strategies as st

from repro.core.items import Item
from repro.core.neighbors import ProfileNeighborIndex
from repro.core.profile import Profile
from repro.core.profile_learning import FeedbackEvent, ProfileLearner
from repro.core.ratings import InteractionKind
from repro.core.similarity import SimilarityConfig, find_similar_users


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

CATEGORIES = ["books", "electronics", "fashion", "groceries", "toys"]

term_names = st.text(alphabet="abcdefgh", min_size=1, max_size=5)
weights = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)
preferences = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def populations(draw, min_size=2, max_size=12):
    """A dict user_id → Profile with random hierarchical content."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    population = {}
    for index in range(size):
        profile = Profile(f"user-{index}")
        for category in draw(
            st.lists(st.sampled_from(CATEGORIES), max_size=4, unique=True)
        ):
            entry = profile.category(category)
            entry.preference = draw(preferences)
            for term, weight in draw(
                st.dictionaries(term_names, weights, max_size=5)
            ).items():
                if weight > 0:
                    entry.terms.set(term, weight)
            if draw(st.booleans()):
                sub = entry.subcategory(draw(st.sampled_from(["sub-a", "sub-b"])))
                for term, weight in draw(
                    st.dictionaries(term_names, weights, max_size=3)
                ).items():
                    if weight > 0:
                        sub.terms.set(term, weight)
        population[profile.user_id] = profile
    return population


@st.composite
def similarity_configs(draw):
    return SimilarityConfig(
        preference_weight=draw(st.floats(min_value=0.1, max_value=1.0)),
        term_weight=draw(st.floats(min_value=0.0, max_value=1.0)),
        discard_tolerance=draw(st.floats(min_value=0.0, max_value=6.0)),
        min_similarity=draw(st.floats(min_value=0.0, max_value=0.4)),
        top_k=draw(st.integers(min_value=1, max_value=8)),
    )


categories_or_none = st.one_of(st.none(), st.sampled_from(CATEGORIES))


@st.composite
def feedback_events(draw, user_ids):
    terms = draw(
        st.dictionaries(
            term_names,
            st.floats(min_value=0.05, max_value=1.0),
            min_size=1,
            max_size=4,
        )
    )
    item = Item.build(
        item_id=draw(st.text(alphabet="xyz0123456789", min_size=1, max_size=8)),
        name="generated",
        category=draw(st.sampled_from(CATEGORIES)),
        subcategory=draw(st.sampled_from(["", "sub-a"])),
        terms=terms,
        price=draw(st.floats(min_value=0.0, max_value=500.0)),
    )
    return FeedbackEvent(
        user_id=draw(st.sampled_from(user_ids)),
        item=item,
        kind=draw(st.sampled_from(list(InteractionKind))),
        timestamp=draw(st.floats(min_value=0.0, max_value=1e6)),
        rating=draw(st.one_of(st.none(), st.floats(min_value=0.0, max_value=5.0))),
    )


def assert_same_neighbors(brute, indexed):
    """Same ranked user ids and scores equal within 1e-9 (exact in practice)."""
    assert [user_id for user_id, _ in brute] == [user_id for user_id, _ in indexed]
    for (_, brute_score), (_, indexed_score) in zip(brute, indexed):
        assert abs(brute_score - indexed_score) <= 1e-9


# ---------------------------------------------------------------------------
# Equivalence on static populations
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(population=populations(), config=similarity_configs(), category=categories_or_none)
def test_indexed_equals_brute_force(population, config, category):
    index = ProfileNeighborIndex(profiles=population.values(), config=config)
    for target in population.values():
        brute = find_similar_users(target, population.values(), config, category=category)
        indexed = index.find_similar(target, category=category)
        assert_same_neighbors(brute, indexed)


@settings(max_examples=25, deadline=None)
@given(population=populations(), config=similarity_configs(), category=categories_or_none)
def test_fresh_index_first_query_equals_brute_force(population, config, category):
    target = next(iter(population.values()))
    brute = find_similar_users(target, population.values(), config, category=category)
    index = ProfileNeighborIndex(profiles=population.values(), config=config)
    indexed = index.find_similar(target, category=category)
    assert_same_neighbors(brute, indexed)


@settings(max_examples=25, deadline=None)
@given(population=populations(), config=similarity_configs())
def test_target_outside_population_equals_brute_force(population, config):
    """A detached target profile (not indexed) still gets identical results."""
    index = ProfileNeighborIndex(profiles=population.values(), config=config)
    outsider = Profile("outsider")
    outsider.category("books").preference = 5.0
    outsider.category("books").terms.set("abc", 1.0)
    for category in (None, "books"):
        brute = find_similar_users(
            outsider, population.values(), config, category=category
        )
        indexed = index.find_similar(outsider, category=category)
        assert_same_neighbors(brute, indexed)


# ---------------------------------------------------------------------------
# Equivalence across incremental updates
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(data=st.data(), population=populations(), config=similarity_configs(),
       category=categories_or_none)
def test_indexed_equals_brute_force_after_incremental_updates(
    data, population, config, category
):
    """Learner updates invalidate the index incrementally, never stale it."""
    user_ids = sorted(population)
    index = ProfileNeighborIndex(profiles=population.values(), config=config)
    learner = ProfileLearner()
    index.attach_to(learner)

    # Warm every cache first so updates hit populated entries.
    warm_target = population[user_ids[0]]
    index.find_similar(warm_target, category=category)

    events = data.draw(
        st.lists(feedback_events(user_ids), min_size=1, max_size=6)
    )
    for event in events:
        learner.apply(population[event.user_id], event)

    for target_id in user_ids[:3]:
        target = population[target_id]
        brute = find_similar_users(target, population.values(), config, category=category)
        indexed = index.find_similar(target, category=category)
        assert_same_neighbors(brute, indexed)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), population=populations(min_size=3), config=similarity_configs())
def test_registration_and_removal_track_provider(data, population, config):
    """Provider-backed indexes pick up new and departed consumers on sync."""
    live = dict(population)
    index = ProfileNeighborIndex(provider=lambda: live.values(), config=config)
    target = next(iter(live.values()))
    assert_same_neighbors(
        find_similar_users(target, live.values(), config),
        index.find_similar(target),
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

    assert_same_neighbors(
        find_similar_users(target, live.values(), config),
        index.find_similar(target),
    )


# ---------------------------------------------------------------------------
# Selection before materialisation: ties, free rows, a discard rule that bites
# ---------------------------------------------------------------------------


@st.composite
def cloned_populations(draw):
    """A few profile shapes cloned over many consumers: scores tie in bulk,
    and the cloned category value varies per consumer so the discard rule
    rejects some members of every tie."""
    shapes = draw(
        st.lists(
            st.dictionaries(
                st.sampled_from(CATEGORIES),
                st.dictionaries(
                    st.sampled_from(["a", "b", "c"]),
                    st.sampled_from([0.5, 1.0, 2.0]),
                    max_size=2,
                ),
                max_size=3,
            ),
            min_size=1,
            max_size=3,
        )
    )
    size = draw(st.integers(min_value=4, max_value=30))
    population = {}
    for number in range(size):
        profile = Profile(f"user-{number:02d}")
        for category, terms in shapes[number % len(shapes)].items():
            entry = profile.category(category)
            entry.preference = draw(st.sampled_from([0.0, 1.0, 5.0, 9.0]))
            for term, weight in terms.items():
                entry.terms.set(term, weight)
        population[profile.user_id] = profile
    return population


@settings(max_examples=60, deadline=None)
@given(
    population=cloned_populations(),
    category=categories_or_none,
    top_k=st.integers(min_value=1, max_value=6),
    min_similarity=st.sampled_from([0.0, 0.05, 1.0]),
    discard_tolerance=st.sampled_from([0.0, 0.5, 6.0]),
    departed=st.sets(st.integers(min_value=0, max_value=29), max_size=6),
)
def test_selection_equals_brute_force_sort(
    population, category, top_k, min_similarity, discard_tolerance, departed,
):
    """``==`` against the brute-force sort where whole groups of consumers
    tie, some rows of the kernel are free, the discard rule removes most of
    the best-scored rows (the floor must widen) and fewer than ``top_k``
    consumers may survive at all."""
    config = SimilarityConfig(
        top_k=top_k,
        min_similarity=min_similarity,
        discard_tolerance=discard_tolerance,
    )
    index = ProfileNeighborIndex(profiles=population.values(), config=config)
    live = dict(population)
    for number in departed:
        if len(live) > 2 and live.pop(f"user-{number:02d}", None) is not None:
            index.remove(f"user-{number:02d}")
    for target in population.values():
        brute = find_similar_users(target, live.values(), config, category=category)
        assert index.find_similar(target, category=category) == brute
