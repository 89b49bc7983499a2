"""Property-based tests (hypothesis) for the recommendation core."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.information_filtering import InformationFilteringRecommender
from repro.core.items import Item, ItemCatalogView
from repro.core.metrics import (
    catalog_coverage,
    f1_at_k,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
    spearman_rank_correlation,
)
from repro.core.profile import Profile, TermVector
from repro.errors import ProfileError
from repro.core.profile_learning import FeedbackEvent, LearningConfig, ProfileLearner
from repro.core.ratings import Interaction, InteractionKind, RatingsStore
from repro.core.similarity import (
    cosine_similarity,
    pearson_correlation,
    profile_similarity,
    vector_norm,
)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

term_names = st.text(alphabet="abcdefghij", min_size=1, max_size=6)
weights = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)
term_dicts = st.dictionaries(term_names, weights, max_size=8)
positive_term_dicts = st.dictionaries(
    term_names, st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=8
)

categories = st.sampled_from(["books", "electronics", "fashion", "groceries"])
item_ids = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12)


@st.composite
def items(draw):
    terms = draw(st.dictionaries(term_names, st.floats(min_value=0.05, max_value=1.0),
                                 min_size=1, max_size=5))
    return Item.build(
        item_id=draw(item_ids),
        name="generated item",
        category=draw(categories),
        subcategory=draw(st.sampled_from(["", "sub-a", "sub-b"])),
        terms=terms,
        price=draw(st.floats(min_value=0.0, max_value=1000.0)),
    )


@st.composite
def profiles(draw):
    profile = Profile(draw(st.text(alphabet="abcxyz", min_size=1, max_size=8)))
    for category in draw(st.lists(categories, max_size=4, unique=True)):
        entry = profile.category(category)
        entry.preference = draw(st.floats(min_value=0.0, max_value=10.0))
        for term, weight in draw(term_dicts).items():
            if weight > 0:
                entry.terms.set(term, weight)
    return profile


# ---------------------------------------------------------------------------
# TermVector properties
# ---------------------------------------------------------------------------


def _loop_built(weights):
    """What ``TermVector(weights)`` is defined as: one ``set`` per pair."""
    vector = TermVector()
    for term, weight in weights.items():
        vector.set(term, weight)
    return vector._weights


def _merged(left, right):
    """``left + right`` as a new dict: ``left``'s terms in their order, then
    ``right``'s added in sorted term order, zero weights dropped."""
    merged = dict(left)
    for term, value in sorted(right.items()):
        updated = max(0.0, merged.get(term, 0.0) + value)
        if updated == 0:
            merged.pop(term, None)
        else:
            merged[term] = updated
    return merged


class TestTermVectorProperties:
    @given(
        st.dictionaries(
            st.text(max_size=3),
            st.integers(-1, 3) | st.floats(min_value=-0.5, max_value=2.0) | st.booleans(),
            max_size=6,
        )
    )
    def test_constructor_builds_what_the_set_loop_builds(self, weights):
        try:
            expected = _loop_built(weights)
        except ProfileError as error:
            with pytest.raises(ProfileError) as raised:
                TermVector(weights)
            assert str(raised.value) == str(error)
            return
        built = TermVector(weights)._weights
        assert built == expected and list(built) == list(expected)
        assert all(type(weight) is float and weight > 0 for weight in built.values())

    @given(positive_term_dicts, st.floats(min_value=0.1, max_value=1.0))
    def test_decay_never_increases_weights(self, weights_dict, factor):
        vector = TermVector(weights_dict)
        before = vector.as_dict()
        vector.decay(factor)
        for term, weight in vector.as_dict().items():
            assert weight <= before[term] + 1e-12

    @given(positive_term_dicts, positive_term_dicts)
    def test_merge_total_is_sum_of_totals(self, left_weights, right_weights):
        left = TermVector(left_weights)
        right = TermVector(right_weights)
        merged = left.copy()
        merged._accumulate(right)
        assert math.isclose(merged.total(), left.total() + right.total(), rel_tol=1e-9)


# ---------------------------------------------------------------------------
# Vector similarity properties
# ---------------------------------------------------------------------------


class TestSimilarityProperties:
    @given(term_dicts, term_dicts)
    def test_cosine_bounded(self, left, right):
        value = cosine_similarity(left, right)
        assert 0.0 <= value <= 1.0 + 1e-9

    @given(term_dicts, term_dicts)
    def test_pearson_bounded(self, left, right):
        value = pearson_correlation(left, right)
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9

    @given(profiles(), profiles())
    @settings(max_examples=50)
    def test_profile_similarity_bounded_and_symmetric(self, left, right):
        forward = profile_similarity(left, right)
        backward = profile_similarity(right, left)
        assert 0.0 <= forward <= 1.0
        assert math.isclose(forward, backward, abs_tol=1e-9)

    @given(profiles())
    @settings(max_examples=50)
    def test_profile_similarity_with_itself_is_maximal(self, profile):
        if profile.is_empty():
            assert profile_similarity(profile, profile.copy()) == 0.0
        else:
            other = profile.copy()
            other.user_id = profile.user_id + "-twin"
            assert profile_similarity(profile, other) >= profile_similarity(profile, Profile("empty"))


# ---------------------------------------------------------------------------
# Content scoring: the per-call scorer against the per-item reference
# ---------------------------------------------------------------------------

preferences = st.sampled_from([0.0, 0.0, 0.5, 3.0, 10.0])


@st.composite
def content_profiles(draw):
    """Profiles with sub-categories, zero preferences and empty term vectors."""
    profile = Profile("consumer")
    for category in draw(st.lists(categories, max_size=4, unique=True)):
        entry = profile.category(category)
        entry.preference = draw(preferences)
        for term, weight in draw(term_dicts).items():
            entry.terms.set(term, weight)
        for name in draw(st.lists(st.sampled_from(["sub-a", "sub-b"]), unique=True)):
            sub = entry.subcategory(name)
            for term, weight in draw(term_dicts).items():
                sub.terms.set(term, weight)
    return profile


@st.composite
def scored_items(draw):
    return Item.build(
        item_id=draw(item_ids),
        name="generated item",
        category=draw(categories),
        subcategory=draw(st.sampled_from(["", "sub-a", "sub-b", "sub-c"])),
        terms=draw(st.dictionaries(term_names, st.floats(min_value=0.0, max_value=1.0),
                                   max_size=5)),
    )


class TestContentScorerProperties:
    @given(content_profiles(), st.lists(scored_items(), max_size=12))
    @settings(max_examples=200)
    def test_per_call_scorer_equals_score_item(self, profile, batch):
        recommender = InformationFilteringRecommender(ItemCatalogView([]), lambda _: profile)
        score = recommender.scorer_for(profile)
        # Items repeat categories, so later ones are scored from the hoisted side.
        for item in batch + batch:
            weights_of_item = item.term_weights
            hoisted = score(item, weights_of_item, vector_norm(weights_of_item))
            assert hoisted == recommender.score_item(profile, item)

    @given(content_profiles(), st.lists(scored_items(), max_size=12, unique_by=lambda i: i.item_id))
    def test_recommend_scores_equal_score_item(self, profile, batch):
        recommender = InformationFilteringRecommender(ItemCatalogView(batch), lambda _: profile)
        scores = {item.item_id: recommender.score_item(profile, item) for item in batch}
        expected = {item_id: score for item_id, score in scores.items() if score > 0}
        ranked = recommender.recommend("consumer", k=len(batch) + 1)
        assert {rec.item_id: rec.score for rec in ranked} == expected


# ---------------------------------------------------------------------------
# Profile learning properties
# ---------------------------------------------------------------------------


class TestProfileLearningProperties:
    @given(st.lists(items(), min_size=1, max_size=15),
           st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=50)
    def test_weights_never_negative_and_preferences_capped(self, item_list, alpha):
        learner = ProfileLearner(LearningConfig(learning_rate=alpha))
        profile = Profile("user")
        for index, item in enumerate(item_list):
            learner.apply(profile, FeedbackEvent("user", item, InteractionKind.BUY,
                                                 timestamp=float(index)))
        for category in profile.categories.values():
            assert 0.0 <= category.preference <= learner.config.max_preference
            for _, weight in category.flattened_terms().items():
                assert weight >= 0.0

    @given(st.lists(items(), min_size=1, max_size=10))
    @settings(max_examples=50)
    def test_feedback_event_count_matches_events_applied(self, item_list):
        learner = ProfileLearner()
        profile = Profile("user")
        for item in item_list:
            learner.apply(profile, FeedbackEvent("user", item, InteractionKind.QUERY))
        assert profile.feedback_events == len(item_list)

    @given(st.lists(items(), min_size=1, max_size=10))
    @settings(max_examples=50)
    def test_flattened_terms_is_the_copying_fold(self, item_list):
        # Accumulating in place must leave what a copying fold leaves: the
        # same floats in the same insertion order (positional postings key
        # on it), each category folded before it joins the profile's vector.
        learner = ProfileLearner()
        profile = Profile("user")
        for item in item_list:
            learner.apply(profile, FeedbackEvent("user", item, InteractionKind.BUY))
        before = profile.to_dict()
        whole = {}
        for category in profile.categories.values():
            folded = category.terms.as_dict()
            for sub in category.subcategories.values():
                folded = _merged(folded, sub.terms.as_dict())
            flat = category.flattened_terms()
            assert list(flat.as_dict().items()) == list(folded.items())
            whole = _merged(whole, folded)
        assert list(profile.flattened_terms().as_dict().items()) == list(whole.items())
        assert profile.to_dict() == before  # the accumulator is never a category's own vector

    @given(st.lists(items(), min_size=1, max_size=10))
    @settings(max_examples=30)
    def test_profile_roundtrips_through_dict(self, item_list):
        learner = ProfileLearner()
        profile = Profile("user")
        for item in item_list:
            learner.apply(profile, FeedbackEvent("user", item, InteractionKind.BUY))
        restored = Profile.from_dict(profile.to_dict())
        assert restored.preference_vector() == profile.preference_vector()
        assert restored.flattened_terms().as_dict() == profile.flattened_terms().as_dict()


# ---------------------------------------------------------------------------
# Ratings store properties
# ---------------------------------------------------------------------------

interaction_kinds = st.sampled_from(list(InteractionKind))
user_names = st.sampled_from(["u1", "u2", "u3", "u4"])


@st.composite
def interactions(draw):
    kind = draw(interaction_kinds)
    return Interaction(
        user_id=draw(user_names),
        item_id=draw(st.sampled_from(["a", "b", "c", "d", "e"])),
        kind=kind,
        timestamp=draw(st.floats(min_value=0.0, max_value=1e6)),
        value=draw(st.floats(min_value=0.0, max_value=5.0)) if kind is InteractionKind.RATE else 0.0,
    )


class TestRatingsStoreProperties:
    @given(st.lists(interactions(), max_size=60))
    @settings(max_examples=50)
    def test_values_bounded_and_counts_consistent(self, interaction_list):
        store = RatingsStore(max_value=10.0)
        store.add_all(interaction_list)
        assert store.interaction_count == len(interaction_list)
        for user in store.users:
            for item, value in store.user_vector(user).items():
                assert 0.0 <= value <= 10.0
        assert 0.0 <= store.density() <= 1.0
        assert math.isclose(store.density() + store.sparsity(), 1.0, abs_tol=1e-9)

    @given(st.lists(interactions(), max_size=60))
    @settings(max_examples=50)
    def test_purchase_counts_match_buy_interactions(self, interaction_list):
        store = RatingsStore()
        store.add_all(interaction_list)
        expected = sum(1 for i in interaction_list if i.kind is InteractionKind.BUY)
        assert sum(store.purchases().values()) == expected

    @given(st.lists(interactions(), max_size=60), user_names)
    @settings(max_examples=100)
    def test_remove_user_equals_never_having_seen_them(self, interaction_list, leaver):
        store = RatingsStore()
        store.add_all(interaction_list)
        revision = store.revision
        own = [i for i in interaction_list if i.user_id == leaver]
        assert store.remove_user(leaver) == len(own)
        assert store.revision == revision + (1 if own else 0)
        assert store.remove_user(leaver) == 0  # unknown by now: a no-op
        assert store.revision == revision + (1 if own else 0)

        reference = RatingsStore()
        reference.add_all(i for i in interaction_list if i.user_id != leaver)
        assert not store.has_user(leaver) and store.interactions_of(leaver) == []
        assert store.interaction_count == reference.interaction_count
        assert store.users == reference.users and store.items == reference.items
        for user in reference.users:
            assert store.user_vector(user) == reference.user_vector(user)
            assert store.interactions_of(user) == reference.interactions_of(user)
        for item in ["a", "b", "c", "d", "e"]:
            assert store.users_of(item) == reference.users_of(item)
            for user in ["u1", "u2", "u3", "u4"]:
                assert store.last_interaction_at(user, item) == (
                    reference.last_interaction_at(user, item)
                )
        assert store.purchases() == reference.purchases()
        assert store.purchases_between(0.0, 5e5) == reference.purchases_between(0.0, 5e5)
        assert store.co_purchases() == reference.co_purchases()


# ---------------------------------------------------------------------------
# Quality metric properties
# ---------------------------------------------------------------------------

id_lists = st.lists(st.sampled_from([f"i{i}" for i in range(20)]), max_size=15, unique=True)


class TestMetricProperties:
    @given(id_lists, id_lists, st.integers(min_value=1, max_value=15))
    def test_all_ranking_metrics_bounded(self, recommended, relevant, k):
        for metric in (precision_at_k, recall_at_k, f1_at_k, ndcg_at_k):
            value = metric(recommended, relevant, k)
            assert 0.0 <= value <= 1.0 + 1e-9

    @given(id_lists, st.integers(min_value=1, max_value=15))
    def test_perfect_recommendations_have_perfect_precision(self, relevant, k):
        if not relevant:
            return
        value = precision_at_k(relevant, relevant, min(k, len(relevant)))
        assert math.isclose(value, 1.0)

    @given(st.lists(id_lists, max_size=6), st.integers(min_value=1, max_value=50))
    def test_coverage_bounded(self, recommendation_lists, catalog_size):
        assert 0.0 <= catalog_coverage(recommendation_lists, catalog_size) <= 1.0

    @given(st.dictionaries(term_names, weights, min_size=2, max_size=10))
    def test_spearman_self_correlation_nonnegative(self, values):
        # A vector correlated with itself is either perfectly correlated or,
        # when every value ties, defined as zero.
        value = spearman_rank_correlation(values, values)
        assert value == 0.0 or math.isclose(value, 1.0, abs_tol=1e-9)
