"""Property tests: the content pass that selects before it materialises
equals the pass it replaced.

``InformationFilteringRecommender.top_scores`` visits only the categories
the profile has, binds the profile side once per category and ranks bare
``(item_id, score)`` pairs; ``recommend`` and the hybrid blend build a
``Recommendation`` only for what they return.  The algorithm they replaced is
kept *here* as the oracle — ``score_item`` over the whole catalogue (or
``in_category``), ``score > 0``, sort by ``(-score, item_id)``, ``[:k]``, an
object per candidate — and everything must be ``==`` to it: ids, floats,
``source`` and ``reason`` strings.
"""

from hypothesis import given, settings, strategies as st

from repro.core.hybrid import AgentHybridRecommender
from repro.core.information_filtering import InformationFilteringRecommender
from repro.core.items import Item, ItemCatalogView
from repro.core.neighbors import ProfileNeighborIndex
from repro.core.profile import Profile
from repro.core.ratings import Interaction, InteractionKind, RatingsStore
from repro.core.recommender import Recommendation
from repro.core.similarity import cosine_similarity

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

#: "garden" never reaches a catalogue, "toys" never reaches a profile.
PROFILE_CATEGORIES = ["books", "electronics", "garden"]
PROFILE_SUBCATEGORIES = ["sub-a", "sub-b"]
TERMS = ["alpha", "beta", "gamma", "delta"]

#: Magnitudes far enough apart that ``(a + b) + c != a + (b + c)``: a pass
#: that re-associated the three parts of the score would show.
magnitudes = st.sampled_from([1e-9, 1e-4, 0.1, 1.0, 7.0, 1e3, 1e8])
weights = st.builds(lambda m, f: m * f, magnitudes, st.floats(min_value=0.1, max_value=1.0))
boosts = st.sampled_from([0.0, 1e-9, 0.2, 0.3, 1.0, 1e9])


def term_vectors(sizes):
    """Term -> weight dicts of one of ``sizes`` lengths (0 is the empty vector)."""
    return st.sampled_from(sizes).flatmap(
        lambda size: st.dictionaries(st.sampled_from(TERMS), weights, min_size=size, max_size=size)
    )


@st.composite
def profiles(draw):
    """No category, one category only, categories the catalogue lacks, empty
    term vectors, zero preferences — and the ordinary case."""
    profile = Profile("consumer")
    count = draw(st.sampled_from([0, 1, 2, 3, 3]))
    for name in draw(st.permutations(PROFILE_CATEGORIES))[:count]:
        category = profile.category(name)
        category.preference = draw(st.just(0.0) | weights | weights)
        for term, weight in draw(term_vectors([0, 2, 3, 4])).items():
            category.terms.set(term, weight)
        for sub_name in PROFILE_SUBCATEGORIES:
            if draw(st.booleans()):
                for term, weight in draw(term_vectors([0, 1, 2, 3])).items():
                    category.subcategory(sub_name).terms.set(term, weight)
    return profile


@st.composite
def scenes(draw):
    """``(catalogue items, profile)``.  Items lean towards the categories and
    sub-categories the profile has, so all three parts of the score are often
    non-zero together; the rest sit where the profile has nothing.  Items
    share terms held in different dict orders (``Item`` keeps the order of
    the tuple it is given)."""
    profile = draw(profiles())
    items = []
    # ids in no particular order: ties on score are broken by id, not arrival
    for number in draw(st.permutations(range(draw(st.sampled_from([0, 1, 4, 8, 12]))))):
        category = draw(st.sampled_from(sorted(profile.categories) * 2 + ["electronics", "toys"]))
        known = profile.categories.get(category)
        subcategories = sorted(known.subcategories) * 2 if known is not None else []
        pairs = list(draw(term_vectors([0, 1, 2, 3, 4])).items())
        if pairs and draw(st.booleans()):
            pairs[0] = (pairs[0][0], 0.0)
        items.append(
            Item(
                item_id=f"item-{number:02d}",
                name="generated",
                category=category,
                subcategory=draw(st.sampled_from(subcategories + ["", "sub-c"])),
                terms=tuple(draw(st.permutations(pairs))),
            )
        )
    return items, profile


#: None / in the profile / absent from the profile / absent from the catalogue.
category_filters = st.none() | st.sampled_from(["books", "electronics", "toys", "garden", "nowhere"])
ks = st.integers(min_value=1, max_value=20)


def exclusions(items):
    return st.sets(st.sampled_from([item.item_id for item in items]), max_size=4) if items else st.just(set())


# ---------------------------------------------------------------------------
# The pass that was replaced, kept as the oracle
# ---------------------------------------------------------------------------


def _old_content_recommend(recommender, profile, k, category, excluded):
    """``InformationFilteringRecommender.recommend`` as it was: every
    candidate scored by the per-item reference, an object per positive score."""
    if profile is None or profile.is_empty():
        return []
    candidates = (
        recommender.catalog.in_category(category) if category is not None
        else list(recommender.catalog)
    )
    recommendations = []
    for item in candidates:
        if item.item_id in excluded:
            continue
        score = recommender.score_item(profile, item)
        if score > 0:
            recommendations.append(
                Recommendation(
                    item_id=item.item_id,
                    score=score,
                    source=recommender.name,
                    reason=f"matches your interest in {item.category}",
                )
            )
    recommendations.sort(key=lambda rec: (-rec.score, rec.item_id))
    return recommendations[:k]


def _old_hybrid_recommend(hybrid, profile, neighbours, k, category, excluded):
    """``AgentHybridRecommender._recommend`` as it was: blend in a dict, an
    object per blended item, sort the objects, keep ``k``."""
    neighbour_scores = hybrid._normalized(
        hybrid._neighbour_item_scores(profile.user_id, neighbours, category, excluded)
    )
    content_candidates = _old_content_recommend(
        hybrid._content, profile, max(k * 3, 30), category, excluded
    )
    content_scores = hybrid._normalized({rec.item_id: rec.score for rec in content_candidates})
    total_weight = hybrid.collaborative_weight + hybrid.content_weight
    combined = {}
    for item_id in set(neighbour_scores) | set(content_scores):
        combined[item_id] = (
            hybrid.collaborative_weight * neighbour_scores.get(item_id, 0.0)
            + hybrid.content_weight * content_scores.get(item_id, 0.0)
        ) / total_weight
    recommendations = [
        Recommendation(
            item_id=item_id,
            score=score,
            source=hybrid.name,
            reason=(
                "preferred by similar consumers" if item_id in neighbour_scores
                else "matches your profile"
            ),
        )
        for item_id, score in combined.items()
        if score > 0
    ]
    recommendations.sort(key=lambda rec: (-rec.score, rec.item_id))
    return recommendations[:k]


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


class TestContentPass:
    @given(st.data(), scenes(), ks, category_filters, boosts, boosts)
    @settings(max_examples=150, deadline=None)
    def test_top_scores_and_recommend_equal_the_whole_catalogue_pass(
        self, data, scene, k, category, category_boost, subcategory_boost
    ):
        items, profile = scene
        recommender = InformationFilteringRecommender(
            ItemCatalogView(items), lambda _: profile, category_boost, subcategory_boost
        )
        for excluded in (set(), data.draw(exclusions(items))):
            expected = _old_content_recommend(recommender, profile, k, category, excluded)
            assert recommender.recommend("consumer", k, category, excluded) == expected
            # an empty profile scores nothing, so the pass needs no guard
            assert recommender.top_scores(profile, k, category, excluded) == [
                (rec.item_id, rec.score) for rec in expected
            ]

    def test_the_three_parts_keep_the_reference_association(self):
        """``(term_match + category_part) + subcategory_part``, on values
        where the other grouping differs in the last bit."""
        profile = Profile("consumer")
        books = profile.category("books")
        books.preference = 2.0
        books.terms.set("alpha", 1.0)
        books.terms.set("beta", 0.5)
        books.subcategory("sub-a").terms.set("alpha", 0.2)
        books.subcategory("sub-a").terms.set("gamma", 0.9)
        profile.category("garden").preference = 7.0
        item = Item.build("item-1", "generated", "books", "sub-a", {"alpha": 0.7, "gamma": 0.2})
        recommender = InformationFilteringRecommender(ItemCatalogView([item]), lambda _: profile)

        term_match = cosine_similarity({"alpha": 1.0, "beta": 0.5}, item.term_weights)
        category_part = 0.3 * (2.0 / 7.0)
        subcategory_part = 0.2 * cosine_similarity({"alpha": 0.2, "gamma": 0.9}, item.term_weights)
        expected = (term_match + category_part) + subcategory_part
        assert expected != term_match + (category_part + subcategory_part)
        assert recommender.score_item(profile, item) == expected
        assert recommender.scorer_for(profile)(item, *item.normed_terms()) == expected
        assert recommender.top_scores(profile, 5, None, set()) == [("item-1", expected)]


@st.composite
def neighbourhoods(draw, items):
    """A ratings store and a neighbour list over it; the consumer has seen a
    few items, neighbours rate catalogue items and one the catalogue lacks."""
    ratings = RatingsStore()
    rateable = [item.item_id for item in items] + ["off-catalogue"]
    for user_id in ("consumer", "n-1", "n-2", "n-3"):
        for item_id in draw(st.lists(st.sampled_from(rateable), max_size=5)):
            ratings.add(
                Interaction(user_id, item_id, InteractionKind.RATE, value=draw(st.floats(0.0, 5.0)))
            )
    neighbours = [
        (user_id, draw(st.floats(min_value=0.0, max_value=1.0)))
        for user_id in draw(st.lists(st.sampled_from(["n-1", "n-2", "n-3", "n-gone"]), unique=True))
    ]
    return ratings, neighbours


class TestHybridBlend:
    @given(st.data(), scenes(), st.integers(1, 12), category_filters)
    @settings(max_examples=100, deadline=None)
    def test_recommend_body_equals_the_object_per_candidate_blend(
        self, data, scene, k, category
    ):
        items, profile = scene
        ratings, neighbours = data.draw(neighbourhoods(items))
        hybrid = AgentHybridRecommender(
            ratings,
            ItemCatalogView(items),
            profile_of=lambda _: profile,
            neighbor_index=ProfileNeighborIndex(profiles=[profile]),
            collaborative_weight=data.draw(st.sampled_from([0.0, 0.6, 1e-9])),
            content_weight=data.draw(st.sampled_from([0.4, 1.0, 1e9])),
        )
        for excluded in (set(), data.draw(exclusions(items))):
            assert hybrid._recommend(profile, neighbours, k, category, excluded) == (
                _old_hybrid_recommend(hybrid, profile, neighbours, k, category, excluded)
            )
