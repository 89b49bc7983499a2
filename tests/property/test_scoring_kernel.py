"""Differential property suite: the scoring kernel is the brute force.

:class:`repro.core.scoring.DictKernel` serves the Figure 4.5 similarity hot
path, and the repo's quality story only holds if it is provably
score-identical to the reference :func:`find_similar_users`.  These tests
drive the neighbor index over seeded random populations salted with every
awkward shape the kernel special-cases — zero-norm vectors (preferences
with empty term sets), entirely empty profiles, single-rating consumers,
consumers with disjoint category sets — and require *exact* equality with
the brute force: same ranked neighbor ids and bit-identical scores.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.neighbors import ProfileNeighborIndex, profile_stamp
from repro.core.profile import Profile
from repro.core.profile_learning import FeedbackEvent, ProfileLearner
from repro.core.items import Item, ItemCatalogView
from repro.core.ratings import InteractionKind
from repro.core.scoring import DictKernel, TargetState
from repro.core.similarity import (
    SimilarityConfig,
    cosine_similarity_cached,
    find_similar_users,
    vector_norm,
)

from tests.conftest import score_block

CATEGORIES = ["books", "electronics", "fashion", "groceries", "toys"]
TERMS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


def seeded_population(seed: int, size: int = 28):
    """A population salted with every edge shape the kernel special-cases."""
    rng = random.Random(seed)
    population = {}
    for index in range(size):
        profile = Profile(f"user-{index:03d}")
        roll = rng.random()
        if roll < 0.10:
            pass  # empty profile: no categories at all
        elif roll < 0.22:
            # Zero-norm term vectors: preferences only, empty term sets.
            for category in rng.sample(CATEGORIES, rng.randint(1, 3)):
                profile.category(category).preference = rng.uniform(0.5, 9.5)
        elif roll < 0.34:
            # Single-rating consumer: one category, one term.
            entry = profile.category(rng.choice(CATEGORIES))
            entry.preference = rng.uniform(0.5, 9.5)
            entry.terms.set(rng.choice(TERMS), rng.uniform(0.1, 5.0))
        else:
            for category in rng.sample(CATEGORIES, rng.randint(1, 4)):
                entry = profile.category(category)
                entry.preference = rng.uniform(0.0, 10.0)
                for term in rng.sample(TERMS, rng.randint(0, 6)):
                    entry.terms.set(term, rng.uniform(0.05, 8.0))
        population[profile.user_id] = profile

    # Two consumers with guaranteed-disjoint category sets: any pairwise
    # similarity between them exercises the all-zero-overlap branches.
    disjoint_a = Profile("user-disjoint-a")
    entry = disjoint_a.category("books")
    entry.preference = 7.0
    entry.terms.set("alpha", 2.0)
    disjoint_b = Profile("user-disjoint-b")
    entry = disjoint_b.category("toys")
    entry.preference = 3.0
    entry.terms.set("zeta", 4.0)
    population[disjoint_a.user_id] = disjoint_a
    population[disjoint_b.user_id] = disjoint_b
    return population


def build_index(population, config):
    return ProfileNeighborIndex(profiles=population.values(), config=config)


CONFIGS = [
    SimilarityConfig(),
    SimilarityConfig(preference_weight=1.0, term_weight=0.0, top_k=3),
    SimilarityConfig(preference_weight=0.3, term_weight=0.9,
                     min_similarity=0.2, top_k=5),
    SimilarityConfig(discard_tolerance=1.5, top_k=4),
]
CONFIG_IDS = ["default", "preferences-only", "min-similarity", "tight-discard"]


# ---------------------------------------------------------------------------
# Exact brute-force equivalence on seeded populations
# ---------------------------------------------------------------------------

CATEGORY_FILTERS = (None, "books", "toys", "no-such-category")


@pytest.mark.parametrize("category", CATEGORY_FILTERS)
@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("seed", [7, 101, 4242])
def test_index_equals_brute_force_on_seeded_population(seed, config, category):
    """Every config, every discard-rule category, every target: *exactly*
    the brute force's rankings and scores."""
    population = seeded_population(seed)
    index = build_index(population, config)
    for target in population.values():
        brute = find_similar_users(
            target, population.values(), config, category=category
        )
        # Exact tuple equality — ids AND float bit patterns.
        assert index.find_similar(target, category=category) == brute, (
            f"target {target.user_id!r}"
        )


# ---------------------------------------------------------------------------
# Incremental updates keep the kernel coherent
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("category", CATEGORY_FILTERS)
def test_index_equals_brute_force_after_learner_updates(category):
    population = seeded_population(77, size=20)
    config = SimilarityConfig()
    index = build_index(population, config)
    learner = ProfileLearner()
    index.attach_to(learner)
    # Warm the caches so updates land on populated state.
    index.find_similar(population["user-000"])

    rng = random.Random(99)
    for _ in range(12):
        user_id = rng.choice(sorted(population))
        item = Item.build(
            item_id=f"item-{rng.randint(0, 999)}",
            name="generated",
            category=rng.choice(CATEGORIES),
            subcategory="",
            terms={rng.choice(TERMS): rng.uniform(0.1, 1.0)},
            price=rng.uniform(1.0, 100.0),
        )
        learner.apply(
            population[user_id],
            FeedbackEvent(
                user_id=user_id,
                item=item,
                kind=rng.choice(list(InteractionKind)),
                timestamp=float(rng.randint(0, 10_000)),
                rating=rng.choice([None, rng.uniform(0.0, 5.0)]),
            ),
        )

    for target in population.values():
        assert index.find_similar(target, category=category) == find_similar_users(
            target, population.values(), config, category=category
        )


# ---------------------------------------------------------------------------
# Hypothesis sweep over arbitrary populations and configurations
# ---------------------------------------------------------------------------

term_names = st.text(alphabet="abcdefgh", min_size=1, max_size=5)
positive_weights = st.floats(min_value=0.0, max_value=10.0,
                             allow_nan=False, allow_infinity=False)


@st.composite
def populations(draw, min_size=2, max_size=10):
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    population = {}
    for index in range(size):
        profile = Profile(f"user-{index}")
        for category in draw(
            st.lists(st.sampled_from(CATEGORIES), max_size=3, unique=True)
        ):
            entry = profile.category(category)
            entry.preference = draw(positive_weights)
            for term, weight in draw(
                st.dictionaries(term_names, positive_weights, max_size=4)
            ).items():
                if weight > 0:
                    entry.terms.set(term, weight)
        population[profile.user_id] = profile
    return population


@settings(max_examples=30, deadline=None)
@given(
    population=populations(),
    category=st.one_of(st.none(), st.sampled_from(CATEGORIES)),
)
def test_index_equals_brute_force_property(population, category):
    config = SimilarityConfig(top_k=4)
    index = build_index(population, config)
    for target in population.values():
        assert index.find_similar(target, category=category) == find_similar_users(
            target, population.values(), config, category=category
        )


# ---------------------------------------------------------------------------
# Accumulation order: the posting lists must add in the reference's order
# ---------------------------------------------------------------------------

#: Five orders of magnitude either side of 1: a dot of three such products
#: rounds differently depending on which two are added first.
wide_weights = st.builds(
    lambda mantissa, exponent: mantissa * 10.0 ** exponent,
    st.floats(min_value=1.0, max_value=9.999),
    st.integers(min_value=-5, max_value=5),
)


@st.composite
def order_sensitive_profile(draw, user_id):
    """≥4 of the 5 categories (so any two profiles share ≥3 preference keys)
    in a drawn insertion order — the preference vector's key order — each
    with 1–3 of the 8 terms.  The flattened term vector lists terms category
    by category, so two profiles holding the same terms under differently
    ordered categories disagree on the term key order too."""
    profile = Profile(user_id)
    size = draw(st.integers(min_value=4, max_value=5))
    for category in draw(st.permutations(CATEGORIES))[:size]:
        entry = profile.category(category)
        entry.preference = draw(wide_weights)
        for term in draw(
            st.lists(st.sampled_from(TERMS), min_size=1, max_size=3, unique=True)
        ):
            entry.terms.set(term, draw(wide_weights))
    return profile


@st.composite
def order_sensitive_populations(draw):
    size = draw(st.integers(min_value=3, max_value=7))
    population = {}
    for index in range(size):
        profile = draw(order_sensitive_profile(f"user-{index}"))
        population[profile.user_id] = profile
    # A consumer sharing no key with anybody: no posting ever touches it.
    loner = Profile("user-loner")
    loner.category("stationery").preference = 4.0
    loner.category("stationery").terms.set("omega", 2.0)
    population[loner.user_id] = loner
    return population


def order_sensitive_pair(extra_target, extra_entry):
    """Two profiles sharing three keys per side in different orders.

    The shared products are ``1e16, 1, 1`` in the target's key order and
    ``1, 1, 1e16`` in the entry's: added left to right the first sum loses
    both ones (the spacing of doubles at ``1e16`` is 2), the second keeps
    them.  ``extra_*`` unshared categories (one term each) lengthen a side.
    """
    shared = (("books", 1e8, {"alpha": 1e8}), ("toys", 1.0, {"beta": 1.0}),
              ("fashion", 1.0, {"gamma": 1.0}))

    def build(user_id, layout, extras):
        profile = Profile(user_id)
        for category, preference, terms in layout:
            entry = profile.category(category)
            entry.preference = preference
            for term, weight in terms.items():
                entry.terms.set(term, weight)
        for number in range(extras):
            entry = profile.category(f"{user_id}-only-{number}")
            entry.preference = 1.0
            entry.terms.set(f"{user_id}-term-{number}", 1.0)
        return profile

    target = build("target", shared, extra_target)
    entry = build("entry", shared[1:] + shared[:1], extra_entry)
    for flatten in (Profile.preference_vector,
                    lambda profile: profile.flattened_terms().as_dict()):
        left, right = flatten(target), flatten(entry)
        in_target_order = sum(left[key] * right[key] for key in left if key in right)
        in_entry_order = sum(left[key] * right[key] for key in right if key in left)
        assert in_target_order != in_entry_order
    return target, entry


@pytest.mark.parametrize(
    "extra_target, extra_entry",
    [(0, 0), (2, 0), (0, 2)],
    ids=["equal-length-tie", "entry-shorter", "target-shorter"],
)
@pytest.mark.parametrize("category", [None, "books"])
def test_kernel_picks_the_reference_order(extra_target, extra_entry, category):
    """The reference iterates the shorter vector (the target on a tie); the
    kernel must reproduce whichever sum that is, bit for bit."""
    target, entry = order_sensitive_pair(extra_target, extra_entry)
    loner = Profile("loner")
    loner.category("stationery").preference = 4.0
    loner.category("stationery").terms.set("omega", 2.0)
    population = {p.user_id: p for p in (target, entry, loner)}
    config = SimilarityConfig(min_similarity=0.0, discard_tolerance=1e9)
    index = build_index(population, config)
    for profile in population.values():
        brute = find_similar_users(
            profile, population.values(), config, category=category
        )
        assert index.find_similar(profile, category=category) == brute
    assert index.find_similar(target, category=category) == [
        ("entry", find_similar_users(target, [entry], config)[0][1]),
        ("loner", 0.0),
    ]


def test_dot_that_cancels_in_one_order_only():
    """A learner can push a preference below zero, so products can cancel:
    here the shared products sum to exactly 0.0 in the target's key order and
    to 1.0 in the (shorter) entry's — the row must not be mistaken for one
    no posting touched."""
    target = Profile("target")
    for category, preference in (
        ("books", 1e8), ("toys", 1.0), ("fashion", -1e8), ("groceries", 1.0)
    ):
        target.category(category).preference = preference
    entry = Profile("entry")
    for category, preference in (("books", 1e8), ("fashion", 1e8), ("toys", 1.0)):
        entry.category(category).preference = preference
    left, right = target.preference_vector(), entry.preference_vector()
    assert sum(left[key] * right[key] for key in left if key in right) == 0.0
    assert sum(left[key] * right[key] for key in right) == 1.0

    config = SimilarityConfig(min_similarity=0.0)
    index = build_index({"target": target, "entry": entry}, config)
    brute = find_similar_users(target, [entry], config)
    assert brute[0][1] > 0.0
    assert index.find_similar(target) == brute
    assert index.find_similar(entry) == find_similar_users(entry, [target], config)


@settings(max_examples=60, deadline=None)
@given(
    population=order_sensitive_populations(),
    category=st.one_of(st.none(), st.sampled_from(CATEGORIES)),
    min_similarity=st.sampled_from([0.0, 0.05]),
)
def test_dict_kernel_adds_in_reference_order(population, category, min_similarity):
    """``==`` against brute force where float addition is order-sensitive.

    ``top_k`` covers the whole population and the discard tolerance admits
    every preference magnitude, so with ``min_similarity=0.0`` the rows no
    posting touched must come back too, scored exactly ``0.0``.
    """
    config = SimilarityConfig(
        top_k=len(population), min_similarity=min_similarity,
        discard_tolerance=1e9,
    )
    index = build_index(population, config)
    for target in population.values():
        brute = find_similar_users(
            target, population.values(), config, category=category
        )
        assert index.find_similar(target, category=category) == brute
        if min_similarity == 0.0:
            assert len(brute) == len(population) - 1
            if target.user_id != "user-loner":
                assert ("user-loner", 0.0) in brute


# ---------------------------------------------------------------------------
# One score per row: the partitions against the reference formula
# ---------------------------------------------------------------------------

KEYS = ["k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"]

#: ``wide_weights`` of either sign, so a sum can also cancel.
signed_wide_weights = st.builds(
    lambda weight, negative: -weight if negative else weight,
    wide_weights,
    st.booleans(),
)


@st.composite
def ordered_vectors(draw, min_size=0, max_size=len(KEYS)):
    """A vector over ``KEYS`` in a drawn key order."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    return {
        key: draw(signed_wide_weights) for key in draw(st.permutations(KEYS))[:size]
    }


def reference_dot(target, row):
    """The ``sum`` inside ``cosine_similarity_cached``: the shorter vector is
    iterated, the target on a tie."""
    left, right = (row, target) if len(row) < len(target) else (target, row)
    return sum(value * right.get(key, 0.0) for key, value in left.items())


def reference_score(target, row, weights=(0.6, 0.4)):
    """The reference score of a ``(prefs, terms)`` row against a target."""
    (target_prefs, target_terms), (prefs, terms) = target, row
    pref = cosine_similarity_cached(
        target_prefs, vector_norm(target_prefs), prefs, vector_norm(prefs)
    )
    term = cosine_similarity_cached(
        target_terms, vector_norm(target_terms), terms, vector_norm(terms)
    )
    preference_weight, term_weight = weights
    total = preference_weight + term_weight
    return max(0.0, min(1.0, (preference_weight * pref + term_weight * term) / total))


def dict_kernel(rows):
    kernel = DictKernel()
    for number, (prefs, terms) in enumerate(rows):
        kernel.put(f"user-{number}", prefs, terms)
    return kernel


def target_state(prefs, terms):
    return TargetState(prefs, vector_norm(prefs), terms, vector_norm(terms))


def ranked(scores):
    return sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))


@settings(max_examples=100, deadline=None)
@given(
    target=st.tuples(ordered_vectors(min_size=1), ordered_vectors(min_size=1)),
    rows=st.lists(st.tuples(ordered_vectors(), ordered_vectors()), min_size=1, max_size=8),
    relinked=st.lists(
        st.tuples(st.integers(0, 7), st.tuples(ordered_vectors(), ordered_vectors())),
        max_size=3,
    ),
)
# A negative term cosine scores 0.0, which ``minimum`` 0.0 still holds: a
# row bound must be clamped at 0 like the score.
@example(
    target=({"k0": 1.0}, {"k5": 1.0}),
    rows=[({}, {"k0": 1.0, "k1": 1.0, "k2": 1.0, "k3": 1.0, "k5": -1.0})],
    relinked=[],
)
def test_each_row_gets_the_reference_score(target, rows, relinked):
    """``==`` on every row's score, whatever mix of lengths is linked on
    either side — rows longer than the target, rows of one or two keys, rows
    with ``3 <= len(row) < len(target)`` — also after rows were re-linked
    into another partition or freed, through ``score_block`` and through a
    ``top_pairs`` that keeps every row."""
    kernel = dict_kernel(rows)
    rows = {f"user-{number}": row for number, row in enumerate(rows)}
    for number, row in relinked:
        user_id = f"user-{number}"
        if user_id in rows:
            if row[0] or row[1]:
                kernel.put(user_id, *row)
                rows[user_id] = row
            else:
                kernel.drop(user_id)
                del rows[user_id]
    tq = target_state(*target)
    expected = {user_id: reference_score(target, row) for user_id, row in rows.items()}
    assert score_block(kernel, tq, 0.6, 0.4, 1.0) == expected
    if rows:
        assert kernel.top_pairs(tq, 0.6, 0.4, 1.0, 0.0, "", len(rows)) == ranked(
            expected
        )


def test_walk_order_is_settled_where_the_reference_uses_the_row():
    """Shared products ``1e16, 1, 1`` in the target's key order and
    ``1, 1, 1e16`` in the rows': left to right the first sum loses both ones.
    The term walk adds in the target's order — the reference's for rows at
    least as long as the target and for a row sharing two keys — so only the
    shorter row of three shared keys walks to another cosine; it is settled
    by the reference cosine before it is held or returned."""
    target_terms = {"k0": 1e8, "k1": 1.0, "k2": 1.0, "k3": 1e8}
    shorter = {"k1": 1.0, "k2": 1.0, "k0": 1e8}
    as_long = {"k1": 1.0, "k2": 1.0, "k0": 1e8, "k7": 1.0}
    longer = {"k6": 1.0, "k1": 1.0, "k2": 1.0, "k0": 1e8, "k7": 1.0}
    two_shared = {"k2": 3.0, "k6": 1.0, "k0": 1e8}
    rows = [shorter, as_long, longer, two_shared]
    in_target_order, in_entry_order = 1e16, 1e16 + 2.0
    assert [reference_dot(target_terms, row) for row in rows] == [
        in_entry_order, in_target_order, in_target_order, 1e16 + 3.0,
    ]
    prefs = {"books": 1.0}
    kernel = dict_kernel([(prefs, row) for row in rows])
    tq = target_state(prefs, target_terms)
    # Term cosines alone, so one rounding step shows in the score.
    expected = {
        f"user-{number}": reference_score((prefs, target_terms), (prefs, row), (0.0, 1.0))
        for number, row in enumerate(rows)
    }
    (partition,) = kernel._partitions.values()
    walks = dict(zip(partition.user_ids, partition.walk(tq)))
    cosines = {
        f"user-{number}": cosine_similarity_cached(
            target_terms, vector_norm(target_terms), row, vector_norm(row)
        )
        for number, row in enumerate(rows)
    }
    assert {user_id for user_id in cosines if walks[user_id] != cosines[user_id]} == {
        "user-0"
    }
    assert score_block(kernel, tq, 0.0, 1.0, 1.0) == expected
    for top_k in range(1, 5):
        assert kernel.top_pairs(tq, 0.0, 1.0, 1.0, 0.0, "", top_k) == ranked(
            expected
        )[:top_k]


def test_norm_that_underflows_beside_a_nonzero_dot():
    """``1e-170`` squares to 0.0, so the vector's norm is 0.0 while its dot
    with a ``1e150`` weight is not: the reference answers 0.0 from the norm
    guard, and so must the kernel — as the entry and as the target."""
    tiny = Profile("tiny")
    huge = Profile("huge")
    plain = Profile("plain")
    for profile, magnitude in ((tiny, 1e-170), (huge, 1e150), (plain, 2.0)):
        entry = profile.category("books")
        entry.preference = magnitude
        entry.terms.set("alpha", magnitude)
    assert vector_norm(tiny.preference_vector()) == 0.0
    assert 1e150 * 1e-170 != 0.0
    population = {p.user_id: p for p in (tiny, huge, plain)}
    config = SimilarityConfig(min_similarity=0.0)
    index = build_index(population, config)
    for target in population.values():
        brute = find_similar_users(target, population.values(), config)
        assert index.find_similar(target) == brute
    assert dict(index.find_similar(huge))["tiny"] == 0.0
    assert dict(index.find_similar(tiny)) == {"huge": 0.0, "plain": 0.0}


@settings(max_examples=60, deadline=None)
@given(
    target=st.tuples(ordered_vectors(), ordered_vectors()),
    rows=st.lists(
        st.tuples(ordered_vectors(), ordered_vectors()), min_size=1, max_size=6
    ),
)
def test_block_scores_are_the_reference_scores(target, rows):
    """The one-pass ``score_block``: each row's score ``==`` the reference
    formula over the same two pairs of vectors."""
    kernel = dict_kernel(rows)
    rows = {f"user-{number}": row for number, row in enumerate(rows)}
    prefs, terms = target
    tq = target_state(prefs, terms)
    scores = score_block(kernel, tq, 0.6, 0.4, 1.0)
    assert sorted(scores) == sorted(rows)
    for user_id, (row_prefs, row_terms) in rows.items():
        pref = cosine_similarity_cached(
            prefs, tq.pref_norm, row_prefs, vector_norm(row_prefs)
        )
        term = cosine_similarity_cached(
            terms, tq.term_norm, row_terms, vector_norm(row_terms)
        )
        assert scores[user_id] == max(0.0, min(1.0, (0.6 * pref + 0.4 * term) / 1.0))


# ---------------------------------------------------------------------------
# Bounded kernel state: partitions follow the entry lifecycle exactly
# ---------------------------------------------------------------------------


def partition_state(index):
    """Per category signature: every live row's preference weights, the term
    postings, both sides' peaks and the unbounded-row count (rows spelled as
    user ids, since two histories number their rows differently), and how
    many weights the partitions hold."""
    state = {}
    weights = 0
    for signature, partition in index._kernel._partitions.items():
        user_ids = partition.user_ids
        columns = {
            user_id: tuple(column[row] for column in partition.columns)
            for user_id, row in partition.row_of.items()
        }
        postings = {
            key: {user_ids[row]: weight for row, weight in bucket.items()}
            for key, bucket in partition.postings.items()
        }
        state[signature] = (
            columns,
            postings,
            partition.pref_peaks,
            partition.term_peaks,
            partition.unbounded,
        )
        weights += len(columns) * len(signature)
        weights += sum(len(bucket) for bucket in postings.values())
    return state, weights


lifecycle_steps = st.lists(
    st.tuples(
        st.sampled_from(["add", "learn", "replace", "remove", "build"]),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(steps=lifecycle_steps, queried=st.booleans())
def test_postings_track_entry_lifecycle(steps, queried):
    """After any add / learner update / wholesale replace / remove / build
    sequence the partitions equal a fresh build's — preference columns, term
    postings and the block maxima a departed row held — and hold one weight
    per vector key: nothing left behind by a removal, nothing duplicated by
    re-indexing a profile whose key order (so signature) changed.  After
    every step the kernel is the only store (:func:`assert_one_store`)."""
    index = ProfileNeighborIndex()
    learner = ProfileLearner()
    index.attach_to(learner)
    for action, slot, seed in steps:
        rng = random.Random(seed)
        user_id = f"user-{slot}"
        held = {profile.user_id: profile for profile in index.indexed_profiles()}
        if action in ("add", "replace"):
            # A new object for the id: categories (the preference key order)
            # and terms are redrawn, so a replace re-links in another order.
            profile = Profile(user_id)
            for category in rng.sample(CATEGORIES, rng.randint(0, 4)):
                entry = profile.category(category)
                entry.preference = rng.uniform(0.0, 10.0)
                for term in rng.sample(TERMS, rng.randint(0, 4)):
                    entry.terms.set(term, rng.uniform(0.1, 5.0))
            index.add(profile)
        elif action == "learn" and user_id in held:
            item = Item.build(
                item_id=f"item-{seed}",
                name="generated",
                category=rng.choice(CATEGORIES),
                subcategory="",
                terms={rng.choice(TERMS): rng.uniform(0.1, 1.0)},
                price=10.0,
            )
            learner.apply(
                held[user_id],
                FeedbackEvent(
                    user_id=user_id,
                    item=item,
                    kind=rng.choice(list(InteractionKind)),
                    timestamp=float(seed),
                ),
            )
            if queried:
                index.find_similar(held[user_id])
        elif action == "remove":
            index.remove(user_id)
        elif action == "build":
            index.build(list(held.values()))
        assert_one_store(index)
    index.sync()
    assert index.dirty_users() == set()
    assert_one_store(index)

    profiles = index.indexed_profiles()
    state, weights = partition_state(index)
    fresh = ProfileNeighborIndex(profiles=profiles)
    fresh_state, fresh_weights = partition_state(fresh)
    assert state == fresh_state
    assert weights == fresh_weights == sum(
        len(profile.preference_vector()) + len(profile.flattened_terms())
        for profile in profiles
    )
    # Rows are bounded too: one per live consumer plus the freed ones, which
    # the partition's next registrations reuse before its row space grows;
    # every consumer sits in the partition of its signature, and no
    # partition is left empty.
    kernel = index._kernel
    assert {
        user_id: partition.signature for user_id, partition in kernel._partition_of.items()
    } == {profile.user_id: tuple(profile.preference_vector()) for profile in profiles}
    for signature, partition in kernel._partitions.items():
        assert partition.signature == signature
        assert set(partition.row_of) == {
            user_id for user_id, held in kernel._partition_of.items() if held is partition
        } != set()
        assert len(partition.user_ids) == len(partition.row_of) + len(partition.free)
        for row in partition.free:
            assert partition.user_ids[row] is None and partition.terms[row] is None
            assert partition.stamps[row] is None
            assert partition.pref_norms[row] == partition.term_norms[row] == 0.0
            assert all(column[row] == 0.0 for column in partition.columns)


def assert_one_store(index):
    """The kernel is the index's only per-consumer store.  It holds a row for
    every consumer the index knows, but for none it does not; a dirty
    consumer's row may be missing or stale until the next ``sync``.  Every
    other row is at its profile's stamp and rebuilds exactly the target a
    fresh flatten gives: preferences in key order, terms, both norms."""
    kernel, known, dirty = index._kernel, index._profiles_by_id, index.dirty_users()
    assert dirty <= set(known)
    assert set(kernel._partition_of) <= set(known)
    assert set(kernel._partition_of) - dirty == set(known) - dirty
    for user_id, profile in known.items():
        if user_id in dirty:
            continue
        assert kernel.stamp_of(user_id) == profile_stamp(profile)
        prefs = profile.preference_vector()
        terms = profile.flattened_terms().as_dict()
        target = kernel.target_of(user_id)
        assert list(target.prefs.items()) == list(prefs.items())
        assert target.terms == terms
        assert (target.pref_norm, target.term_norm) == (vector_norm(prefs), vector_norm(terms))
