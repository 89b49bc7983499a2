"""Property test: successive profile dumps share what did not change, and none
of them ever changes.

``Profile.to_dict(previous)`` hands out the term vectors' own dicts
(copy-on-write: a vector copies its dict before its next write) and reuses
every category and sub-category node of ``previous`` whose preference and
term dict are still the live profile's.  The sequences below drive the
learner over several profiles — the original, ``copy()`` twins and
``from_dict`` rebuilds of earlier dumps — and dump each at random points,
against a random earlier dump of the same profile or none.  After every step:

- every dump handed out so far is ``==`` to, and has the ``repr`` of, a deep
  copy taken when it was returned;
- every profile reads as its reference, a deep copy that shares nothing and
  saw the same events: a write on one side never reaches another;
- a new dump has the ``repr`` of a dump built afresh here from the live
  profile, which keeps wire sizes and the ledger's digests where they were;
- a node of ``previous`` that no event touched since it was dumped is
  shared (``is``), a touched one is not, and every term dict of the new
  dump is the live vector's own.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.core.items import Item
from repro.core.profile import Profile
from repro.core.profile_learning import FeedbackEvent, LearningConfig, ProfileLearner
from repro.core.ratings import InteractionKind

ITEMS = [
    Item("b-1", "b 1", "books", "", (("alpha", 1.0), ("novel", 0.5))),
    Item("b-2", "b 2", "books", "fiction", (("alpha", 0.25), ("mystery", 0.75))),
    Item("b-3", "b 3", "books", "poetry", (("verse", 0.5), ("void", 0.0))),
    Item("m-1", "m 1", "music", "jazz", (("alpha", 0.5), ("swing", 1.0))),
    Item("m-2", "m 2", "music", "", (("loud", 0.125),)),
    Item("t-1", "t 1", "toys", "lego", ()),
]
KINDS = tuple(InteractionKind)
LEARNERS = (
    ProfileLearner(),
    # Ageing, pruning and a preference that reaches its ceiling (min() then
    # hands back the ceiling object itself: an unchanged preference).
    ProfileLearner(LearningConfig(decay_factor=0.5, prune_below=0.05, max_preference=0.6)),
)

#: (op, item, kind / dump pick, which profile, which learner)
steps = st.lists(
    st.tuples(
        st.sampled_from(("learn", "learn", "learn", "dump", "dump", "copy", "rebuild")),
        st.integers(0, len(ITEMS) - 1),
        st.integers(0, 7),
        st.integers(0, 7),
        st.integers(0, len(LEARNERS) - 1),
    ),
    min_size=1,
    max_size=30,
)


def fresh_dump(profile):
    """What ``to_dict`` must return, built here from the live profile."""
    return {
        "user_id": profile.user_id,
        "updated_at": profile.updated_at,
        "feedback_events": profile.feedback_events,
        "categories": {
            name: {
                "preference": category.preference,
                "terms": dict(category.terms.weights()),
                "subcategories": {
                    sub_name: {"preference": sub.preference, "terms": dict(sub.terms.weights())}
                    for sub_name, sub in category.subcategories.items()
                },
            }
            for name, category in profile.categories.items()
        },
    }


class Side:
    """One profile under test, its reference, its dumps and its writes."""

    def __init__(self, profile, reference, dumps=()):
        self.profile = profile
        self.reference = reference
        #: [(dump, deep copy when returned, step it was returned at)]
        self.dumps = list(dumps)
        #: (category, sub-category or None) → step of its last write
        self.written = {}


def check_sharing(dump, previous, taken_at, side):
    for name, node in dump["categories"].items():
        category = side.profile.categories[name]
        assert node["terms"] is category.terms.weights()
        for sub_name, sub_node in node["subcategories"].items():
            assert sub_node["terms"] is category.subcategories[sub_name].terms.weights()
        old = previous["categories"].get(name) if previous is not None else None
        if old is None:
            continue
        touched = side.written.get((name, None), -1) >= taken_at
        assert (node is old) is not touched
        for sub_name, sub_node in node["subcategories"].items():
            old_sub = old["subcategories"].get(sub_name)
            if old_sub is not None:
                sub_touched = side.written.get((name, sub_name), -1) >= taken_at
                assert (sub_node is old_sub) is not sub_touched


@given(steps)
@settings(max_examples=200, deadline=None)
def test_dumps_share_what_did_not_change_and_never_change(operations):
    sides = [Side(Profile("alice"), Profile("alice"))]
    for step, (op, item_pick, pick, side_pick, learner_pick) in enumerate(operations):
        side = sides[side_pick % len(sides)]
        if op == "learn":
            item = ITEMS[item_pick]
            event = FeedbackEvent("alice", item, KINDS[pick % len(KINDS)], timestamp=float(step))
            LEARNERS[learner_pick].apply(side.profile, event)
            LEARNERS[learner_pick].apply(side.reference, event)
            side.written[item.category, None] = step
            if item.subcategory:
                side.written[item.category, item.subcategory] = step
        elif op == "dump":
            previous, taken_at = None, -1
            if side.dumps and pick % 3:
                previous, _, taken_at = side.dumps[pick % len(side.dumps)]
            dump = side.profile.to_dict(previous)
            assert repr(dump) == repr(fresh_dump(side.reference))
            check_sharing(dump, previous, taken_at, side)
            side.dumps.append((dump, copy.deepcopy(dump), step))
        elif op == "copy":
            sides.append(Side(side.profile.copy(), copy.deepcopy(side.reference)))
        elif side.dumps:  # rebuild a profile from one of this side's dumps
            dump, frozen, _ = side.dumps[pick % len(side.dumps)]
            rebuilt = Side(Profile.from_dict(dump), Profile.from_dict(copy.deepcopy(frozen)))
            rebuilt.dumps.append((dump, frozen, step))
            sides.append(rebuilt)

        for each in sides:
            assert repr(fresh_dump(each.profile)) == repr(fresh_dump(each.reference))
            for dump, frozen, _ in each.dumps:
                assert dump == frozen and repr(dump) == repr(frozen)
