"""The profile learning rule (Figure 4.5, top formula).

The paper quotes Middleton's profile update::

    New_profile_of_Category_c = W_ci + α · Σ_j (w_ji · quality_of_feedback_j)

where ``W_ci`` is the current weight of term *i* in category *c*, ``w_ji`` is
the weight of term *i* in "document" *j* (here: the merchandise item the
consumer interacted with) and α is the learning rate.  The *quality of
feedback* reflects how strong the behaviour was: a purchase teaches more than
a query.

The :class:`ProfileLearner` applies that rule to the hierarchical profile of
:mod:`repro.core.profile` every time the BRA reports a behaviour event, and
also maintains the per-category scalar preference value the similarity
algorithm compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import ProfileError
from repro.core.items import Item
from repro.core.profile import Profile
from repro.core.ratings import InteractionKind

__all__ = [
    "FeedbackEvent",
    "LearningConfig",
    "ProfileLearner",
    "FEEDBACK_QUALITY",
    "UpdateHook",
]


#: Quality-of-feedback factor per behaviour kind.  Purchases are the strongest
#: evidence of interest; queries the weakest; explicit ratings are scaled by
#: the rating value when the event carries one.
FEEDBACK_QUALITY: Dict[InteractionKind, float] = {
    InteractionKind.QUERY: 0.2,
    InteractionKind.VIEW: 0.3,
    InteractionKind.NEGOTIATE: 0.6,
    InteractionKind.AUCTION_BID: 0.7,
    InteractionKind.BUY: 1.0,
    InteractionKind.RATE: 0.8,
}


@dataclass(frozen=True)
class FeedbackEvent:
    """One behaviour event reported by the BRA to the profile agent."""

    user_id: str
    item: Item
    kind: InteractionKind
    timestamp: float = 0.0
    rating: Optional[float] = None

    def quality(self) -> float:
        """The quality-of-feedback factor of this event."""
        base = FEEDBACK_QUALITY[self.kind]
        if self.kind is InteractionKind.RATE and self.rating is not None:
            # Explicit ratings in [0, 5] scale the base factor.
            return base * max(0.0, min(self.rating, 5.0)) / 5.0
        return base


@dataclass
class LearningConfig:
    """Knobs of the learning rule.

    Attributes:
        learning_rate: the α of Figure 4.5.
        preference_rate: how fast the scalar per-category preference moves.
        decay_factor: multiplicative ageing applied to term weights before
            each update batch (1.0 disables ageing).
        max_preference: ceiling of the scalar preference value.
        prune_below: drop terms whose weight falls under this threshold.
    """

    learning_rate: float = 0.3
    preference_rate: float = 0.5
    decay_factor: float = 1.0
    max_preference: float = 10.0
    prune_below: float = 1e-4

    def validate(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ProfileError(f"learning rate must be in (0, 1], got {self.learning_rate}")
        if not 0.0 < self.preference_rate <= 1.0:
            raise ProfileError(
                f"preference rate must be in (0, 1], got {self.preference_rate}"
            )
        if not 0.0 < self.decay_factor <= 1.0:
            raise ProfileError(f"decay factor must be in (0, 1], got {self.decay_factor}")
        if self.max_preference <= 0:
            raise ProfileError("max preference must be positive")
        if self.prune_below < 0:
            raise ProfileError("prune threshold cannot be negative")


#: Signature of a post-update hook: called with the profile that changed and
#: the event that changed it, after the learning rule has been applied.
UpdateHook = Callable[[Profile, "FeedbackEvent"], None]


class ProfileLearner:
    """Applies the Figure 4.5 learning rule to consumer profiles.

    Downstream caches (notably the
    :class:`~repro.core.neighbors.ProfileNeighborIndex`) can register update
    hooks; every applied event fires them once, which is what makes
    incremental cache invalidation precise — only the consumer whose profile
    actually changed is reported.
    """

    def __init__(self, config: Optional[LearningConfig] = None) -> None:
        self.config = config or LearningConfig()
        self.config.validate()
        self.events_applied = 0
        self._update_hooks: List[UpdateHook] = []

    # -- update hooks ----------------------------------------------------------

    def add_update_hook(self, hook: UpdateHook) -> None:
        """Register a callable fired after every applied feedback event."""
        if hook not in self._update_hooks:
            self._update_hooks.append(hook)

    # -- single event ---------------------------------------------------------

    def apply(self, profile: Profile, event: FeedbackEvent) -> Profile:
        """Apply one feedback event to ``profile`` in place and return it."""
        if profile.user_id != event.user_id:
            raise ProfileError(
                f"event for user {event.user_id!r} applied to profile of "
                f"{profile.user_id!r}"
            )
        config = self.config
        quality = event.quality()
        item = event.item

        category = profile.category(item.category)
        if config.decay_factor < 1.0:
            category.terms.decay(config.decay_factor)

        # Term update: W_ci_new = W_ci + α · w_ji · quality_of_feedback
        rate = config.learning_rate
        category.terms.add_all(
            (term, rate * item_weight * quality) for term, item_weight in item.terms
        )
        category.terms.prune(config.prune_below)

        # Scalar category preference (the Tx the similarity algorithm compares)
        category.preference = min(
            config.max_preference,
            category.preference + config.preference_rate * quality,
        )

        if item.subcategory:
            sub = category.subcategory(item.subcategory)
            if config.decay_factor < 1.0:
                sub.terms.decay(config.decay_factor)
            sub.terms.add_all(
                (term, rate * item_weight * quality) for term, item_weight in item.terms
            )
            sub.terms.prune(config.prune_below)
            sub.preference = min(
                config.max_preference,
                sub.preference + config.preference_rate * quality,
            )

        profile.updated_at = max(profile.updated_at, event.timestamp)
        profile.feedback_events += 1
        self.events_applied += 1
        for hook in self._update_hooks:
            hook(profile, event)
        return profile

    # -- batches ---------------------------------------------------------------

    def apply_all(self, profile: Profile, events: Iterable[FeedbackEvent]) -> Profile:
        """Apply a batch of events in order."""
        for event in events:
            self.apply(profile, event)
        return profile

    def build_profile(self, user_id: str, events: Iterable[FeedbackEvent]) -> Profile:
        """Build a fresh profile for ``user_id`` from an event history."""
        profile = Profile(user_id)
        return self.apply_all(profile, events)
