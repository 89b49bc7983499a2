"""Offline interaction datasets for the algorithm-level benchmarks.

The recommendation-quality experiments (CAP-4 in :mod:`repro.experiments`) do
not need the whole agent platform: they evaluate the recommenders directly on
a dataset of consumer behaviour.  :class:`InteractionGenerator` produces such
datasets from a synthetic population and catalogue: each consumer interacts
(queries, buys, bids) with items drawn according to its latent utility, over
simulated time, and the dataset is split chronologically into a training part
(what the mechanism gets to observe) and a held-out part (what the metrics are
computed against).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.core.items import Item, ItemCatalogView
from repro.core.profile import Profile
from repro.core.profile_learning import FeedbackEvent, ProfileLearner
from repro.core.ratings import Interaction, InteractionKind, RatingsStore
from repro.workload.consumers import ConsumerPopulation, SyntheticConsumer

__all__ = ["InteractionDataset", "InteractionGenerator"]


@dataclass
class InteractionDataset:
    """A generated behaviour dataset with a chronological train/test split."""

    catalog: ItemCatalogView
    population: ConsumerPopulation
    train_events: List[FeedbackEvent]
    test_relevance: Dict[str, List[str]]
    duration_ms: float

    def build_profiles(self, learner: Optional[ProfileLearner] = None) -> Dict[str, Profile]:
        """Learn a profile per consumer from the training events."""
        learner = learner or ProfileLearner()
        profiles: Dict[str, Profile] = {}
        for event in self.train_events:
            profile = profiles.setdefault(event.user_id, Profile(event.user_id))
            learner.apply(profile, event)
        # Consumers with no training events still get an (empty) profile.
        for consumer in self.population:
            profiles.setdefault(consumer.user_id, Profile(consumer.user_id))
        return profiles

    def build_ratings(self) -> RatingsStore:
        """Observational ratings store built from the training events."""
        store = RatingsStore()
        for event in self.train_events:
            store.add(
                Interaction(
                    user_id=event.user_id,
                    item_id=event.item.item_id,
                    kind=event.kind,
                    timestamp=event.timestamp,
                    value=event.rating or 0.0,
                    category=event.item.category,
                )
            )
        return store

    def relevant_items(self, user_id: str) -> List[str]:
        """Held-out ground-truth relevant items for ``user_id``."""
        return list(self.test_relevance.get(user_id, []))

    @property
    def users(self) -> List[str]:
        return [consumer.user_id for consumer in self.population]


class InteractionGenerator:
    """Generates behaviour datasets from a population and a catalogue."""

    #: Probability of each behaviour kind given the consumer engaged an item.
    BEHAVIOUR_MIX: Sequence[Tuple[InteractionKind, float]] = (
        (InteractionKind.QUERY, 0.45),
        (InteractionKind.VIEW, 0.20),
        (InteractionKind.NEGOTIATE, 0.10),
        (InteractionKind.AUCTION_BID, 0.10),
        (InteractionKind.BUY, 0.15),
    )

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def _pick_behaviour(self, utility: float) -> InteractionKind:
        """Stronger latent interest shifts behaviour towards purchases."""
        roll = self._rng.random()
        if utility > 0.75 and roll < 0.45:
            return InteractionKind.BUY
        cumulative = 0.0
        for kind, probability in self.BEHAVIOUR_MIX:
            cumulative += probability
            if roll <= cumulative:
                return kind
        return InteractionKind.QUERY

    def _choose_item(
        self, consumer: SyntheticConsumer, items: Sequence[Item], exploration: float
    ) -> Item:
        """Mostly pick items the consumer truly likes; sometimes explore."""
        if self._rng.random() < exploration:
            return self._rng.choice(list(items))
        weighted = [(consumer.utility(item), item) for item in items]
        weighted.sort(key=lambda pair: (-pair[0], pair[1].item_id))
        head = max(1, int(len(weighted) * 0.25))
        return self._rng.choice([item for _, item in weighted[:head]])

    def generate(
        self,
        population: ConsumerPopulation,
        catalog: ItemCatalogView,
        events_per_user: int = 40,
        exploration: float = 0.15,
        test_fraction: float = 0.3,
        start_ms: float = 0.0,
        gap_ms: float = 60_000.0,
    ) -> InteractionDataset:
        """Generate one dataset.

        Args:
            population: the synthetic consumers.
            catalog: the merchandise they interact with.
            events_per_user: how many training interactions each consumer makes.
            exploration: probability an interaction targets a random item
                rather than one the consumer likes (adds noise/serendipity).
            test_fraction: fraction of each consumer's *relevant* items that is
                held out of training entirely and used as ground truth.
            start_ms / gap_ms: timestamps of the generated events.
        """
        if events_per_user <= 0:
            raise WorkloadError("events_per_user must be positive")
        if not 0.0 <= exploration <= 1.0:
            raise WorkloadError("exploration must be in [0, 1]")
        if not 0.0 < test_fraction < 1.0:
            raise WorkloadError("test_fraction must be in (0, 1)")

        items = list(catalog)
        if not items:
            raise WorkloadError("the catalogue is empty")

        train_events: List[FeedbackEvent] = []
        test_relevance: Dict[str, List[str]] = {}
        timestamp = start_ms

        for consumer in population:
            relevant = consumer.relevant_items(items)
            self._rng.shuffle(relevant)
            held_out_count = max(1, int(len(relevant) * test_fraction)) if relevant else 0
            held_out = set(relevant[:held_out_count])
            test_relevance[consumer.user_id] = sorted(held_out)

            trainable = [item for item in items if item.item_id not in held_out]
            if not trainable:
                trainable = items
            for _ in range(events_per_user):
                item = self._choose_item(consumer, trainable, exploration)
                utility = consumer.utility(item)
                kind = self._pick_behaviour(utility)
                rating = None
                if kind is InteractionKind.BUY and self._rng.random() < 0.4:
                    # Some purchases come with an explicit rating proportional
                    # to the consumer's true utility (observational + explicit).
                    rating = round(5.0 * utility, 1)
                timestamp += gap_ms
                train_events.append(
                    FeedbackEvent(
                        user_id=consumer.user_id,
                        item=item,
                        kind=kind,
                        timestamp=timestamp,
                        rating=rating,
                    )
                )

        return InteractionDataset(
            catalog=catalog,
            population=population,
            train_events=train_events,
            test_relevance=test_relevance,
            duration_ms=timestamp - start_ms,
        )
