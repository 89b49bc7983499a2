"""One function per experiment id of :mod:`repro.experiments` (FIG-3.1 … CAP-4).

Every function builds what it needs (platform and/or dataset), runs the
experiment deterministically and returns an
:class:`~repro.experiments.harness.ExperimentResult` whose rows are exactly
what the corresponding benchmark and ``python -m repro.experiments`` print.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import metrics as quality_metrics
from repro.core.profile import Profile
from repro.core.profile_learning import LearningConfig, ProfileLearner
from repro.core.similarity import SimilarityConfig, find_similar_users, profile_similarity
from repro.ecommerce.platform_builder import ECommercePlatform, PlatformConfig, build_platform
from repro.experiments.harness import (
    ExperimentResult,
    build_standard_dataset,
    build_standard_recommenders,
    evaluate_recommenders,
)
from repro.workload.consumers import ConsumerPopulation
from repro.workload.generator import InteractionGenerator
from repro.workload.products import ProductGenerator
from repro.workload.scenarios import ScenarioRunner

__all__ = [
    "fig31_platform_architecture",
    "fig32_mechanism_concurrency",
    "fig41_creation_protocol",
    "fig42_query_workflow",
    "fig43_buy_auction_workflow",
    "fig45_profile_learning",
    "fig45_similarity_scaling",
    "cap2_multi_marketplace",
    "cap4_recommendation_quality",
    "cap4_cold_start",
    "ablation_similarity_mix",
]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _paired_latencies(platform: ECommercePlatform, start: str, end: str) -> List[float]:
    """Latency between successive ``start``/``end`` events in the global log."""
    latencies: List[float] = []
    pending: List[float] = []
    for event in platform.event_log:
        if event.category == start:
            pending.append(event.timestamp)
        elif event.category == end and pending:
            latencies.append(event.timestamp - pending.pop(0))
    return latencies


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# FIG-3.1 — platform architecture end-to-end
# ---------------------------------------------------------------------------


def fig31_platform_architecture(
    marketplace_counts: Sequence[int] = (1, 2, 4),
    consumers: int = 6,
    seed: int = 3,
) -> ExperimentResult:
    """End-to-end trading across the assembled platform (Figure 3.1).

    For each platform size the same small consumer population trades through
    the full agent pipeline; the rows report how much work completed and the
    mean simulated latency of a merchandise query.
    """
    result = ExperimentResult(
        name="FIG-3.1 platform architecture",
        description="end-to-end trading with all four server roles wired together",
    )
    for count in marketplace_counts:
        platform = build_platform(
            num_marketplaces=count, num_sellers=max(2, count), items_per_seller=20, seed=seed
        )
        population = ConsumerPopulation(consumers, groups=3, seed=seed + 1)
        runner = ScenarioRunner(platform, population, seed=seed + 2)
        report = runner.warm_up(sessions_per_consumer=1, queries_per_session=2)
        query_latencies = _paired_latencies(
            platform, "workflow.query-received", "workflow.query-completed"
        )
        result.add_row(
            marketplaces=count,
            consumers=report.consumers,
            queries=report.queries,
            purchases=report.purchases,
            auctions=report.auctions,
            negotiations=report.negotiations,
            mean_query_latency_ms=_mean(query_latencies),
            network_transfers=platform.network.total_transfers,
        )
    result.add_note(
        "query latency grows with marketplace count because the MBA visits each "
        "marketplace serially (see CAP-2 for the coverage it buys)"
    )
    return result


# ---------------------------------------------------------------------------
# FIG-3.2 — recommendation mechanism under concurrent consumers
# ---------------------------------------------------------------------------


def fig32_mechanism_concurrency(
    consumer_counts: Sequence[int] = (5, 10, 20),
    seed: int = 5,
) -> ExperimentResult:
    """Throughput of the buyer agent server as the consumer community grows."""
    result = ExperimentResult(
        name="FIG-3.2 recommendation mechanism",
        description="BSMA/HttpA/PA/BRA/MBA serving a growing consumer community",
    )
    for count in consumer_counts:
        platform = build_platform(num_marketplaces=2, num_sellers=2,
                                  items_per_seller=25, seed=seed)
        population = ConsumerPopulation(count, groups=4, seed=seed + 1)
        runner = ScenarioRunner(platform, population, seed=seed + 2)
        report = runner.warm_up(sessions_per_consumer=1, queries_per_session=2)
        session_latencies = _paired_latencies(
            platform, "http.request-received", "http.reply-sent"
        )
        result.add_row(
            consumers=count,
            sessions=report.sessions,
            queries=report.queries,
            trades=report.purchases + report.auctions + report.negotiations,
            simulated_duration_ms=report.simulated_duration_ms,
            mean_request_latency_ms=_mean(session_latencies),
            duration_per_consumer_ms=(
                report.simulated_duration_ms / count if count else 0.0
            ),
        )
    result.add_note(
        "per-consumer simulated cost stays roughly flat: sessions are independent "
        "and the mechanism scales by adding BRAs (capability claim 1 of §5.1)"
    )
    return result


# ---------------------------------------------------------------------------
# FIG-4.1 — creation of the recommendation mechanism
# ---------------------------------------------------------------------------

#: The protocol steps of Figure 4.1, in the order they must appear.
CREATION_PROTOCOL_STEPS: Tuple[str, ...] = (
    "creation.request-buyer-server",
    "creation.bsma-created",
    "creation.databases-initialized",
    "creation.pa-created",
    "creation.httpa-created",
    "creation.buyer-server-ready",
    "creation.bsma-dispatched",
)


def fig41_creation_protocol(repeats: int = 3, seed: int = 9) -> ExperimentResult:
    """Bootstrap protocol of the recommendation mechanism (Figure 4.1)."""
    result = ExperimentResult(
        name="FIG-4.1 creation of the recommendation mechanism",
        description="CA creates and dispatches the BSMA; BSMA creates PA, HttpA and the databases",
    )
    for attempt in range(repeats):
        platform = build_platform(num_marketplaces=2, num_sellers=2,
                                  items_per_seller=10, seed=seed + attempt)
        creation_events = [
            event for event in platform.event_log if event.category.startswith("creation.")
        ]
        categories = [event.category for event in creation_events]
        start = min(event.timestamp for event in creation_events)
        end = max(event.timestamp for event in creation_events)
        result.add_row(
            attempt=attempt + 1,
            steps_observed=len(categories),
            all_steps_present=all(step in categories for step in CREATION_PROTOCOL_STEPS),
            bootstrap_latency_ms=end - start,
            marketplaces_registered=len(platform.buyer_server.bsmdb.marketplaces),
        )
    result.add_note("every bootstrap run performs the full 6-step protocol of Figure 4.1")
    return result


# ---------------------------------------------------------------------------
# FIG-4.2 — merchandise query workflow
# ---------------------------------------------------------------------------

#: The workflow steps of Figure 4.2 as recorded in the event log, in order.
QUERY_WORKFLOW_STEPS: Tuple[str, ...] = (
    "workflow.query-received",
    "workflow.mba-created",
    "workflow.mba-recorded",
    "workflow.bra-deactivated",
    "workflow.mba-dispatched",
    "workflow.marketplace-queried",
    "workflow.mba-returned",
    "workflow.mba-authenticated",
    "workflow.bra-activated",
    "workflow.behaviour-reported",
    "workflow.recommendations-generated",
    "workflow.query-completed",
)


def fig42_query_workflow(seed: int = 13, keyword: str = "laptop") -> ExperimentResult:
    """Step-by-step trace and latency breakdown of one merchandise query."""
    platform = build_platform(num_marketplaces=2, num_sellers=2,
                              items_per_seller=25, seed=seed)
    gateway = platform.gateway()
    gateway.login("fig42-consumer")
    start_index = len(platform.event_log)
    gateway.query("fig42-consumer", keyword)
    gateway.logout("fig42-consumer")

    events = platform.event_log.events_since(start_index)
    workflow = [event for event in events if event.category.startswith("workflow.")]
    result = ExperimentResult(
        name="FIG-4.2 merchandise query workflow",
        description=f"one consumer query for {keyword!r} across 2 marketplaces",
    )
    previous = workflow[0].timestamp if workflow else 0.0
    for index, event in enumerate(workflow, start=1):
        result.add_row(
            step=index,
            category=event.category,
            source=event.source,
            target=event.target,
            at_ms=event.timestamp,
            delta_ms=event.timestamp - previous,
        )
        previous = event.timestamp
    observed = [event.category for event in workflow]
    missing = [step for step in QUERY_WORKFLOW_STEPS if step not in observed]
    result.add_note(
        "all Figure 4.2 steps observed" if not missing else f"missing steps: {missing}"
    )
    return result


# ---------------------------------------------------------------------------
# FIG-4.3 — buy / auction workflow
# ---------------------------------------------------------------------------

TRADE_WORKFLOW_STEPS: Tuple[str, ...] = (
    "workflow.trade-received",
    "workflow.mba-created",
    "workflow.mba-recorded",
    "workflow.bra-deactivated",
    "workflow.mba-dispatched",
    "workflow.trade-executed",
    "workflow.mba-returned",
    "workflow.mba-authenticated",
    "workflow.bra-activated",
    "workflow.behaviour-reported",
    "workflow.trade-completed",
)


def fig43_buy_auction_workflow(seed: int = 17) -> ExperimentResult:
    """Direct purchase, auction and negotiation through the Figure 4.3 workflow."""
    platform = build_platform(num_marketplaces=2, num_sellers=2,
                              items_per_seller=25, seed=seed)
    gateway = platform.gateway()
    gateway.login("fig43-consumer")
    hits = (
        gateway.query("fig43-consumer", "laptop").result.hits
        or gateway.query("fig43-consumer", "novel").result.hits
    )
    if not hits:
        hits = gateway.query("fig43-consumer", "coffee").result.hits
    target = hits[0]

    result = ExperimentResult(
        name="FIG-4.3 buy / auction workflow",
        description="the three trade styles for the same merchandise item",
    )

    def run_trade(label: str, action) -> None:
        start_index = len(platform.event_log)
        outcome = action().result
        events = platform.event_log.events_since(start_index)
        workflow = [e.category for e in events if e.category.startswith("workflow.")]
        latencies = [e.timestamp for e in events if e.category.startswith("workflow.")]
        result.add_row(
            trade=label,
            succeeded=outcome.succeeded,
            price_paid=outcome.price_paid if outcome.price_paid is not None else 0.0,
            list_price=target.price,
            workflow_steps=len(workflow),
            all_steps_present=all(step in workflow for step in TRADE_WORKFLOW_STEPS),
            latency_ms=(latencies[-1] - latencies[0]) if latencies else 0.0,
        )

    run_trade(
        "direct-buy",
        lambda: gateway.buy(
            "fig43-consumer", target.item, marketplace=target.marketplace
        ),
    )
    run_trade(
        "auction",
        lambda: gateway.join_auction(
            "fig43-consumer", target.item, max_price=target.price * 1.25,
            marketplace=target.marketplace,
        ),
    )
    run_trade(
        "negotiation",
        lambda: gateway.negotiate(
            "fig43-consumer", target.item, max_price=target.price * 0.95,
            marketplace=target.marketplace,
        ),
    )
    gateway.logout("fig43-consumer")
    result.add_note(
        "auction and negotiation settle below or near list price; the profile is "
        "updated after every trade (Figure 4.3 step 'behaviour-reported')"
    )
    return result


# ---------------------------------------------------------------------------
# FIG-4.5 — profile learning and similarity
# ---------------------------------------------------------------------------


def fig45_profile_learning(
    event_counts: Sequence[int] = (5, 10, 20, 40, 80),
    learning_rates: Sequence[float] = (0.1, 0.3, 0.6),
    seed: int = 21,
) -> ExperimentResult:
    """Convergence of the Figure 4.5 learning rule towards the true tastes.

    For each (events, α) pair a consumer's profile is learned from that many
    behaviour events and the learned per-category preferences are rank-
    correlated with the consumer's hidden category weights.
    """
    import random as _random

    from repro.core.items import ItemCatalogView
    from repro.core.profile_learning import FeedbackEvent
    from repro.core.ratings import InteractionKind

    products = ProductGenerator(seed=seed)
    catalog = ItemCatalogView(products.generate(120, seller="fig45"))
    population = ConsumerPopulation(8, groups=4, seed=seed + 1)
    result = ExperimentResult(
        name="FIG-4.5 profile learning convergence",
        description="rank correlation of learned category preferences vs. true latent tastes",
    )
    from repro.core.similarity import cosine_similarity as _cosine

    items = list(catalog)
    for alpha in learning_rates:
        for count in event_counts:
            correlations = []
            alignments = []
            for consumer_index, consumer in enumerate(population):
                # The consumer's behaviour: items drawn with probability
                # proportional to its hidden utility (plus a small floor so
                # every category is occasionally browsed).
                rng = _random.Random(seed * 1000 + consumer_index)
                weights = [max(consumer.utility(item), 0.02) for item in items]
                learner = ProfileLearner(LearningConfig(learning_rate=alpha))
                profile = Profile(consumer.user_id)
                for index in range(count):
                    item = rng.choices(items, weights=weights, k=1)[0]
                    kind = (
                        InteractionKind.BUY
                        if consumer.finds_relevant(item)
                        else InteractionKind.QUERY
                    )
                    learner.apply(
                        profile,
                        FeedbackEvent(
                            user_id=consumer.user_id, item=item, kind=kind,
                            timestamp=float(index),
                        ),
                    )
                learned = profile.preference_vector()
                correlations.append(
                    quality_metrics.spearman_rank_correlation(
                        learned, consumer.category_weights
                    )
                )
                alignments.append(_cosine(learned, consumer.category_weights))
            result.add_row(
                learning_rate=alpha,
                events=count,
                mean_taste_alignment=_mean(alignments),
                mean_rank_correlation=_mean(correlations),
            )
    result.add_note(
        "taste alignment (cosine of learned vs. true category preferences) rises "
        "monotonically with more feedback events; the learning rate mostly changes "
        "how fast term weights grow, not the final ranking"
    )
    return result


def fig45_similarity_scaling(
    population_sizes: Sequence[int] = (20, 50, 100, 200),
    seed: int = 23,
) -> ExperimentResult:
    """Similar-user search over growing UserDB populations (Figure 4.5)."""
    result = ExperimentResult(
        name="FIG-4.5 similarity search",
        description="finding the top-10 similar consumers as the community grows",
    )
    groups = 4
    for size in population_sizes:
        dataset = build_standard_dataset(
            num_consumers=size, num_items=120, events_per_user=20, groups=groups, seed=seed
        )
        profiles = dataset.build_profiles()
        target_id = dataset.users[0]
        target = profiles[target_id]
        target_group = dataset.population.consumer(target_id).group
        # Ask for exactly as many neighbours as there are same-group peers, so
        # a perfect similarity algorithm would score 1.0 on the fraction below.
        same_group_peers = max(1, size // groups - 1)
        config = SimilarityConfig(top_k=same_group_peers)
        neighbours = find_similar_users(target, profiles.values(), config)
        same_group = sum(
            1 for neighbour_id, _ in neighbours
            if dataset.population.consumer(neighbour_id).group == target_group
        )
        result.add_row(
            consumers=size,
            neighbours_found=len(neighbours),
            top_similarity=neighbours[0][1] if neighbours else 0.0,
            same_taste_group_fraction=(same_group / len(neighbours)) if neighbours else 0.0,
            random_baseline_fraction=same_group_peers / max(1, size - 1),
        )
    result.add_note(
        "the similarity algorithm predominantly surfaces consumers from the same "
        "latent taste group, which is what makes the merged recommendations relevant"
    )
    return result


# ---------------------------------------------------------------------------
# CAP-2 — multi-marketplace information gathering
# ---------------------------------------------------------------------------


def cap2_multi_marketplace(
    marketplace_counts: Sequence[int] = (1, 2, 3, 4),
    seed: int = 27,
) -> ExperimentResult:
    """Coverage and cost of visiting more marketplaces with one MBA (§5.1-3)."""
    result = ExperimentResult(
        name="CAP-2 multi-marketplace collection",
        description="one query itinerary over an increasing number of marketplaces",
    )
    for count in marketplace_counts:
        platform = build_platform(
            num_marketplaces=count, num_sellers=count, items_per_seller=20,
            seed=seed, replicate_listings=False,
        )
        gateway = platform.gateway()
        gateway.login("cap2-consumer")
        # Query by category keyword so every marketplace has something to offer;
        # listings are spread round-robin, so coverage depends on the itinerary.
        response = gateway.query("cap2-consumer", "books")
        results = response.result.hits
        latency = response.latency_ms
        marketplaces_seen = {hit.marketplace for hit in results}
        gateway.logout("cap2-consumer")
        result.add_row(
            marketplaces=count,
            items_found=len(results),
            marketplaces_with_hits=len(marketplaces_seen),
            query_latency_ms=latency,
            latency_per_marketplace_ms=latency / count,
        )
    result.add_note(
        "coverage grows with the itinerary length while the per-marketplace cost "
        "stays flat: the agent travels instead of the consumer browsing each site (§1)"
    )
    return result


# ---------------------------------------------------------------------------
# CAP-4 — recommendation quality vs. baselines
# ---------------------------------------------------------------------------


def cap4_recommendation_quality(
    k: int = 10,
    num_consumers: int = 60,
    events_per_user: int = 40,
    seed: int = 31,
) -> ExperimentResult:
    """The paper's mechanism against the §2.3 baselines on the standard dataset."""
    dataset = build_standard_dataset(
        num_consumers=num_consumers, events_per_user=events_per_user, seed=seed
    )
    recommenders = build_standard_recommenders(dataset)
    rows = evaluate_recommenders(dataset, recommenders, k=k)
    result = ExperimentResult(
        name="CAP-4 recommendation quality",
        description=f"precision/recall@{k} of the agent mechanism vs. IF, CF and popularity",
        rows=rows,
    )
    result.add_note(
        "expected shape: agent-hybrid >= collaborative-filtering and "
        "information-filtering individually, all >> popularity"
    )
    return result


def cap4_cold_start(
    events_schedule: Sequence[int] = (2, 5, 10, 20, 40),
    k: int = 10,
    num_consumers: int = 40,
    seed: int = 37,
) -> ExperimentResult:
    """Cold-start / sparsity sweep (§2.3): quality vs. behaviour volume."""
    result = ExperimentResult(
        name="CAP-4 cold-start sweep",
        description="hybrid vs. pure CF as the amount of observed behaviour shrinks",
    )
    for events in events_schedule:
        dataset = build_standard_dataset(
            num_consumers=num_consumers, events_per_user=events, seed=seed
        )
        recommenders = build_standard_recommenders(dataset)
        rows = evaluate_recommenders(dataset, recommenders, k=k)
        by_name = {row["recommender"]: row for row in rows}
        result.add_row(
            events_per_user=events,
            sparsity=dataset.build_ratings().sparsity(),
            **{
                f"{name}-f1@{k}": by_name[name][f"f1@{k}"]
                for name in ("agent-hybrid", "collaborative-filtering",
                             "information-filtering", "popularity")
            },
        )
    result.add_note(
        "with very few events the pure CF engine collapses (sparsity problem) "
        "while the hybrid keeps working off the consumer's own profile"
    )
    return result


# ---------------------------------------------------------------------------
# Ablation — similarity configuration
# ---------------------------------------------------------------------------


def ablation_similarity_mix(
    mixes: Sequence[Tuple[float, float]] = ((1.0, 0.0), (0.6, 0.4), (0.4, 0.6), (0.0, 1.0)),
    tolerances: Sequence[float] = (0.5, 2.0, 10.0),
    k: int = 10,
    seed: int = 41,
) -> ExperimentResult:
    """Ablation of the similarity algorithm's weights and discard tolerance.

    The discard rule only participates when the consumer is shopping in a
    specific category (the Figure 4.2 situation), so the evaluation asks each
    recommender for recommendations within the consumer's favourite category.
    """
    dataset = build_standard_dataset(num_consumers=40, events_per_user=15, seed=seed)
    population = dataset.population

    def favourite_category(user_id: str) -> str:
        return population.consumer(user_id).top_categories(1)[0]

    result = ExperimentResult(
        name="ABLATION similarity configuration",
        description="preference-vs-term weighting and the Figure 4.5 discard tolerance",
    )
    for preference_weight, term_weight in mixes:
        for tolerance in tolerances:
            config = SimilarityConfig(
                preference_weight=preference_weight,
                term_weight=term_weight,
                discard_tolerance=tolerance,
            )
            recommenders = build_standard_recommenders(dataset, similarity_config=config)
            rows = evaluate_recommenders(
                dataset, {"agent-hybrid": recommenders["agent-hybrid"]}, k=k,
                category_for_user=favourite_category,
            )
            result.add_row(
                preference_weight=preference_weight,
                term_weight=term_weight,
                discard_tolerance=tolerance,
                **{key: value for key, value in rows[0].items() if key != "recommender"},
            )
    result.add_note(
        "the mixed similarity is at least as good as either extreme; an overly "
        "tight discard tolerance removes useful neighbours and costs quality"
    )
    return result
