"""Integration tests for the merchandise query workflow (Figure 4.2)."""

import pytest

from repro.agents.lifecycle import AgletState
from repro.errors import SessionError
from repro.experiments.figures import QUERY_WORKFLOW_STEPS


@pytest.fixture
def query_run(platform):
    """Login, run one query, return (platform, session, results, events)."""
    session = platform.login("alice")
    start = len(platform.event_log)
    results = session.query("books")
    events = platform.event_log.events[start:]
    return platform, session, results, events


class TestQueryWorkflow:
    def test_query_returns_merchandise_from_marketplaces(self, query_run):
        _, _, results, _ = query_run
        assert results
        assert all(result.item.category == "books" or
                   result.item.matches_keyword("books") for result in results)
        assert {result.marketplace for result in results} <= {"marketplace-1", "marketplace-2"}

    def test_all_figure_42_steps_present_in_order(self, query_run):
        _, _, _, events = query_run
        workflow = [e.category for e in events if e.category.startswith("workflow.")]
        positions = []
        for step in QUERY_WORKFLOW_STEPS:
            assert step in workflow, f"missing workflow step {step}"
            positions.append(workflow.index(step))
        assert positions == sorted(positions), "workflow steps out of order"

    def test_bra_deactivated_while_mba_away_then_reactivated(self, query_run):
        _, _, _, events = query_run
        categories = [e.category for e in events if e.category.startswith("workflow.")]
        deactivated = categories.index("workflow.bra-deactivated")
        queried = categories.index("workflow.marketplace-queried")
        activated = categories.index("workflow.bra-activated")
        assert deactivated < queried < activated

    def test_mba_visits_every_marketplace(self, query_run):
        _, _, _, events = query_run
        visited = [
            e.target for e in events if e.category == "workflow.marketplace-queried"
        ]
        assert visited == ["marketplace-1", "marketplace-2"]

    def test_mba_authenticated_and_recorded_in_bsmdb(self, query_run):
        platform, _, _, _ = query_run
        history = platform.buyer_server.bsmdb.mba_history()
        assert len(history) == 1
        record = history[0]
        assert record.task == "query"
        assert record.returned_at is not None
        assert record.authenticated
        assert platform.buyer_server.context.auth.verified_count >= 1

    def test_mba_disposed_after_return(self, query_run):
        platform, _, _, _ = query_run
        assert platform.buyer_server.context.active_count("MBA") == 0

    def test_bra_is_active_again_after_the_query(self, query_run):
        platform, session, _, _ = query_run
        bra = platform.buyer_server.context.get_local(session.bra_id)
        assert bra.state is AgletState.ACTIVE

    def test_query_behaviour_updates_profile_and_ratings(self, query_run):
        platform, _, results, _ = query_run
        user_db = platform.buyer_server.user_db
        profile = user_db.profile("alice")
        assert profile.feedback_events > 0
        assert profile.has_category("books")
        assert user_db.ratings.has_user("alice")

    def test_recommendations_accompany_the_results(self, query_run):
        _, session, _, _ = query_run
        assert session.last_recommendations is not None

    def test_query_latency_reflects_marketplace_hops(self, query_run):
        platform, _, _, events = query_run
        workflow = [e for e in events if e.category.startswith("workflow.")]
        start = workflow[0].timestamp
        end = workflow[-1].timestamp
        # Two marketplaces, ~5ms per hop, at least 3 hops of travel.
        assert end - start >= 10.0

    def test_query_restricted_to_one_marketplace(self, platform):
        session = platform.login("bob")
        results = session.query("books", marketplaces=["marketplace-2"])
        assert all(result.marketplace == "marketplace-2" for result in results)
        session.logout()

    def test_query_requires_login(self, platform):
        from repro.ecommerce.session import ConsumerSession

        session = ConsumerSession(platform.buyer_server, "stranger")
        with pytest.raises(SessionError):
            session.query("books")

    def test_second_query_reuses_the_same_bra(self, query_run):
        platform, session, _, _ = query_run
        bra_before = session.bra_id
        session.query("electronics")
        assert session.bra_id == bra_before
        assert platform.buyer_server.context.active_count("BRA") == 1


@pytest.fixture
def community(platform):
    """Four consumers with overlapping but distinct query and purchase histories."""
    gateway = platform.gateway()
    for user, keywords, pick in (
        ("alice", ("books", "electronics"), 0),
        ("bob", ("books", "fashion"), 1),
        ("carol", ("electronics", "books"), 2),
        ("dave", ("books",), 3),
    ):
        assert gateway.login(user).ok
        for keyword in keywords:
            hit = gateway.query(user, keyword).result.hits[pick]
            assert gateway.buy(user, hit.item, marketplace=hit.marketplace).ok
        assert gateway.logout(user).ok
    return platform


class TestQueryRecommendationComposition:
    """``recommend_for_query`` serves its discoveries from the neighbour list
    it ranked with; the output must stay what the two public steps compose to."""

    @pytest.mark.parametrize("k, extra", [(10, 5), (3, 2), (1, 8)])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_equals_ranked_part_plus_public_recommend(self, community, k, extra, mixed):
        service = community.buyer_server.recommendations
        hybrid = service.hybrid
        items = service.catalog.in_category("books")[:6]
        if mixed:
            items = items[:3] + service.catalog.in_category("electronics")[:3]
        category = None if mixed else "books"
        for user in ("alice", "bob", "carol", "dave", "newcomer"):
            ranked = hybrid.recommend_for_query(user, items, k=k, extra=0)
            assert [rec.reason for rec in ranked] == ["ranked query result"] * min(k, 6)
            already = {rec.item_id for rec in ranked} | {item.item_id for item in items}
            discoveries = hybrid.recommend(user, k=extra, category=category, exclude=already)
            assert hybrid.recommend_for_query(user, items, k=k, extra=extra) == ranked + discoveries
        assert hybrid.recommend("alice", k=extra, category=category)

    def test_one_neighbour_lookup_per_query(self, community):
        service = community.buyer_server.recommendations
        index = service.neighbor_index
        gateway = community.gateway()
        assert gateway.login("alice").ok
        before = index.queries
        assert gateway.query("alice", "books").result.hits
        assert index.queries == before + 1
