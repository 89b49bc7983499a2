"""The gateway's ``recommendations`` read is computed fresh on every request.

The buyer server asks its recommendation service each time a consumer wants
recommendations (§3.3-2), so an answer always reflects the latest profiles,
ratings and purchases.  ``RecommendationService.batch_refresh`` keeps its own
lists for the maintenance cycle; no request path reads them.  These tests pin
that split:

- every read equals a direct ``recommend`` on the consumer's server, for any
  ``k`` and category, on one server and on a fleet;
- a write through the gateway (rating, purchase) reaches the very next read,
  even while the batch cache still holds the list from before the write;
- reads leave the batch cache and its counters alone, and a workload that
  runs a batch refresh between every request answers byte for byte like one
  that never refreshes.
"""

from __future__ import annotations

import pytest

from repro.ecommerce.platform_builder import build_platform

USERS = ("fresh-u1", "fresh-u2", "fresh-u3")


def _platform(num_buyer_servers: int = 1):
    return build_platform(
        num_marketplaces=2,
        num_sellers=2,
        items_per_seller=20,
        seed=3,
        num_buyer_servers=num_buyer_servers,
    )


def _warm(gateway, platform):
    """Log every test consumer in and give them query signal; return hits."""
    keyword = next(iter(platform.catalog_view())).terms[0][0]
    hits = ()
    for user_id in USERS:
        assert gateway.login(user_id).ok
        response = gateway.query(user_id, keyword)
        assert response.ok
        hits = response.result.hits or hits
    assert hits, "the workload needs at least one purchasable query hit"
    return hits


def _service(platform, user_id):
    return platform.buyer_server_for(user_id).recommendations


def _read(gateway, user_id, k=5, category=None):
    response = gateway.recommendations(user_id, k=k, category=category)
    assert response.ok
    return [(rec.item_id, rec.score) for rec in response.result.recommendations]


def _direct(platform, user_id, k=5, category=None):
    return [
        (rec.item_id, rec.score)
        for rec in _service(platform, user_id).recommend(user_id, k=k, category=category)
    ]


def _batch_state(service):
    return (
        dict(service._batch_cache),
        service.cache_invalidations,
        service.refresh_recomputed,
        service.refresh_unchanged,
        service.refresh_revalidated,
    )


class TestReadsEqualADirectCall:
    @pytest.mark.parametrize("k", [1, 3, 5, 10])
    def test_any_k(self, k):
        platform = _platform()
        gateway = platform.gateway()
        _warm(gateway, platform)
        for user_id in USERS:
            assert _read(gateway, user_id, k=k) == _direct(platform, user_id, k=k)

    def test_with_the_category_of_the_query(self):
        platform = _platform()
        gateway = platform.gateway()
        hits = _warm(gateway, platform)
        category = hits[0].item.category
        for user_id in USERS:
            read = _read(gateway, user_id, category=category)
            assert read and read == _direct(platform, user_id, category=category)

    def test_on_a_fleet_every_consumer_reads_their_own_server(self):
        platform = _platform(num_buyer_servers=3)
        gateway = platform.gateway()
        _warm(gateway, platform)
        for user_id in USERS:
            response = gateway.recommendations(user_id, k=5)
            assert response.ok
            assert response.provenance.served_by == platform.buyer_server_for(user_id).name
            assert _read(gateway, user_id) == _direct(platform, user_id)


class TestWritesReachTheNextRead:
    def test_a_purchase_leaves_the_next_read_while_the_batch_list_keeps_it(self):
        platform = _platform()
        gateway = platform.gateway()
        hits = _warm(gateway, platform)
        user_id = USERS[0]
        service = _service(platform, user_id)
        service.batch_refresh(list(USERS), k=5)
        cached = service.cached_recommendations(user_id, k=5)
        held = {rec.item_id for rec in cached}
        target = next(hit for hit in hits if hit.item.item_id in held)

        bought = gateway.buy(user_id, target.item, marketplace=target.marketplace)
        assert bought.ok and bought.result.succeeded

        after = _read(gateway, user_id)
        assert target.item.item_id not in {item_id for item_id, _ in after}
        assert after == _direct(platform, user_id)
        # The batch list is the maintenance cycle's, untouched by the write.
        assert service.cached_recommendations(user_id, k=5) == cached

    def test_a_rating_reaches_the_next_read(self):
        platform = _platform()
        gateway = platform.gateway()
        hits = _warm(gateway, platform)
        user_id = USERS[1]
        _service(platform, user_id).batch_refresh(list(USERS), k=5)

        assert gateway.rate(user_id, hits[-1].item, 5.0).ok
        assert _read(gateway, user_id) == _direct(platform, user_id)

    def test_one_consumers_write_reads_fresh_for_every_consumer(self):
        platform = _platform()
        gateway = platform.gateway()
        hits = _warm(gateway, platform)
        assert gateway.rate(USERS[2], hits[0].item, 1.0).ok
        bought = gateway.buy(USERS[2], hits[-1].item, marketplace=hits[-1].marketplace)
        assert bought.ok
        for user_id in USERS:
            assert _read(gateway, user_id) == _direct(platform, user_id)

    def test_a_refresh_after_writes_agrees_with_the_gateway(self):
        platform = _platform()
        gateway = platform.gateway()
        hits = _warm(gateway, platform)
        service = _service(platform, USERS[0])
        service.batch_refresh(list(USERS), k=5)
        gateway.buy(USERS[0], hits[0].item, marketplace=hits[0].marketplace)
        gateway.rate(USERS[1], hits[-1].item, 4.5)

        refreshed = service.batch_refresh(list(USERS), k=5)
        for user_id in USERS:
            batch = [(rec.item_id, rec.score) for rec in refreshed[user_id]]
            assert batch == _read(gateway, user_id)


class TestTheBatchCacheIsInvisibleToReads:
    def test_reads_leave_the_batch_cache_and_its_counters_alone(self):
        platform = _platform()
        gateway = platform.gateway()
        _warm(gateway, platform)
        service = _service(platform, USERS[0])
        service.batch_refresh(list(USERS), k=5)
        before = _batch_state(service)
        for user_id in USERS:
            for k in (3, 5):
                _read(gateway, user_id, k=k)
        assert _batch_state(service) == before

    def test_a_refresh_before_the_writes_changes_no_envelope(self):
        """Two platforms on the same seed run one workload; one runs a batch
        refresh between the first reads and the writes, so its batch lists
        are stale by the last reads.  Every envelope reads the same."""
        transcripts = []
        for refresh in (False, True):
            platform = _platform()
            gateway = platform.gateway()
            keyword = next(iter(platform.catalog_view())).terms[0][0]
            responses = []
            for user_id in USERS:
                responses.append(gateway.login(user_id))
                query = gateway.query(user_id, keyword)
                responses.append(query)
                responses.append(gateway.recommendations(user_id, k=5))
            if refresh:
                _service(platform, USERS[0]).batch_refresh(list(USERS), k=5)
            hit = query.result.hits[0]
            responses.append(gateway.buy(USERS[0], hit.item, marketplace=hit.marketplace))
            responses.append(gateway.rate(USERS[1], hit.item, 2.0))
            for user_id in USERS:
                responses.append(gateway.recommendations(user_id, k=5))
            assert all(response.ok for response in responses)
            transcripts.append([repr(response) for response in responses])
        assert transcripts[0] == transcripts[1]
