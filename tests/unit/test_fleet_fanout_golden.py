"""Golden fan-out: one seeded fleet query per failure shape, pinned whole.

Every case builds the same seeded 4-server platform (replication factor 1,
hedging armed at the 0.75 latency percentile, 1 ms of network jitter so each
round trip draws from the network's RNG), warms a small community, shapes
the network or crashes hosts, and runs one ``query_similar`` for
``consumer-4``.  The whole :class:`~repro.ecommerce.fleet.FleetQueryResult`
(its ``repr``, so field order, dict order and every float are pinned), the
simulated clock before and after the query, and the ``fleet.fanout-query`` /
``fleet.read-repair`` event rows the query recorded must equal
:data:`GOLDEN`.  A change to the fan-out's RPC order, latency accounting,
merge, hedge or read-repair shows here.

``fleet.servers`` is ``[s0, s1, s2, s3]``; server *i* replicates to server
*i+1* (mod 4); ``consumer-4`` is served by ``s0``.  Consumers query
different keywords, so their profiles (and the merged scores) differ.
"""

import pytest

from repro.ecommerce.platform_builder import build_platform
from repro.platform.network import NetworkConfig

CONSUMERS = [f"consumer-{index}" for index in range(12)]
TARGET = "consumer-4"
PINNED_CATEGORIES = ("fleet.fanout-query", "fleet.read-repair")


def _platform():
    platform = build_platform(
        seed=7,
        num_buyer_servers=4,
        replication_factor=1,
        fleet_hedge_delay_percentile=0.75,
        network=NetworkConfig(jitter_ms=1.0),
    )
    keywords = [item.terms[0][0] for item in platform.catalog_view()]
    gateway = platform.gateway()
    for index, user_id in enumerate(CONSUMERS):
        assert gateway.login(user_id).ok
        assert gateway.query(user_id, keywords[index % 7]).ok
        hits = gateway.query(user_id, keywords[(3 * index) % 11]).result.hits
        if hits and index % 3 == 0:
            assert gateway.buy(user_id, hits[0].item, marketplace=hits[0].marketplace).ok
        assert gateway.logout(user_id).ok
    return platform


def _servers(platform):
    servers = platform.fleet.servers
    assert platform.fleet.server_for(TARGET) is servers[0]
    return servers


def _lag_stream(platform, primary, holder):
    """Give ``holder``'s replica of ``primary`` a nonzero lag: the cut stream
    misses a query (in one of the target's categories) by every consumer of
    ``primary``."""
    platform.network.cut_link(primary.name, holder.name, both_ways=False)
    keyword = list(platform.catalog_view())[4].terms[0][0]
    gateway = platform.gateway()
    lagging = [u for u in CONSUMERS if platform.fleet.server_for(u) is primary]
    assert lagging
    for user_id in lagging:
        assert gateway.login(user_id).ok
        assert gateway.query(user_id, keyword).ok
        assert gateway.logout(user_id).ok
    assert primary.replication.lag_of(holder.name) > 0


def _all_up(platform):
    pass


def _crashed_primary(platform):
    """``s2`` is down: its shard is answered by ``s3``'s replica, unrepaired."""
    platform.failures.crash_host(_servers(platform)[2].name)


def _read_repaired(platform):
    """``s1``'s replica on ``s2`` lags and ``s1``'s reply leg to ``s0`` is cut:
    ``s2`` answers stale and read-repair catches it up."""
    s0, s1, s2, _s3 = _servers(platform)
    _lag_stream(platform, s1, s2)
    platform.network.restore_link(s1.name, s2.name, both_ways=False)
    platform.network.cut_link(s1.name, s0.name, both_ways=False)


def _partitioned_primary(platform):
    """``s2`` lags behind ``s1`` and ``s1`` is partitioned from everyone:
    the stale answer carries the exact lag and read-repair cannot ship."""
    s0, s1, s2, s3 = _servers(platform)
    _lag_stream(platform, s1, s2)
    platform.failures.partition([s1.name], [s0.name, s2.name, s3.name])


def _no_live_holder(platform):
    """``s2`` and its only holder ``s3`` are down: ``s2`` is unreachable."""
    _s0, _s1, s2, s3 = _servers(platform)
    platform.failures.crash_host(s2.name)
    platform.failures.crash_host(s3.name)


def _slow_link(platform, peer, latency=40.0):
    s0 = _servers(platform)[0]
    platform.network.set_latency(s0.name, peer.name, latency)
    platform.network.set_latency(peer.name, s0.name, latency)


def _hedge_wins(platform):
    """``s1``'s links to ``s0`` are slow: the hedge to ``s2`` wins."""
    _slow_link(platform, _servers(platform)[1])


def _hedge_lost_to_cut_link(platform):
    """``s1`` is slow and its holder ``s2`` cannot reply to ``s0``: the hedge
    is launched and lost (and ``s2``'s own shard is answered by ``s3``)."""
    s0, s1, s2, _s3 = _servers(platform)
    _slow_link(platform, s1)
    platform.network.cut_link(s2.name, s0.name, both_ways=False)


def _target_owner_down(platform):
    """``s0`` itself is down: ``s1``'s replica resolves the target, asks the
    fan-out and answers ``s0``'s shard."""
    platform.failures.crash_host(_servers(platform)[0].name)


CASES = {
    "all_up": _all_up,
    "crashed_primary": _crashed_primary,
    "read_repaired": _read_repaired,
    "partitioned_primary": _partitioned_primary,
    "no_live_holder": _no_live_holder,
    "hedge_wins": _hedge_wins,
    "hedge_lost_to_cut_link": _hedge_lost_to_cut_link,
    "target_owner_down": _target_owner_down,
}


def observe(case):
    """Run ``case`` on a fresh platform; return what the golden pins."""
    platform = _platform()
    CASES[case](platform)
    log = platform.event_log
    rows_before = len(log)
    clock_before = platform.now
    result = platform.fleet.query_similar(TARGET)
    return {
        "clock": (clock_before, platform.now),
        "result": repr(result),
        "events": [
            repr(event)
            for event in log.events_since(rows_before)
            if event.category in PINNED_CATEGORIES
        ],
    }


GOLDEN = {'all_up': {'clock': (1553.3374763109325, 1564.9256984248934),
                     'result': "FleetQueryResult(neighbors=[('consumer-3', "
                               "0.6373435929669446), ('consumer-11', 0.5281656725956653), "
                               "('consumer-1', 0.519472137437485), ('consumer-5', "
                               "0.5122477061203877), ('consumer-8', 0.501270424580791), "
                               "('consumer-2', 0.3), ('consumer-6', 0.1489690599484262)], "
                               "shard_latencies_ms={'buyer-agent-server': "
                               "1.5254749455705854, 'buyer-agent-server-2': "
                               "11.58122211396088, 'buyer-agent-server-3': "
                               "11.207241632421265, 'buyer-agent-server-4': "
                               '11.509187090511197}, unreachable_shards=(), '
                               'stale_shards={}, repaired_shards=(), '
                               "hedged_shards=('buyer-agent-server-2',), "
                               'hedge_won_shards=(), latency_ms=11.58822211396088, '
                               'merge_ms=0.007)',
                     'events': ['Event(timestamp=1564.9256984248934, '
                                "category='fleet.fanout-query', "
                                "source='buyer-agent-server', target='buyer-agent-server', "
                                "payload={'user_id': 'consumer-4', 'shard_latencies': "
                                "{'buyer-agent-server': 1.5254749455705854, "
                                "'buyer-agent-server-2': 11.58122211396088, "
                                "'buyer-agent-server-3': 11.207241632421265, "
                                "'buyer-agent-server-4': 11.509187090511197}, "
                                "'unreachable': [], 'stale': {}, 'latency_ms': "
                                "11.58822211396088, 'hedged': ['buyer-agent-server-2'], "
                                "'hedge_won': []})"]},
          'crashed_primary': {'clock': (1553.3374763109325, 1564.9256984248934),
                              'result': "FleetQueryResult(neighbors=[('consumer-3', "
                                        "0.6373435929669446), ('consumer-11', "
                                        "0.5281656725956653), ('consumer-1', "
                                        "0.519472137437485), ('consumer-5', "
                                        "0.5122477061203877), ('consumer-8', "
                                        "0.501270424580791), ('consumer-2', 0.3), "
                                        "('consumer-6', 0.1489690599484262)], "
                                        "shard_latencies_ms={'buyer-agent-server': "
                                        "1.5254749455705854, 'buyer-agent-server-2': "
                                        "11.58122211396088, 'buyer-agent-server-3': "
                                        "11.207241632421265, 'buyer-agent-server-4': "
                                        '11.509187090511197}, unreachable_shards=(), '
                                        "stale_shards={'buyer-agent-server-3': 0}, "
                                        'repaired_shards=(), hedged_shards=(), '
                                        'hedge_won_shards=(), latency_ms=11.58822211396088, '
                                        'merge_ms=0.007)',
                              'events': ['Event(timestamp=1564.9256984248934, '
                                         "category='fleet.fanout-query', "
                                         "source='buyer-agent-server', "
                                         "target='buyer-agent-server', payload={'user_id': "
                                         "'consumer-4', 'shard_latencies': "
                                         "{'buyer-agent-server': 1.5254749455705854, "
                                         "'buyer-agent-server-2': 11.58122211396088, "
                                         "'buyer-agent-server-3': 11.207241632421265, "
                                         "'buyer-agent-server-4': 11.509187090511197}, "
                                         "'unreachable': [], 'stale': "
                                         "{'buyer-agent-server-3': 0}, 'latency_ms': "
                                         "11.58822211396088, 'hedged': [], 'hedge_won': "
                                         '[]})']},
          'hedge_lost_to_cut_link': {'clock': (1553.3374763109325, 1634.9256984248934),
                                     'result': "FleetQueryResult(neighbors=[('consumer-3', "
                                               "0.6373435929669446), ('consumer-11', "
                                               "0.5281656725956653), ('consumer-1', "
                                               "0.519472137437485), ('consumer-5', "
                                               "0.5122477061203877), ('consumer-8', "
                                               "0.501270424580791), ('consumer-2', 0.3), "
                                               "('consumer-6', 0.1489690599484262)], "
                                               "shard_latencies_ms={'buyer-agent-server': "
                                               "1.5254749455705854, 'buyer-agent-server-2': "
                                               "81.58122211396088, 'buyer-agent-server-3': "
                                               "10.824574850615406, 'buyer-agent-server-4': "
                                               '11.789673067406689}, unreachable_shards=(), '
                                               "stale_shards={'buyer-agent-server-3': 0}, "
                                               "repaired_shards=('buyer-agent-server-3',), "
                                               "hedged_shards=('buyer-agent-server-2',), "
                                               'hedge_won_shards=(), '
                                               'latency_ms=81.58822211396088, '
                                               'merge_ms=0.007)',
                                     'events': ['Event(timestamp=1634.9256984248934, '
                                                "category='fleet.fanout-query', "
                                                "source='buyer-agent-server', "
                                                "target='buyer-agent-server', "
                                                "payload={'user_id': 'consumer-4', "
                                                "'shard_latencies': {'buyer-agent-server': "
                                                '1.5254749455705854, '
                                                "'buyer-agent-server-2': 81.58122211396088, "
                                                "'buyer-agent-server-3': "
                                                '10.824574850615406, '
                                                "'buyer-agent-server-4': "
                                                "11.789673067406689}, 'unreachable': [], "
                                                "'stale': {'buyer-agent-server-3': 0}, "
                                                "'latency_ms': 81.58822211396088, 'hedged': "
                                                "['buyer-agent-server-2'], 'hedge_won': "
                                                '[]})',
                                                'Event(timestamp=1634.9256984248934, '
                                                "category='fleet.read-repair', "
                                                "source='buyer-agent-server-3', "
                                                "target='buyer-agent-server-4', "
                                                "payload={'lag_before': 0, 'lag_after': "
                                                '0})']},
          'hedge_wins': {'clock': (1553.3374763109325, 1593.3542751265961),
                         'result': "FleetQueryResult(neighbors=[('consumer-3', "
                                   "0.6373435929669446), ('consumer-11', "
                                   "0.5281656725956653), ('consumer-1', 0.519472137437485), "
                                   "('consumer-5', 0.5122477061203877), ('consumer-8', "
                                   "0.501270424580791), ('consumer-2', 0.3), ('consumer-6', "
                                   '0.1489690599484262)], '
                                   "shard_latencies_ms={'buyer-agent-server': "
                                   "1.5254749455705854, 'buyer-agent-server-2': "
                                   "40.00979881566367, 'buyer-agent-server-3': "
                                   "11.207241632421265, 'buyer-agent-server-4': "
                                   '11.509187090511197}, unreachable_shards=(), '
                                   'stale_shards={}, repaired_shards=(), '
                                   "hedged_shards=('buyer-agent-server-2',), "
                                   "hedge_won_shards=('buyer-agent-server-2',), "
                                   'latency_ms=40.01679881566367, merge_ms=0.007)',
                         'events': ['Event(timestamp=1593.3542751265961, '
                                    "category='fleet.fanout-query', "
                                    "source='buyer-agent-server', "
                                    "target='buyer-agent-server', payload={'user_id': "
                                    "'consumer-4', 'shard_latencies': "
                                    "{'buyer-agent-server': 1.5254749455705854, "
                                    "'buyer-agent-server-2': 40.00979881566367, "
                                    "'buyer-agent-server-3': 11.207241632421265, "
                                    "'buyer-agent-server-4': 11.509187090511197}, "
                                    "'unreachable': [], 'stale': {}, 'latency_ms': "
                                    "40.01679881566367, 'hedged': ['buyer-agent-server-2'], "
                                    "'hedge_won': ['buyer-agent-server-2']})"]},
          'no_live_holder': {'clock': (1553.3374763109325, 1564.9246984248934),
                             'result': "FleetQueryResult(neighbors=[('consumer-3', "
                                       "0.6373435929669446), ('consumer-11', "
                                       "0.5281656725956653), ('consumer-1', "
                                       "0.519472137437485), ('consumer-8', "
                                       "0.501270424580791), ('consumer-2', 0.3), "
                                       "('consumer-6', 0.1489690599484262)], "
                                       "shard_latencies_ms={'buyer-agent-server': "
                                       "1.5254749455705854, 'buyer-agent-server-2': "
                                       "11.58122211396088, 'buyer-agent-server-4': "
                                       '1.3081791324212664}, '
                                       "unreachable_shards=('buyer-agent-server-3',), "
                                       "stale_shards={'buyer-agent-server-4': 0}, "
                                       'repaired_shards=(), hedged_shards=(), '
                                       'hedge_won_shards=(), latency_ms=11.58722211396088, '
                                       'merge_ms=0.006)',
                             'events': ['Event(timestamp=1564.9246984248934, '
                                        "category='fleet.fanout-query', "
                                        "source='buyer-agent-server', "
                                        "target='buyer-agent-server', payload={'user_id': "
                                        "'consumer-4', 'shard_latencies': "
                                        "{'buyer-agent-server': 1.5254749455705854, "
                                        "'buyer-agent-server-2': 11.58122211396088, "
                                        "'buyer-agent-server-4': 1.3081791324212664}, "
                                        "'unreachable': ['buyer-agent-server-3'], 'stale': "
                                        "{'buyer-agent-server-4': 0}, 'latency_ms': "
                                        "11.58722211396088, 'hedged': [], 'hedge_won': "
                                        '[]})']},
          'partitioned_primary': {'clock': (1605.4205432830402, 1616.8873576955232),
                                  'result': "FleetQueryResult(neighbors=[('consumer-3', "
                                            "0.6373435929669446), ('consumer-11', "
                                            "0.5281656725956653), ('consumer-1', "
                                            "0.519472137437485), ('consumer-5', "
                                            "0.5122477061203877), ('consumer-8', "
                                            "0.501270424580791), ('consumer-2', 0.3), "
                                            "('consumer-6', 0.1489690599484262)], "
                                            "shard_latencies_ms={'buyer-agent-server': "
                                            "0.36469389028103216, 'buyer-agent-server-2': "
                                            "10.520132937931532, 'buyer-agent-server-3': "
                                            "10.319228275425942, 'buyer-agent-server-4': "
                                            '11.45981441248305}, unreachable_shards=(), '
                                            "stale_shards={'buyer-agent-server-2': 21}, "
                                            'repaired_shards=(), '
                                            "hedged_shards=('buyer-agent-server-4',), "
                                            'hedge_won_shards=(), '
                                            'latency_ms=11.46681441248305, merge_ms=0.007)',
                                  'events': ['Event(timestamp=1616.8873576955232, '
                                             "category='fleet.fanout-query', "
                                             "source='buyer-agent-server', "
                                             "target='buyer-agent-server', "
                                             "payload={'user_id': 'consumer-4', "
                                             "'shard_latencies': {'buyer-agent-server': "
                                             "0.36469389028103216, 'buyer-agent-server-2': "
                                             "10.520132937931532, 'buyer-agent-server-3': "
                                             "10.319228275425942, 'buyer-agent-server-4': "
                                             "11.45981441248305}, 'unreachable': [], "
                                             "'stale': {'buyer-agent-server-2': 21}, "
                                             "'latency_ms': 11.46681441248305, 'hedged': "
                                             "['buyer-agent-server-4'], 'hedge_won': []})",
                                             'Event(timestamp=1616.8873576955232, '
                                             "category='fleet.read-repair', "
                                             "source='buyer-agent-server-2', "
                                             "target='buyer-agent-server-3', "
                                             "payload={'lag_before': 21, 'lag_after': "
                                             '21})']},
          'read_repaired': {'clock': (1605.4205432830402, 1622.8908520920334),
                            'result': "FleetQueryResult(neighbors=[('consumer-3', "
                                      "0.6373435929669446), ('consumer-11', "
                                      "0.5281656725956653), ('consumer-1', "
                                      "0.519472137437485), ('consumer-5', "
                                      "0.5122477061203877), ('consumer-8', "
                                      "0.501270424580791), ('consumer-2', 0.3), "
                                      "('consumer-6', 0.1489690599484262)], "
                                      "shard_latencies_ms={'buyer-agent-server': "
                                      "0.36469389028103216, 'buyer-agent-server-2': "
                                      "10.318653608109758, 'buyer-agent-server-3': "
                                      "10.74806166228257, 'buyer-agent-server-4': "
                                      '11.687368700051922}, unreachable_shards=(), '
                                      "stale_shards={'buyer-agent-server-2': 21}, "
                                      "repaired_shards=('buyer-agent-server-2',), "
                                      "hedged_shards=('buyer-agent-server-4',), "
                                      'hedge_won_shards=(), latency_ms=11.694368700051921, '
                                      'merge_ms=0.007)',
                            'events': ['Event(timestamp=1617.114911983092, '
                                       "category='fleet.fanout-query', "
                                       "source='buyer-agent-server', "
                                       "target='buyer-agent-server', payload={'user_id': "
                                       "'consumer-4', 'shard_latencies': "
                                       "{'buyer-agent-server': 0.36469389028103216, "
                                       "'buyer-agent-server-2': 10.318653608109758, "
                                       "'buyer-agent-server-3': 10.74806166228257, "
                                       "'buyer-agent-server-4': 11.687368700051922}, "
                                       "'unreachable': [], 'stale': "
                                       "{'buyer-agent-server-2': 21}, 'latency_ms': "
                                       "11.694368700051921, 'hedged': "
                                       "['buyer-agent-server-4'], 'hedge_won': []})",
                                       'Event(timestamp=1622.8908520920334, '
                                       "category='fleet.read-repair', "
                                       "source='buyer-agent-server-2', "
                                       "target='buyer-agent-server-3', "
                                       "payload={'lag_before': 21, 'lag_after': 0})"]},
          'target_owner_down': {'clock': (1553.3374763109325, 1564.8536634014438),
                                'result': "FleetQueryResult(neighbors=[('consumer-3', "
                                          "0.6373435929669446), ('consumer-11', "
                                          "0.5281656725956653), ('consumer-1', "
                                          "0.519472137437485), ('consumer-5', "
                                          "0.5122477061203877), ('consumer-8', "
                                          "0.501270424580791), ('consumer-2', 0.3), "
                                          "('consumer-6', 0.1489690599484262)], "
                                          "shard_latencies_ms={'buyer-agent-server': "
                                          "1.5254749455705854, 'buyer-agent-server-2': "
                                          "1.6812221139608792, 'buyer-agent-server-3': "
                                          "11.207241632421265, 'buyer-agent-server-4': "
                                          '11.509187090511197}, unreachable_shards=(), '
                                          "stale_shards={'buyer-agent-server': 0}, "
                                          'repaired_shards=(), hedged_shards=(), '
                                          'hedge_won_shards=(), '
                                          'latency_ms=11.516187090511197, merge_ms=0.007)',
                                'events': ['Event(timestamp=1564.8536634014438, '
                                           "category='fleet.fanout-query', "
                                           "source='buyer-agent-server-2', "
                                           "target='buyer-agent-server-2', "
                                           "payload={'user_id': 'consumer-4', "
                                           "'shard_latencies': {'buyer-agent-server': "
                                           "1.5254749455705854, 'buyer-agent-server-2': "
                                           "1.6812221139608792, 'buyer-agent-server-3': "
                                           "11.207241632421265, 'buyer-agent-server-4': "
                                           "11.509187090511197}, 'unreachable': [], "
                                           "'stale': {'buyer-agent-server': 0}, "
                                           "'latency_ms': 11.516187090511197, 'hedged': [], "
                                           "'hedge_won': []})"]}}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fanout_matches_golden(case):
    assert observe(case) == GOLDEN[case]
