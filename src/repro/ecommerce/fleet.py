"""The buyer-server fleet: routing, fan-out, failover and elastic topology.

:class:`BuyerServerFleet` is the coordinator-side view of N
:class:`~repro.ecommerce.buyer_server.BuyerAgentServer` instances, each
owning a shard of the consumer community (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import (
    ECommerceError,
    FleetUnavailableError,
    NetworkError,
)
from repro.core.recommender import Recommendation
from repro.core.shard_map import ShardMap, merge_topk, split_membership
from repro.core.similarity import SimilarityConfig
from repro.ecommerce.replication import ReplicaState, ReplicationRing
from repro.platform.clock import RecurringCallback

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ecommerce.buyer_server import BuyerAgentServer

__all__ = [
    "BuyerServerFleet",
    "FleetQueryResult",
    "FleetRefreshReport",
    "ShardSplit",
]

#: Estimated wire size of one fan-out query request (target profile summary).
FANOUT_REQUEST_BYTES = 512
#: Estimated wire size of one ``(user_id, score)`` pair in a shard response.
FANOUT_BYTES_PER_RESULT = 48
#: Simulated cost of merging one candidate during fan-out result merge.
FANOUT_MERGE_COST_PER_CANDIDATE_MS = 0.001

#: One shard's answer to a fan-out ask: its ranking and the round trip (ms).
_Answer = Tuple[List[Tuple[str, float]], float]


def _latency_percentile(ordered: List[float], fraction: float) -> float:
    """The ``fraction``-th percentile of ascending ``ordered`` latencies.

    Same monotone linear-interpolation rank the metrics registry's
    ``summarize`` uses, so a hedge delay of ``p=0.95`` means exactly what
    the reported ``p95`` means.
    """
    if not ordered:
        return 0.0
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * weight


@dataclass(frozen=True)
class FleetQueryResult:
    """One fleet-wide similar-consumer query with its fan-out accounting.

    ``neighbors`` is the exactly-merged top-k over every shard that
    responded.  ``unreachable_shards`` names the servers that could not be
    reached **and** had no live replica to answer for them; a shard whose
    primary was unreachable but whose freshest live replica answered instead
    appears in ``stale_shards`` (server name → replica lag in WAL entries
    behind the primary's log when it is still running, else 0: the answering
    replica is the freshest live copy).  Either kind of gap marks the answer
    :attr:`degraded`: correct for the reachable community, possibly stale —
    or silent — about the rest.
    """

    neighbors: List[Tuple[str, float]]
    shard_latencies_ms: Dict[str, float] = field(default_factory=dict)
    unreachable_shards: Tuple[str, ...] = ()
    stale_shards: Dict[str, int] = field(default_factory=dict)
    #: Stale-answered shards whose read-repair nudge brought the answering
    #: replica fully up to date (lag 0) immediately after the query.
    repaired_shards: Tuple[str, ...] = ()
    #: Shards a tail-latency hedge was launched against (the slowest
    #: primary-answered shard, once its round trip exceeded the fan-out's
    #: configured latency percentile); the subset whose hedge *won* — the
    #: replica answered before the slow primary would have, so the shard
    #: was charged ``delay + hedge`` instead — is in ``hedge_won_shards``.
    hedged_shards: Tuple[str, ...] = ()
    hedge_won_shards: Tuple[str, ...] = ()
    latency_ms: float = 0.0
    merge_ms: float = 0.0

    @property
    def degraded(self) -> bool:
        """True when at least one shard was answered from a replica or not at all."""
        return bool(self.unreachable_shards or self.stale_shards)


@dataclass
class FleetRefreshReport:
    """What one fleet-wide batch refresh actually covered — and what it missed.

    ``results`` maps every refreshed consumer to their new recommendation
    list.  ``skipped_consumers`` were assigned to servers that were down at
    refresh time (their lists simply go stale until the next tick).
    ``missing_consumers`` are worse: the fleet's assignment maps them to a
    *live* server that does not know them — state lost to a mid-refresh
    crash or an un-reconciled failover — reported per consumer as
    ``fleet.refresh-consumer-missing`` events (mirroring
    ``fleet.consumer-lost``) instead of silently dropped from the dict.
    """

    results: Dict[str, List[Recommendation]] = field(default_factory=dict)
    skipped_consumers: List[str] = field(default_factory=list)
    missing_consumers: List[str] = field(default_factory=list)
    skipped_servers: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True when every assigned consumer was actually refreshed."""
        return not self.skipped_consumers and not self.missing_consumers


class BuyerServerFleet:
    """N buyer agent servers each owning a shard of the consumer community.

    The paper's architecture has many buyer agent servers, each "servicing a
    consumer community" (§3.2).  The fleet is the coordinator-side view of
    that: consumers are routed to exactly one server at registration (stable
    consumer-hash placement), similar-user queries fan out to every live
    server's neighbor index and merge with :func:`repro.core.shard_map.merge_topk`
    (score-identical to one server holding everyone), and the periodic
    recommendation refresh is one scheduled event that refreshes each
    server's *currently assigned* consumers — so a consumer that migrated
    servers mid-interval is refreshed exactly once, by its new owner.

    Failure handling has one entry point, :meth:`handle_server_failure`,
    which picks its path from what it can observe.  With a live replica of
    the dead server the freshest holder is *promoted* to primary for every
    shard the dead server owned: it adopts its replica into its own live
    UserDB (:meth:`UserDB.adopt <repro.ecommerce.databases.UserDB.adopt>`),
    the shard→owner map is updated in place (**no consumer
    re-registration, no assignment churn**), the coordinator's shard map
    follows and the replication ring is retargeted around the dead host —
    zero reads against dead memory, and no per-consumer state crosses the
    network because the replica already lives on the promoted server.
    Consumers whose state never reached a live replica are reported lost,
    never resurrected empty.  Only when no live replica exists at all is
    each consumer handed to a hash-placed survivor from the dead host's
    memory (:meth:`migrate_consumer`).

    A recovered server is reconciled with :meth:`recover_server`, which
    purges the stale copies of the consumers the fleet no longer maps to it
    (their current owners keep them; at any instant exactly one server owns
    a consumer) and rejoins the replication ring.  After a promotion, shard
    ownership stays with the promoted server — the recovered host rejoins
    as replica capacity (and as a promotion target for future failures)
    rather than clawing its shard back.

    Placement is always the stable consumer hash
    (:meth:`ShardMap.base_shard <repro.core.shard_map.ShardMap.base_shard>`):
    consumers are placed at registration, before their profile has any
    categories, and the fleet never moves a consumer because their tastes
    drifted (server-level migration hands off databases, far too heavy for
    a learning tick).  Each server searches its own consumers with one
    :class:`~repro.core.neighbors.ProfileNeighborIndex`; the fleet is the
    only partitioning of the community.
    """

    def __init__(
        self,
        servers: List[BuyerAgentServer],
        coordinator=None,
        hedge_delay_percentile: Optional[float] = None,
    ) -> None:
        if not servers:
            raise ECommerceError("a buyer server fleet needs at least one server")
        self.servers = list(servers)
        self._by_name: Dict[str, BuyerAgentServer] = {s.name: s for s in self.servers}
        if len(self._by_name) != len(self.servers):
            raise ECommerceError("buyer server names must be unique within a fleet")
        #: Optional :class:`~repro.ecommerce.coordinator.CoordinatorServer`
        #: handle; when wired, promotions update the CA's shard map in place
        #: and elastic topology changes sync the versioned map to the CA.
        self.coordinator = coordinator
        #: Tail-latency hedging for :meth:`query_similar` — ``None`` (never
        #: hedge, byte-identical to the unhedged fan-out) or a percentile in
        #: ``(0, 1]`` after which the slowest shard gets a replica hedge.
        self.hedge_delay_percentile = hedge_delay_percentile
        #: The versioned single source of truth for shard → owner: one base
        #: shard per founding server (identity placement), epoch bumped on
        #: every promotion, handback and split.  Its hash placement is
        #: frozen at founding size — a consumer's base shard stays stable
        #: while the map re-cuts ownership at runtime.
        self.shard_map = ShardMap([s.name for s in self.servers])
        self.shard_map.subscribe(self._on_shard_map_change)
        #: Names of servers decommissioned by the autoscaler: still present
        #: in ``servers`` (their Host objects may be stopped) but never
        #: eligible as routing targets, replication successors or promotion
        #: candidates until re-added.
        self.retired: set = set()
        #: Replica placement policy over the two collections above (shared,
        #: not copied): crash, recovery, join and decommission all go
        #: through it.
        self.replication_ring = ReplicationRing(
            self.servers, self.retired, coordinator
        )
        self._assignment: Dict[str, int] = {}
        self._refresh_task: Optional[RecurringCallback] = None
        self.scheduled_refreshes = 0
        self.migrated_consumers = 0
        self.lost_consumers = 0
        self.promotions = 0
        self.promoted_consumers = 0
        self.handbacks = 0
        self.splits = 0
        self.transferred_consumers = 0

    # -- routing --------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self.shard_map.num_shards

    def shard_of(self, user_id: str) -> int:
        """The shard owning ``user_id``, routing it first if never seen."""
        if user_id not in self._assignment:
            self._assignment[user_id] = self._route(user_id)
        return self._assignment[user_id]

    def owner_of_shard(self, shard: int) -> BuyerAgentServer:
        """The server currently serving ``shard`` (identity until a promotion)."""
        return self._by_name[self.shard_map.owner_of(shard)]

    def shards_of(self, server: BuyerAgentServer) -> List[int]:
        """Every shard ``server`` currently serves (empty for retired hosts)."""
        return self.shard_map.shards_of(server.name)

    def _route(self, user_id: str) -> int:
        """Initial placement: stable consumer hash, descended through splits.

        The shard map gives the consumer's stable hash shard (frozen at
        founding fleet size) and then replays any splits of that shard, so a
        consumer registering mid-split lands on exactly the shard the
        migration loop would have moved them to.
        """
        shard = self.shard_map.route(user_id, self.shard_map.base_shard(user_id))
        if self._is_live(shard):
            return shard
        return self._fallback_shard(user_id, excluding=(shard,))

    def _fallback_shard(self, user_id: str, excluding: Iterable[int]) -> int:
        """A live shard for ``user_id``, skipping ``excluding``.

        Raises :class:`~repro.errors.FleetUnavailableError` when every
        candidate shard's owning server is down — the caller gets a clear
        fleet-is-down signal instead of a request silently routed to (and
        then mysteriously failing on) a dead host.
        """
        excluded = set(excluding)
        live = [
            index for index in range(self.num_shards)
            if index not in excluded and self._is_live(index)
        ]
        if not live:
            raise FleetUnavailableError(
                "every buyer agent server is down; no live shard can take the "
                "consumer"
            )
        return live[self.shard_map.base_shard(user_id) % len(live)]

    def _is_live(self, shard: int) -> bool:
        return self.owner_of_shard(shard).context.host.is_running

    def server_for(self, user_id: str) -> BuyerAgentServer:
        """The buyer agent server currently serving ``user_id``."""
        return self.owner_of_shard(self.shard_of(user_id))

    def consumers_of(self, shard: int) -> List[str]:
        """The consumers currently assigned to ``shard`` (sorted)."""
        return sorted(
            user_id for user_id, owner in self._assignment.items() if owner == shard
        )

    def consumers_served_by(self, server: BuyerAgentServer) -> List[str]:
        """The consumers across every shard ``server`` serves (sorted)."""
        shards = set(self.shards_of(server))
        return sorted(
            user_id
            for user_id, shard in self._assignment.items()
            if shard in shards
        )

    def members(self) -> List[BuyerAgentServer]:
        """The servers not retired, in fleet order."""
        return [server for server in self.servers if server.name not in self.retired]

    def _owning_servers(self) -> List[BuyerAgentServer]:
        """The servers owning a shard, in fleet order (retired hosts own none)."""
        return [server for server in self.servers if self.shards_of(server)]

    def shard_sizes(self) -> List[int]:
        sizes = [0] * self.num_shards
        for owner in self._assignment.values():
            sizes[owner] += 1
        return sizes

    # -- consumer entry points ------------------------------------------------------

    def register_consumer(self, user_id: str, display_name: str = "") -> BuyerAgentServer:
        """Register ``user_id`` with its routed server and return that server."""
        server = self.server_for(user_id)
        server.register_consumer(user_id, display_name)
        return server

    def is_registered(self, user_id: str) -> bool:
        """Whether ``user_id`` is registered with its serving server.

        When the serving server is crashed the answer comes from its live
        replicas — never from the dead host's memory (the same rule every
        failover and query path follows).
        """
        shard = self._assignment.get(user_id)
        if shard is None:
            return False
        owner = self.owner_of_shard(shard)
        if owner.context.host.is_running:
            return owner.user_db.is_registered(user_id)
        return self._replica_knowing(owner, user_id) is not None

    # -- fan-out query --------------------------------------------------------------

    def query_similar(
        self,
        user_id: str,
        category: Optional[str] = None,
        config: Optional[SimilarityConfig] = None,
    ) -> "FleetQueryResult":
        """Asynchronous fan-out: all shard RPCs dispatched at once.

        The target profile is loaded from its owning server, which then
        issues one RPC *per live server concurrently*: the simulated clock is
        charged ``max`` of the per-shard round-trip latencies (request leg +
        response leg through the network model) plus a small merge cost —
        not the sum a sequential visit would pay.  Per-shard timings land in
        ``platform.metrics`` (``fleet.fanout.shard.<server>.latency_ms``
        timers plus the ``fleet.fanout.latency_ms`` total).

        Every shard answer is one *ask*: rank the target on an index, then
        charge the round trip to whoever ranked it; a dropped RPC is no
        answer.  A primary that cannot answer — crashed host, partitioned or
        cut link, transfer dropped by the loss model — gets **quorum-aware
        degraded semantics**: its shard is asked of the *freshest* live
        replica holder instead (:meth:`_replica_answer`) and reported in
        :attr:`FleetQueryResult.stale_shards` with the replica's lag; only
        shards with no replica answer end up in
        :attr:`FleetQueryResult.unreachable_shards` (and the
        ``fleet.fanout.unreachable_shards`` counter).  Either way the
        response is marked :attr:`~FleetQueryResult.degraded` and the merge
        runs over the answers that arrived.  With every server reachable the
        merged list equals one index over the union of all UserDBs, byte for
        byte.  A target consumer whose own server is crashed is resolved
        from that server's freshest replica too — zero reads against dead
        memory.
        """
        owner = self.server_for(user_id)
        config = config or owner.recommendations.similarity_config
        if owner.context.host.is_running:
            origin, target = owner, owner.user_db.profile(user_id)
        else:
            source = self._replica_knowing(owner, user_id)
            if source is None:
                raise ECommerceError(
                    f"server {owner.name!r} is down and no live replica knows "
                    f"consumer {user_id!r}"
                )
            origin, target = source[0], source[1].db.profile(user_id)
        transport = origin.context.transport
        network = transport.network
        clock = transport.scheduler.clock

        def ask(answerer: BuyerAgentServer, index) -> Optional[_Answer]:
            ranked = index.find_similar(target, category=category, config=config)
            try:
                return ranked, network.round_trip_latency(
                    origin.name,
                    answerer.name,
                    FANOUT_REQUEST_BYTES,
                    FANOUT_BYTES_PER_RESULT * len(ranked),
                )
            except NetworkError:
                # Down link, partition or dropped transfer: the work was done
                # but the response never arrived — a timeout, not a crash.
                return None

        answers: Dict[str, List[Tuple[str, float]]] = {}
        shard_latencies: Dict[str, float] = {}
        unreachable: List[str] = []
        stale: Dict[str, int] = {}
        stale_holders: Dict[str, str] = {}
        # A server holding several shards answers for all of them in one RPC.
        for server in self._owning_servers():
            answer = None
            if server.context.host.is_running:
                answer = ask(server, server.recommendations.neighbor_index)
            if answer is None:
                # A shard whose community was handed to survivors (no replica
                # holder was live at failover time) is answered by their live
                # shards already; a holder back since would score it twice.
                served = self.consumers_served_by(server)
                holders = self.replica_holders(server) if served else []
                replica = self._replica_answer(server, holders, ask)
                if replica is None:
                    unreachable.append(server.name)
                    continue
                answer, stale[server.name], stale_holders[server.name] = replica
            answers[server.name], shard_latencies[server.name] = answer
            transport.metrics.timer(
                f"fleet.fanout.shard.{server.name}.latency_ms"
            ).record(answer[1])

        hedged: Tuple[str, ...] = ()
        hedge_won: Tuple[str, ...] = ()
        if self.hedge_delay_percentile is not None:
            hedged, won = self._hedge_slowest(ask, shard_latencies, stale)
            if won is not None:
                hedge_won = hedged
                name = hedged[0]
                (answers[name], shard_latencies[name]), lag, holder = won
                if lag > 0:
                    stale[name] = lag
                    stale_holders[name] = holder

        merge_ms = FANOUT_MERGE_COST_PER_CANDIDATE_MS * sum(
            len(ranked) for ranked in answers.values()
        )
        total_ms = max(shard_latencies.values(), default=0.0) + merge_ms
        clock.advance_by(total_ms)

        transport.metrics.counter("fleet.fanout.queries").increment()
        transport.metrics.timer("fleet.fanout.latency_ms").record(total_ms)
        if unreachable:
            transport.metrics.counter("fleet.fanout.unreachable_shards").increment(
                len(unreachable)
            )
        if stale:
            transport.metrics.counter("fleet.fanout.stale_shards").increment(
                len(stale)
            )
        # The extra hedging kwargs are recorded only when hedging is armed:
        # the default-off event payloads stay byte-identical to the
        # unhedged fan-out.
        hedge_fields = (
            {"hedged": list(hedged), "hedge_won": list(hedge_won)}
            if self.hedge_delay_percentile is not None
            else {}
        )
        transport.event_log.record(
            clock.now,
            "fleet.fanout-query",
            origin.name,
            origin.name,
            user_id=user_id,
            shard_latencies=dict(shard_latencies),
            unreachable=list(unreachable),
            stale=dict(stale),
            latency_ms=total_ms,
            **hedge_fields,
        )
        repaired = self._read_repair(stale, stale_holders, transport)
        return FleetQueryResult(
            neighbors=merge_topk(answers.values(), config.top_k),
            shard_latencies_ms=shard_latencies,
            unreachable_shards=tuple(unreachable),
            stale_shards=stale,
            repaired_shards=repaired,
            hedged_shards=hedged,
            hedge_won_shards=hedge_won,
            latency_ms=total_ms,
            merge_ms=merge_ms,
        )

    def _replica_answer(
        self,
        server: BuyerAgentServer,
        holders: List[Tuple[BuyerAgentServer, ReplicaState]],
        ask,
    ) -> Optional[Tuple[_Answer, int, str]]:
        """Ask ``server``'s shard of its freshest live holder, ``holders[0]``.

        Returns ``((ranked, latency_ms), lag, holder_name)``, or None when
        there is no holder or the network drops the round trip.  The ranking
        comes from the replica's lazily built neighbor index over its shadow
        profiles — byte-identical to a brute-force scan with the exact
        fan-out sort key (and hence, for a fully caught-up replica, to the
        primary's answer), but re-indexing only consumers the WAL touched
        since the last read.  ``lag`` is the holder's distance behind the
        primary's WAL when the primary host runs (its log is readable), else
        0: the answering holder is the freshest live copy, the best
        staleness bound reconstructable without touching dead memory.
        """
        if not holders:
            return None
        holder, state = holders[0]
        answer = ask(holder, state.neighbor_index())
        if answer is None:
            return None
        lag = 0
        if server.context.host.is_running and server.replication is not None:
            lag = server.replication.log.last_seq - state.applied_seq
        return answer, lag, holder.name

    def _hedge_slowest(
        self, ask, shard_latencies: Dict[str, float], stale: Dict[str, int]
    ) -> Tuple[Tuple[str, ...], Optional[Tuple[_Answer, int, str]]]:
        """Hedge the slowest primary-answered shard of one fan-out.

        The tail-at-scale move (Dean & Barroso): once the slowest shard's
        round trip exceeds the ``hedge_delay_percentile``-th percentile of
        this fan-out's latencies, a *hedge* — the same question, asked of
        that shard's freshest live replica holder (:meth:`_replica_answer`)
        — is launched after that percentile delay.  Whichever answer would
        arrive first is used, so the shard is charged
        ``min(primary, delay + hedge)``.  Returns the hedged shard (empty
        when nothing was hedged) and, when the hedge won, its replica answer
        with the latency already ``delay + hedge``; the caller folds it in
        like a replica-answered shard.

        Only shards answered by their *primary* are candidates — a
        stale-answered shard already came from a replica, and an
        unreachable shard has nothing to race.  A shard without a live
        holder is not hedged; a hedge whose transfer the network drops is
        hedged and lost (the primary answer stands).  The hedge RPC itself
        never advances the clock, because it runs inside the same
        concurrent fan-out window the primaries occupy.
        """
        candidates = {
            name: latency
            for name, latency in shard_latencies.items()
            if name not in stale
        }
        if len(shard_latencies) < 2 or not candidates:
            return (), None
        delay = _latency_percentile(
            sorted(shard_latencies.values()), self.hedge_delay_percentile
        )
        # Deterministic slowest pick: max latency, name order breaking ties.
        slowest = max(sorted(candidates), key=lambda name: candidates[name])
        if candidates[slowest] <= delay:
            return (), None
        server = self._by_name[slowest]
        holders = self.replica_holders(server)
        if not holders:
            return (), None
        metrics = server.context.transport.metrics
        metrics.counter("fleet.fanout.hedges").increment()
        replica = self._replica_answer(server, holders, ask)
        if replica is None:
            return (slowest,), None
        (ranked, hedge_latency), lag, holder = replica
        if delay + hedge_latency >= candidates[slowest]:
            return (slowest,), None
        metrics.counter("fleet.fanout.hedge_wins").increment()
        return (slowest,), ((ranked, delay + hedge_latency), lag, holder)

    def _read_repair(
        self,
        stale: Dict[str, int],
        stale_holders: Dict[str, str],
        transport,
    ) -> Tuple[str, ...]:
        """Nudge anti-entropy for every stale-answered shard's replica.

        A stale answer already knows which replica served it and how far
        behind it was; instead of waiting for the next scheduled
        anti-entropy tick, the query piggy-backs an immediate catch-up
        shipment from the primary to that holder
        (:meth:`~repro.ecommerce.replication.ReplicationManager.catch_up`),
        bounding staleness instead of just reporting it.  Shards whose
        holder is fully caught up afterwards (lag 0) are returned — and
        surfaced as ``repaired`` provenance.  A crashed primary cannot ship,
        so its shard stays unrepaired until failover or recovery; a
        still-partitioned link leaves the entries deferred as usual.
        """
        repaired: List[str] = []
        for primary_name, holder_name in stale_holders.items():
            primary = self._by_name[primary_name]
            manager = primary.replication
            if (
                not primary.context.host.is_running
                or manager is None
                or not any(peer.name == holder_name for peer in manager.peers)
            ):
                continue
            lag_before = stale[primary_name]
            lag_after = manager.catch_up(holder_name)
            transport.event_log.record(
                transport.scheduler.clock.now,
                "fleet.read-repair",
                primary_name,
                holder_name,
                lag_before=lag_before,
                lag_after=lag_after,
            )
            if lag_after == 0:
                repaired.append(primary_name)
                transport.metrics.counter("fleet.fanout.read_repairs").increment()
        return tuple(repaired)

    # -- scheduled fleet-wide refresh -----------------------------------------------

    def refresh_all(self, k: int = 10) -> "FleetRefreshReport":
        """Refresh every assigned consumer once, each on its serving server.

        Returns a :class:`FleetRefreshReport` rather than a bare dict:
        consumers assigned to a crashed server are reported as skipped, and
        consumers the assignment maps to a *live* server that does not know
        them — state lost to a mid-refresh crash — are reported as missing
        (``fleet.refresh-consumer-missing`` events, mirroring
        ``fleet.consumer-lost``) instead of silently dropped.
        """
        report = FleetRefreshReport()
        for server in self._owning_servers():
            self._refresh_server(server, k, report)
        return report

    def _refresh_server(
        self, server: BuyerAgentServer, k: int, report: FleetRefreshReport
    ) -> Optional[List[str]]:
        """Refresh one serving server's assigned consumers into ``report``.

        Shared by :meth:`refresh_all` and the scheduled fleet tick so the
        missing-consumer reporting cannot drift between the two paths.
        Returns the refreshed user ids, or ``None`` when the server is down
        (its consumers recorded as skipped).
        """
        transport = self.servers[0].context.transport
        assigned = self.consumers_served_by(server)
        if not server.context.host.is_running:
            report.skipped_servers.append(server.name)
            report.skipped_consumers.extend(assigned)
            return None
        users = []
        for user_id in assigned:
            if server.user_db.is_registered(user_id):
                users.append(user_id)
            else:
                report.missing_consumers.append(user_id)
                transport.event_log.record(
                    transport.scheduler.clock.now,
                    "fleet.refresh-consumer-missing",
                    server.name,
                    server.name,
                    user_id=user_id,
                )
                transport.metrics.counter("fleet.refresh.missing").increment()
        if users:
            report.results.update(server.recommendations.batch_refresh(users, k=k))
            server.batch_refreshes += 1
        return users

    def start_periodic_refresh(self, interval_ms: float, k: int = 10) -> RecurringCallback:
        """One scheduled recurring event refreshing the whole fleet.

        The assignment and shard-ownership maps are read at fire time, so
        consumers that migrated shards since the last tick are refreshed
        exactly once, by their current owner — and consumers adopted by a
        promotion failover are refreshed by the promoted server from the
        next tick on, with no re-arming required.  Each firing records one
        ``recommendation.scheduled-refresh`` event per live serving server
        with the user ids it refreshed; a retired host (every shard promoted
        away) is neither refreshed nor counted as skipped.
        """
        if interval_ms <= 0:
            raise ECommerceError("refresh interval must be positive")
        if self._refresh_task is not None and not self._refresh_task.cancelled:
            raise ECommerceError("the fleet already has a scheduled refresh")
        scheduler = self.servers[0].context.host.scheduler
        log = self.servers[0].context.transport.event_log

        def fire() -> None:
            self.scheduled_refreshes += 1
            report = FleetRefreshReport()
            for server in self._owning_servers():
                now = server.context.now
                users = self._refresh_server(server, k, report)
                if users is None:
                    server.refresh_skips += 1
                    log.record(
                        now, "recommendation.refresh-skipped",
                        server.name, server.name, reason="host-down",
                    )
                    continue
                log.record(
                    now, "recommendation.scheduled-refresh",
                    server.name, server.name,
                    consumers=len(users), user_ids=users,
                )

        self._refresh_task = scheduler.call_every(
            interval_ms, fire, label="refresh.fleet"
        )
        return self._refresh_task

    def stop_periodic_refresh(self) -> None:
        if self._refresh_task is not None:
            self._refresh_task.cancel()
            self._refresh_task = None

    # -- failure handling / rebalancing ---------------------------------------------

    def migrate_consumer(self, user_id: str, target_shard: int) -> None:
        """Move one consumer to ``target_shard`` with its full durable state.

        The per-consumer move under live splits and the no-replica failover
        hand-off.  The state crosses with :meth:`UserDB.adopt
        <repro.ecommerce.databases.UserDB.adopt>` and the source server's
        record is dropped (its provider-backed neighbor index forgets the
        consumer on next sync), so at any instant exactly one server owns
        the consumer — the invariant that makes fan-out merging and the
        no-double-refresh guarantee hold.  When both shards live on the same
        server the move is a pure re-label: an in-place split moves no bytes.
        """
        source_shard = self.shard_of(user_id)
        if source_shard == target_shard:
            return
        source = self.owner_of_shard(source_shard)
        target = self.owner_of_shard(target_shard)
        if source is not target:
            target.user_db.adopt(source.user_db, user_id)
            source.user_db.unregister(user_id)
        self._assignment[user_id] = target_shard
        self.migrated_consumers += 1

    # -- replica lookup ---------------------------------------------------------------

    def replica_holders(
        self, dead: BuyerAgentServer
    ) -> List[Tuple[BuyerAgentServer, ReplicaState]]:
        """Live servers hosting a replica of ``dead``, freshest first.

        This scans the *survivors* only: the dead server object is never
        dereferenced beyond its name, which is the whole point of
        replica-honest failover.  Replicas are exact prefixes of the
        primary's history, so ordering by ``applied_seq`` (descending;
        server order breaks ties) makes the first holder that knows a
        consumer also the one with that consumer's freshest state — with
        ``factor >= 2`` a lagging replica must never shadow a caught-up one.
        An empty list means no failover can restore ``dead``'s consumers
        without reading its memory (the gateway's retry middleware checks
        exactly this before healing a route).
        """
        holders: List[Tuple[BuyerAgentServer, ReplicaState]] = []
        for server in self.servers:
            if server is dead or not server.context.host.is_running:
                continue
            if server.replication is None:
                continue
            state = server.replication.hosted.get(dead.name)
            if state is not None:
                holders.append((server, state))
        return sorted(holders, key=lambda pair: -pair[1].applied_seq)

    def _replica_knowing(
        self, server: BuyerAgentServer, user_id: str
    ) -> Optional[Tuple[BuyerAgentServer, ReplicaState]]:
        """The freshest live ``(holder, replica)`` of ``server`` knowing ``user_id``."""
        for holder, state in self.replica_holders(server):
            if state.db.is_registered(user_id):
                return holder, state
        return None

    def handle_server_failure(
        self,
        shard: int,
        use_replicas: Optional[bool] = None,
        strategy: Optional[str] = None,
    ) -> int:
        """Fail over the server serving ``shard``; return how many consumers moved.

        The path is chosen from what the fleet can observe, never by the
        caller.  With a live replica of the dead server, the freshest
        holder is promoted (:meth:`_promote`): it adopts **every** shard the
        dead server served, in place, reading replicas only.  With none —
        an unreplicated fleet, or every holder down too — each consumer is
        handed to a hash-placed surviving shard with
        :meth:`migrate_consumer`, read from the dead host's memory because
        no other copy exists.

        Consumers absent from every live replica (registered during a
        replication outage) are counted in :attr:`lost_consumers`, recorded
        as ``fleet.consumer-lost`` events and unassigned so they can
        register afresh.

        ``use_replicas`` and ``strategy`` select nothing: they remain only
        because the frozen wall-clock benchmark passes ``None, "promote"``
        positionally, and any other value raises.
        """
        if use_replicas is not None or strategy not in (None, "promote"):
            raise ECommerceError(
                "handle_server_failure() picks its own path (promotion when a "
                "live replica exists, per-consumer hand-off otherwise); the "
                f"failover path is no longer selectable (got {use_replicas!r}, "
                f"{strategy!r})"
            )
        if not 0 <= shard < self.num_shards:
            raise ECommerceError(f"{shard} is not a fleet shard")
        dead = self.owner_of_shard(shard)
        if dead.context.host.is_running:
            raise ECommerceError(
                f"server {dead.name!r} is still running; refusing to fail it over"
            )
        holders = self.replica_holders(dead)
        if holders:
            return self._promote(dead, holders)
        shards = self.shards_of(dead)
        moved = 0
        for dead_shard in shards:
            for user_id in self.consumers_of(dead_shard):
                self.migrate_consumer(
                    user_id, self._fallback_shard(user_id, excluding=shards)
                )
                moved += 1
        return moved

    def _promote(
        self,
        dead: BuyerAgentServer,
        holders: List[Tuple[BuyerAgentServer, ReplicaState]],
    ) -> int:
        """Promote the freshest replica holder to primary for the dead server.

        The holder adopts its replica — an exact prefix of the dead
        primary's history — into its **own** live UserDB
        (:meth:`UserDB.adopt <repro.ecommerce.databases.UserDB.adopt>`), so
        its provider-backed neighbor index picks the adopted consumers up
        on the next sync and its own WAL streams their full history to its
        replica peers.  The shard→owner map (and the coordinator's shard
        map, when wired) is updated in place: assignments never change,
        nothing re-registers, and no consumer state crosses the network —
        the freshest replica already lives on the promoted server.
        Afterwards the dead primary's replication stream is retired: its
        consumed replica is discarded, its frozen ``replication.lag.*``
        gauges removed, and every survivor that replicated *to* the dead
        host is retargeted to a new live ring successor so the dead peer's
        acknowledgement stops blocking WAL truncation.
        """
        promoted, state = holders[0]
        transport = promoted.context.transport
        shards = self.shards_of(dead)

        adopted: List[str] = []
        lost: List[str] = []
        for shard in shards:
            for user_id in self.consumers_of(shard):
                if state.db.is_registered(user_id):
                    adopted.append(user_id)
                    continue
                # Never reached a live replica (replication outage tail): the
                # registration died with the host, so the consumer is
                # unassigned for a fresh registration, not resurrected empty.
                lost.append(user_id)
                del self._assignment[user_id]
                transport.event_log.record(
                    transport.scheduler.clock.now,
                    "fleet.consumer-lost",
                    dead.name,
                    dead.name,
                    user_id=user_id,
                )
        self.lost_consumers += len(lost)
        for user_id in adopted:
            promoted.user_db.adopt(state.db, user_id)

        # One atomic epoch bump for the whole takeover; the "promote" reason
        # tells the shard-map listener to skip the elastic CA sync — the
        # dedicated promote-shard message below already updates the CA, and
        # keeping that path unchanged keeps pre-elastic scenarios
        # byte-identical.
        self.shard_map.reassign(shards, promoted.name, reason="promote")
        if self.coordinator is not None:
            self.coordinator.promote_shard(dead.name, promoted.name, shards)

        # Retire the dead primary's replication stream: the consumed replica
        # goes (its state now lives in the promoted server's own UserDB and
        # streams through the promoted server's WAL), and the dead server's
        # frozen lag gauges go with it.
        if promoted.replication is not None:
            promoted.replication.discard_replica(dead.name)
        transport.metrics.remove_gauges_with_prefix(
            f"replication.lag.{dead.name}->"
        )
        self.replication_ring.retarget(dead)

        self.promotions += 1
        self.promoted_consumers += len(adopted)
        transport.event_log.record(
            transport.scheduler.clock.now,
            "fleet.failover-promotion",
            dead.name,
            promoted.name,
            shards=shards,
            adopted=len(adopted),
            lost=lost,
        )
        transport.metrics.counter("fleet.failover.promoted").increment(len(adopted))
        if lost:
            transport.metrics.counter("fleet.failover.lost").increment(len(lost))
        return len(adopted)

    def recover_server(self, server: BuyerAgentServer) -> int:
        """Reconcile a recovered server with the post-failover state.

        While the server was down its consumers were promoted or handed
        away, but failover never wrote to the dead host's memory — so on
        recovery the host still holds stale copies.  This purges every
        consumer the fleet no longer maps to this server (via the notifying
        ``UserDB.unregister``, so the recovered server's own replicas drop
        them too), rejoins the replication ring
        (:meth:`ReplicationRing.rewire
        <repro.ecommerce.replication.ReplicationRing.rewire>`) and returns
        how many consumers were purged.  The host must be running again.
        After a hand-off its shard is still its own, so new registrations
        flow to it immediately; after a promotion the shard stays with the
        promoted server and the recovered host rejoins as replica capacity
        and as a promotion target for future failures.
        """
        if server not in self.servers:
            raise ECommerceError(f"server {server.name!r} is not in this fleet")
        if not server.context.host.is_running:
            raise ECommerceError(
                f"server {server.name!r} is not running; recover the host first"
            )
        stale = [
            user_id
            for user_id in server.user_db.user_ids
            if self._assignment.get(user_id) is None
            or self.owner_of_shard(self._assignment[user_id]) is not server
        ]
        for user_id in stale:
            server.user_db.unregister(user_id)
        self.replication_ring.rewire(server)
        if stale:
            transport = server.context.transport
            transport.event_log.record(
                transport.scheduler.clock.now,
                "fleet.recovery-purge",
                server.name,
                server.name,
                purged=stale,
            )
        return len(stale)

    # -- elastic topology: handback, splitting, add/remove ----------------------------

    def _on_shard_map_change(self, shard_map: ShardMap, reason: str, shards) -> None:
        """Sync the CA's directory after an elastic epoch bump.

        Promotion bumps are excluded: the failover path already updates the
        CA through its dedicated ``promote-shard`` message, and skipping it
        here keeps every pre-elastic scenario byte-identical (no extra
        network traffic on the promotion path).
        """
        if self.coordinator is None or reason == "promote":
            return
        self.coordinator.sync_shard_map(
            shard_map.epoch,
            {shard: shard_map.owner_of(shard) for shard in shard_map.shard_ids()},
        )

    def _check_target(self, target: BuyerAgentServer) -> None:
        """Refuse a shard target that is not a running member of this fleet."""
        if self._by_name.get(target.name) is not target:
            raise ECommerceError(f"server {target.name!r} is not in this fleet")
        if target.name in self.retired:
            raise ECommerceError(f"server {target.name!r} is retired; re-add it first")
        if not target.context.host.is_running:
            raise ECommerceError(f"server {target.name!r} is not running")

    def transfer_shard(
        self, shard: int, target: BuyerAgentServer, kind: str = "handback"
    ) -> int:
        """Hand ``shard`` — every consumer on it — to ``target``, live.

        The routine-elasticity twin of promotion failover: both ends are
        healthy, so the transfer can be *clean*.  When both servers
        replicate, the source streams its WAL to the target (reusing an
        existing stream when the target is already a ring successor, else
        opening a temporary one bootstrapped from the source's snapshot), a
        synchronous catch-up drives the lag to zero, and the target adopts
        the shard's consumers out of that *replica*
        (:meth:`UserDB.adopt <repro.ecommerce.databases.UserDB.adopt>`).
        Without replication it adopts from the live source, charged to the
        network per consumer.  Ownership flips with one atomic epoch bump
        (:meth:`ShardMap.commit_migration`) only after every consumer is
        installed; until that instant the source answers every query, after
        it the target answers every query — no window where neither does.
        Returns how many consumers moved.
        """
        source = self.owner_of_shard(shard)
        self._check_target(target)
        if source is target:
            return 0
        if not source.context.host.is_running:
            raise ECommerceError(
                f"server {source.name!r} is down; use handle_server_failure() — "
                "a handback needs a live source"
            )
        self.shard_map.begin_migration(shard, kind=kind, target=target.name)
        transport = source.context.transport
        reader = source.user_db
        temp_stream = False
        replicated = (
            source.replication is not None and target.replication is not None
        )
        if replicated:
            if not any(peer is target for peer in source.replication.peers):
                source.replication.replicate_to(target)
                temp_stream = True
            source.replication.catch_up(target.name)
            reader = target.replication.hosted[source.name].db
        consumers = self.consumers_of(shard)
        for user_id in consumers:
            if not replicated:
                transport.deliver(
                    source.name, target.name, "shard-handback",
                    payload_bytes=FANOUT_REQUEST_BYTES,
                )
            target.user_db.adopt(reader, user_id)
        self.shard_map.commit_migration(shard)
        for user_id in consumers:
            source.user_db.unregister(user_id)
        if temp_stream:
            source.replication.remove_peer(target.name)
            target.replication.discard_replica(source.name)
        self.handbacks += 1
        self.transferred_consumers += len(consumers)
        self.migrated_consumers += len(consumers)
        transport.event_log.record(
            transport.scheduler.clock.now,
            "fleet.shard-handback",
            source.name,
            target.name,
            shard=shard,
            moved=len(consumers),
            epoch=self.shard_map.epoch,
        )
        transport.metrics.counter("fleet.elastic.handbacks").increment()
        transport.metrics.counter("fleet.elastic.transferred").increment(
            len(consumers)
        )
        return len(consumers)

    def split_shard(
        self, shard: int, target: Optional[BuyerAgentServer] = None
    ) -> "ShardSplit":
        """Begin splitting hot ``shard`` in two; returns the migration handle.

        A new child shard (id ``num_shards``, keeping ids dense) is created
        owned by ``target`` (default: the current owner — an in-place split
        that a later handback can move).  Membership is the deterministic
        :func:`~repro.core.shard_map.split_membership` cut over the
        consumer id, recorded in the shard map *before* any consumer moves:
        queries and new registrations route through the split from the
        first instant, while the returned :class:`ShardSplit` moves the
        existing movers one at a time — each move is atomic per consumer,
        so mid-split every consumer lives on exactly one server and fan-out
        answers stay byte-identical to a static reference fleet.
        """
        source = self.owner_of_shard(shard)
        if target is None:
            target = source
        self._check_target(target)
        if not source.context.host.is_running:
            raise ECommerceError(
                f"server {source.name!r} is down; fail it over before splitting"
            )
        split_index = len(self.shard_map.splits_of(shard))
        movers = [
            user_id
            for user_id in self.consumers_of(shard)
            if split_membership(user_id, shard, split_index)
        ]
        child = self.shard_map.begin_split(shard, owner=target.name, source=source.name)
        transport = source.context.transport
        transport.event_log.record(
            transport.scheduler.clock.now,
            "fleet.shard-split-begin",
            source.name,
            target.name,
            parent=shard,
            child=child,
            movers=len(movers),
            epoch=self.shard_map.epoch,
        )
        return ShardSplit(self, parent=shard, child=child, movers=movers)

    def add_server(self, server: BuyerAgentServer) -> None:
        """Join ``server`` to the fleet as shard-less capacity.

        The shard map's hash placement is deliberately untouched — existing
        consumers keep their base shard; the new server takes load through
        :meth:`transfer_shard` or :meth:`split_shard` (normally driven by
        the autoscaler).  Re-adding a retired server just clears its
        retirement.
        """
        if server.name in self.retired and self._by_name.get(server.name) is server:
            self.retired.discard(server.name)
            return
        if server.name in self._by_name:
            raise ECommerceError(
                f"the fleet already has a server named {server.name!r}"
            )
        self.servers.append(server)
        self._by_name[server.name] = server

    def decommission_server(self, server: BuyerAgentServer) -> None:
        """Retire ``server`` from the fleet (it must own no shards).

        Every shard must have been transferred away first — this refuses to
        orphan consumers.  The server's replication streams are unwired in
        both directions (:meth:`ReplicationRing.unwire
        <repro.ecommerce.replication.ReplicationRing.unwire>` — the same
        retargeting a crash uses, minus the crash).  The name stays known
        to the fleet so :meth:`add_server` can re-join it.
        """
        if self._by_name.get(server.name) is not server:
            raise ECommerceError(f"server {server.name!r} is not in this fleet")
        if server.name in self.retired:
            return
        owned = self.shard_map.shards_of(server.name)
        if owned:
            raise ECommerceError(
                f"server {server.name!r} still owns shards {owned}; transfer "
                "them before decommissioning"
            )
        self.retired.add(server.name)
        self.replication_ring.unwire(server)
        transport = self.servers[0].context.transport
        transport.event_log.record(
            transport.scheduler.clock.now,
            "fleet.server-decommissioned",
            server.name,
            server.name,
            epoch=self.shard_map.epoch,
        )


class ShardSplit:
    """One in-flight live split: the migration loop as a first-class handle.

    Created by :meth:`BuyerServerFleet.split_shard`, which has already
    recorded the split in the shard map (so routing is split-aware before
    any consumer moves).  The handle then moves the movers — the consumers
    the deterministic membership cut sends to the child — in caller-sized
    steps, letting scenarios interleave queries, failures and traffic with
    the migration.  :meth:`finalize` commits the child shard steady once
    every mover has landed.

    The handle survives a crash of either owner mid-split: consumer moves
    and the final commit read the *current* owners through the shard map,
    so a promotion failover between steps simply redirects the remaining
    moves to the promoted server.  Movers lost to the failover (state that
    never reached a replica) are skipped — they are already counted and
    unassigned by the failover accounting.
    """

    def __init__(
        self,
        fleet: BuyerServerFleet,
        parent: int,
        child: int,
        movers: List[str],
    ) -> None:
        self.fleet = fleet
        self.parent = parent
        self.child = child
        self.pending: List[str] = list(movers)
        self.moved: List[str] = []
        self.finalized = False

    @property
    def done(self) -> bool:
        """True when every mover has landed on the child shard."""
        return not self.pending

    def step(self, count: int = 1) -> int:
        """Move up to ``count`` pending consumers; returns how many moved."""
        if self.finalized:
            raise ECommerceError("this split is already finalized")
        stepped = 0
        while self.pending and stepped < count:
            user_id = self.pending.pop(0)
            if self.fleet._assignment.get(user_id) != self.parent:
                # Lost to a mid-split failover (already reported) or moved
                # by other machinery; nothing left to move.
                continue
            self.fleet.migrate_consumer(user_id, self.child)
            self.moved.append(user_id)
            stepped += 1
        self.fleet.transferred_consumers += stepped
        return stepped

    def run(self) -> int:
        """Move every remaining consumer and finalize; returns total moved."""
        moved = self.step(len(self.pending)) if self.pending else 0
        self.finalize()
        return moved

    def finalize(self) -> None:
        """Commit the child shard steady (requires every mover landed)."""
        if self.finalized:
            return
        if self.pending:
            raise ECommerceError(
                f"{len(self.pending)} consumers still pending; step() or run() "
                "the split to completion first"
            )
        self.fleet.shard_map.commit_migration(self.child)
        self.fleet.splits += 1
        self.finalized = True
        server = self.fleet.owner_of_shard(self.child)
        transport = server.context.transport
        transport.event_log.record(
            transport.scheduler.clock.now,
            "fleet.shard-split",
            self.fleet.shard_map.owner_of(self.parent),
            server.name,
            parent=self.parent,
            child=self.child,
            moved=len(self.moved),
            epoch=self.fleet.shard_map.epoch,
        )
        transport.metrics.counter("fleet.elastic.splits").increment()
