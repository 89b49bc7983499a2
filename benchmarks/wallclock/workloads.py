"""The five gateway workloads of the wall-clock ledger.

Every workload drives the public ``PlatformGateway`` / ``BuyerServerFleet``
surface of a default-configured platform (4 buyer servers and
``replication_factor=1`` are the only fleet overrides; ``scoring_backend``
stays at its default because the benchmark measures what users get).  All
randomness is spent in :meth:`Workload.inputs`, from the seed, before any
clock is read: the timed loop holds only program calls and clock reads.

A workload is a sequence of *rounds* (a session, a batch of scheduler steps,
a maintenance cycle).  The first :attr:`Workload.fixed_rounds` rounds are a
fixed-count phase — it fills lazy indexes and caches, and because its work
does not depend on the machine's speed it is where the repeat-exactly
numbers (status digest, registry counts, simulated time) are read.  The
timed phase then cycles through the pre-generated rounds until the clock
runs out.  The simulator has no wall-time concurrency, so every workload is
a closed loop with one client in wall time; ``overload_submit`` is open-loop
in *virtual* time only.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro import build_platform
from repro.api.requests import (
    AuctionRequest,
    BuyRequest,
    FindSimilarRequest,
    LoginRequest,
    LogoutRequest,
    NegotiateRequest,
    QueryRequest,
    RateRequest,
    RecommendationsRequest,
)
from repro.workload.arrivals import PoissonArrivals, ThinkTime
from repro.workload.consumers import ConsumerPopulation, SyntheticConsumer

__all__ = ["Workload", "WORKLOADS", "FLEET", "DEPLOYMENT_SEED"]

#: The only overrides of the default ``PlatformConfig`` every workload shares.
FLEET = {"num_buyer_servers": 4, "replication_factor": 1}
#: The deployment — catalogue, marketplaces, consumers and the ratings that
#: warm them — is the same on every run; ``--seed`` draws the traffic (who
#: logs in, what they search for, ratings, think times, arrival offsets).
#: A catalogue per seed moved ``browse`` throughput by +-7 % seed to seed,
#: which is a difference between deployments, not between runs.
DEPLOYMENT_SEED = 1


def _scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(count * scale)))


class Workload:
    """One seeded workload; subclasses fill in inputs, set-up and a round.

    Why each one exists is recorded in ``BENCHMARK.json`` and ``README.md``.
    """

    name = ""
    #: Operation kinds; a recorded operation carries an index into this.
    kinds: Tuple[str, ...] = ()
    #: Kinds whose latency is reported as ``latency_p50_ms``/``latency_p95_ms``.
    headline: Tuple[str, ...] = ()
    #: Envelope statuses that are not errors on this workload.
    expected: Tuple[str, ...] = ("ok",)
    #: Population and fixed-phase length at scale 1.
    consumers = 0
    fixed_rounds = 0
    #: ``peak_rss_mb`` is read once the timed phase has completed this many
    #: operations (about 40 % of what the reference box completes), so a
    #: faster program is not charged for the extra traffic it gets through.
    rss_ops = 0
    #: Run ``InvariantAuditor.audit`` when the run ends.
    audit = False
    overrides: Dict[str, Any] = {}

    def inputs(self, seed: int, scale: float) -> SimpleNamespace:
        raise NotImplementedError

    def setup(self, inputs: SimpleNamespace, tick: Callable[[], None]) -> SimpleNamespace:
        """Build the platform and its population; timed as ``setup_s``.

        ``tick`` is called between pieces of the work so the harness can
        sample the machine's speed while set-up runs.
        """
        raise NotImplementedError

    def round(self, state: SimpleNamespace, index: int, rec: Any) -> bool:
        """Run round ``index`` through ``rec``; False when no work is left."""
        raise NotImplementedError

    def after_round(self, state: SimpleNamespace) -> List[str]:
        """Untimed per-round checks; returns failure descriptions."""
        return []

    # -- shared set-up pieces ------------------------------------------------

    def _platform(self) -> SimpleNamespace:
        platform = build_platform(seed=DEPLOYMENT_SEED, **FLEET, **self.overrides)
        gateway = platform.gateway()
        fleet = platform.fleet
        servers = list(fleet.servers)

        def pump() -> None:
            # Fires the scheduled anti-entropy (and WAL truncation) tasks as
            # simulated time passes, as every scenario loop in the repo does.
            platform.scheduler.run_until(platform.now)

        return SimpleNamespace(
            platform=platform, gateway=gateway, fleet=fleet, servers=servers, pump=pump
        )


def _population(seed: int, size: int) -> SimpleNamespace:
    """The deployment's consumers and warming ratings, and the traffic's ``rng``."""
    deployment = random.Random(DEPLOYMENT_SEED)
    consumers = ConsumerPopulation(size, seed=DEPLOYMENT_SEED).consumers()
    # The catalogue is a pure function of the seed; a throwaway platform is
    # the public way to read it.
    items = list(build_platform(seed=DEPLOYMENT_SEED).catalog_view())
    warm = []
    for consumer in consumers:
        sample = deployment.sample(items, min(12, len(items)))
        sample.sort(key=lambda item: (-consumer.utility(item), item.item_id))
        warm.append(
            [
                RateRequest(consumer.user_id, item, round(5.0 * consumer.utility(item), 1))
                for item in sample[:3]
            ]
        )
    return SimpleNamespace(rng=random.Random(seed), consumers=consumers, warm=warm)


def _warm(gateway: Any, inputs: SimpleNamespace, tick: Callable[[], None]) -> None:
    """Register and warm every consumer through the gateway."""
    execute = gateway.execute
    for consumer, ratings in zip(inputs.consumers, inputs.warm):
        tick()
        user = consumer.user_id
        responses = [execute(LoginRequest(user))]
        responses += [execute(rating) for rating in ratings]
        responses.append(execute(LogoutRequest(user)))
        for response in responses:
            if response.status != "ok":
                raise RuntimeError(f"set-up request failed: {response.describe()}")


def _keywords(consumer: SyntheticConsumer, rng: random.Random, count: int) -> List[str]:
    return [consumer.preferred_keyword(rng) for _ in range(count)]


class Browse(Workload):
    name = "browse"
    kinds = ("login", "query", "recommendations", "logout")
    headline = ("query",)
    consumers = 1500
    fixed_rounds = 40
    rss_ops = 1600

    def inputs(self, seed: int, scale: float) -> SimpleNamespace:
        inputs = _population(seed, _scaled(self.consumers, scale, 8))
        rng = inputs.rng
        inputs.sessions = []
        for _ in range(_scaled(600, scale, 8)):
            consumer = rng.choice(inputs.consumers)
            user = consumer.user_id
            inputs.sessions.append(
                (
                    LoginRequest(user),
                    [QueryRequest(user, keyword) for keyword in _keywords(consumer, rng, 3)],
                    RecommendationsRequest(user, 10),
                    LogoutRequest(user),
                )
            )
        return inputs

    def setup(self, inputs: SimpleNamespace, tick: Callable[[], None]) -> SimpleNamespace:
        state = self._platform()
        _warm(state.gateway, inputs, tick)
        state.sessions = inputs.sessions
        return state

    def round(self, state: SimpleNamespace, index: int, rec: Any) -> bool:
        login, queries, recommendations, logout = state.sessions[index % len(state.sessions)]
        execute = state.gateway.execute
        rec.request(0, execute, login)
        for query in queries:
            rec.request(1, execute, query)
        rec.request(2, execute, recommendations)
        rec.request(3, execute, logout)
        rec.aux(state.pump)
        return True


class Trade(Workload):
    name = "trade"
    kinds = ("login", "query", "buy", "join_auction", "negotiate", "rate", "logout")
    headline = ("buy", "join_auction", "negotiate")
    consumers = 800
    fixed_rounds = 40
    rss_ops = 2400
    audit = True
    # Deep stock: no listing sells out, so no trade fails for lack of goods.
    overrides = {"handshake_trades": True, "stock_per_item": 1_000_000}

    def inputs(self, seed: int, scale: float) -> SimpleNamespace:
        inputs = _population(seed, _scaled(self.consumers, scale, 8))
        rng = inputs.rng
        inputs.sessions = []
        for _ in range(_scaled(600, scale, 8)):
            consumer = rng.choice(inputs.consumers)
            user = consumer.user_id
            inputs.sessions.append(
                (
                    user,
                    LoginRequest(user),
                    QueryRequest(user, consumer.preferred_keyword(rng)),
                    [round(rng.uniform(2.0, 5.0), 1) for _ in range(3)],
                    LogoutRequest(user),
                )
            )
        return inputs

    def setup(self, inputs: SimpleNamespace, tick: Callable[[], None]) -> SimpleNamespace:
        state = self._platform()
        _warm(state.gateway, inputs, tick)
        state.sessions = inputs.sessions
        return state

    def round(self, state: SimpleNamespace, index: int, rec: Any) -> bool:
        user, login, query, ratings, logout = state.sessions[index % len(state.sessions)]
        execute = state.gateway.execute
        rec.request(0, execute, login)
        found = rec.request(1, execute, query)
        if found.result is not None:
            for offset, hit in enumerate(found.result.hits[:3]):
                trade = (index + offset) % 3
                if trade == 0:
                    request = BuyRequest(user, hit.item, hit.marketplace)
                elif trade == 1:
                    request = AuctionRequest(user, hit.item, hit.price * 1.2, hit.marketplace)
                else:
                    request = NegotiateRequest(user, hit.item, hit.price * 0.95, hit.marketplace)
                rec.request(2 + trade, execute, request)
                rec.request(5, execute, RateRequest(user, hit.item, ratings[offset]))
        rec.request(6, execute, logout)
        rec.aux(state.pump)
        return True


class SimilarFanout(Workload):
    name = "similar_fanout"
    kinds = ("find_similar", "login", "recommendations", "logout")
    headline = ("find_similar",)
    consumers = 3000
    fixed_rounds = 15
    rss_ops = 300

    def inputs(self, seed: int, scale: float) -> SimpleNamespace:
        inputs = _population(seed, _scaled(self.consumers, scale, 8))
        rng = inputs.rng
        users = [consumer.user_id for consumer in inputs.consumers]
        inputs.rounds = []
        for _ in range(_scaled(400, scale, 8)):
            user = rng.choice(users)
            inputs.rounds.append(
                (
                    [FindSimilarRequest(rng.choice(users)) for _ in range(4)],
                    LoginRequest(user),
                    RecommendationsRequest(user, 10),
                    LogoutRequest(user),
                )
            )
        return inputs

    def setup(self, inputs: SimpleNamespace, tick: Callable[[], None]) -> SimpleNamespace:
        state = self._platform()
        _warm(state.gateway, inputs, tick)
        state.rounds = inputs.rounds
        return state

    def round(self, state: SimpleNamespace, index: int, rec: Any) -> bool:
        lookups, login, recommendations, logout = state.rounds[index % len(state.rounds)]
        execute = state.gateway.execute
        for lookup in lookups:
            rec.request(0, execute, lookup)
        rec.request(1, execute, login)
        rec.request(2, execute, recommendations)
        rec.request(3, execute, logout)
        rec.aux(state.pump)
        return True


class _Chain:
    """One consumer's request chain on the submit path, think times pre-drawn.

    Each follow-up is submitted from the previous request's done-callback at
    its virtual finish plus the next think time — the closed-loop idiom of
    ``repro.workload.concurrent``, minus the random draws.  A refused login
    ends the chain (there is no session to use); any later refusal is
    recorded and the chain goes on.

    Arrivals are an open loop: a session's login, once processed at its
    arrival time, submits the next session's login at *its* pre-drawn
    arrival time, whatever became of the first.  So the scheduler holds one
    pending arrival and the chains in flight, not the whole run.
    """

    __slots__ = ("state", "requests", "thinks", "position")

    def __init__(self, state: SimpleNamespace, requests: Sequence[Any], thinks: Sequence[float]) -> None:
        self.state = state
        self.requests = requests
        self.thinks = thinks
        self.position = 0

    @classmethod
    def start_next(cls, state: SimpleNamespace) -> None:
        session = next(state.arrivals, None)
        if session is not None:
            offset, requests, thinks = session
            chain = cls(state, requests, thinks)
            state.gateway.submit(requests[0], at_ms=state.origin + offset).add_done_callback(chain._done)

    def _done(self, future: Any) -> None:
        response = future.response
        self.state.rec.observe(response)
        position = self.position
        if position == 0:
            self.start_next(self.state)
            if response.error is not None:
                return
        position += 1
        if position < len(self.requests):
            self.position = position
            self.state.gateway.submit(
                self.requests[position], at_ms=future.finished_at_ms + self.thinks[position]
            ).add_done_callback(self._done)


class OverloadSubmit(Workload):
    name = "overload_submit"
    kinds = ("step_served", "step_shed")
    # Every step, shed and served alike: over 60 % are shed (30 us, the chain
    # alone), the rest logins and logouts (0.15-0.3 ms) and queries (6 ms),
    # so the median is a shed step and p95 a query.
    headline = ("step_served", "step_shed")
    expected = ("ok", "rejected")
    consumers = 2000
    fixed_rounds = 12
    rss_ops = 6000
    # A refill of 0.2 requests per simulated ms is below what four servers
    # serve: the queue wait settles near 40 ms and the run is stationary (at
    # 0.25 the wait grows without bound and sessions outlive the reuse of
    # their account).  Logout has a class of its own that never sheds: every
    # admitted session ends, so its account can be used again.
    overrides = {
        "api_admission_capacity": 80,
        "api_admission_refill_per_ms": 0.2,
        "api_admission_classes": {
            "teardown": {"operations": ["logout"], "capacity": 1000.0, "refill_per_ms": 10.0}
        },
    }
    steps_per_round = 50
    arrivals_per_ms = 0.5
    #: Sessions per consumer: three times what a run gets through here (a
    #: session takes two steps on average, most being a refused login).
    #: Accounts come round again after ``consumers / arrivals_per_ms``
    #: simulated ms (4 s); a session lasts about 1 s.
    passes = 12

    def inputs(self, seed: int, scale: float) -> SimpleNamespace:
        inputs = _population(seed, _scaled(self.consumers, scale, 8))
        rng = inputs.rng
        order = list(inputs.consumers)
        rng.shuffle(order)
        # A scaled-down population comes round too soon to be used twice.
        order *= self.passes if scale >= 1.0 else 1
        think = ThinkTime(150.0, seed=seed + 1)
        offsets = PoissonArrivals(self.arrivals_per_ms, seed=seed + 2).offsets_ms(len(order))
        inputs.sessions = []
        for consumer, offset in zip(order, offsets):
            user = consumer.user_id
            requests: List[Any] = [LoginRequest(user)]
            requests += [QueryRequest(user, keyword) for keyword in _keywords(consumer, rng, 2)]
            if rng.random() < 0.10:
                requests.append(FindSimilarRequest(user))
            if rng.random() < 0.25:
                requests.append(RecommendationsRequest(user, 10))
            requests.append(LogoutRequest(user))
            inputs.sessions.append((offset, requests, [think.next_ms() for _ in requests]))
        return inputs

    def setup(self, inputs: SimpleNamespace, tick: Callable[[], None]) -> SimpleNamespace:
        state = self._platform()
        _warm(state.gateway, inputs, tick)
        state.rec = None
        state.scheduler = state.gateway.sessions
        state.origin = state.scheduler.horizon
        state.arrivals = iter(inputs.sessions)
        _Chain.start_next(state)
        return state

    def round(self, state: SimpleNamespace, index: int, rec: Any) -> bool:
        state.rec = rec
        step = state.scheduler.step
        for _ in range(self.steps_per_round):
            if not rec.step(0, 1, step):
                return False
        return True


class FleetMaintenance(Workload):
    name = "fleet_maintenance"
    kinds = (
        "refresh_all",
        "find_similar_degraded",
        "promote",
        "find_similar_promoted",
        "recover_server",
        "transfer_shard",
        "anti_entropy_tick",
    )
    headline = ("find_similar_degraded",)
    expected = ("ok", "degraded")
    consumers = 800
    fixed_rounds = 1
    rss_ops = 250
    audit = True
    degraded_reads = 60
    promoted_reads = 10

    def inputs(self, seed: int, scale: float) -> SimpleNamespace:
        inputs = _population(seed, _scaled(self.consumers, scale, 16))
        rng = inputs.rng
        users = [consumer.user_id for consumer in inputs.consumers]
        reads = _scaled(self.degraded_reads, max(scale, 0.1), 4)
        inputs.cycles = [
            (
                [FindSimilarRequest(rng.choice(users)) for _ in range(reads)],
                [FindSimilarRequest(rng.choice(users)) for _ in range(self.promoted_reads)],
            )
            for _ in range(64)
        ]
        inputs.users = users
        return inputs

    def setup(self, inputs: SimpleNamespace, tick: Callable[[], None]) -> SimpleNamespace:
        state = self._platform()
        _warm(state.gateway, inputs, tick)
        state.cycles = inputs.cycles
        state.users = inputs.users
        state.lost_before = state.fleet.lost_consumers
        return state

    def round(self, state: SimpleNamespace, index: int, rec: Any) -> bool:
        degraded, promoted = state.cycles[index % len(state.cycles)]
        platform, fleet = state.platform, state.fleet
        execute = state.gateway.execute
        victim = state.servers[index % len(state.servers)]
        shards = list(fleet.shards_of(victim))

        rec.call(0, fleet.refresh_all)
        rec.aux(platform.failures.crash_host, victim.name)
        # The quorum window: the shard is down and not yet failed over, so
        # its part of every answer comes from the freshest replica.
        for lookup in degraded:
            rec.request(1, execute, lookup)
        rec.call(2, fleet.handle_server_failure, shards[0], None, "promote")
        for lookup in promoted:
            rec.request(3, execute, lookup)
        rec.aux(platform.failures.recover_host, victim.name)
        rec.call(4, fleet.recover_server, victim)
        for shard in shards:
            if fleet.owner_of_shard(shard) is not victim:
                rec.call(5, fleet.transfer_shard, shard, victim, "upgrade")
        for server in state.servers:
            rec.call(6, server.replication.anti_entropy_tick)
        return True

    def after_round(self, state: SimpleNamespace) -> List[str]:
        fleet = state.fleet
        failures = []
        lost = fleet.lost_consumers - state.lost_before
        if lost:
            failures.append(f"{lost} consumers lost by a maintenance cycle")
            state.lost_before = fleet.lost_consumers
        missing = sum(1 for user in state.users if not fleet.is_registered(user))
        if missing:
            failures.append(f"{missing} consumers unregistered after a maintenance cycle")
        return failures


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (Browse(), Trade(), SimilarFanout(), OverloadSubmit(), FleetMaintenance())
}
