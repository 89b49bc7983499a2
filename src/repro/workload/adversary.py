"""Scripted abuse workloads: scalper fleets, protocol bots, quota floods.

The honest counterpart, :class:`~repro.workload.concurrent.ConcurrentDriver`,
drives well-behaved consumer sessions; this module drives the attackers.
Three scripted populations share one seeded driver:

- **scalper fleet** — bot accounts hammering one hot auction open-loop
  (no think time, no chaining on responses: bots do not wait politely),
  the load shape PR-7's admission classes exist to shed;
- **protocol bots** — clients running the trade handshake with a
  deliberate violation per attempt (forged nonce, replayed offer,
  double finalize, stale credential), probing whether the broker's
  typed rejections actually hold the line;
- **quota flood** — a single abusive consumer machine-gunning reads,
  the per-class starvation case weighted admission buckets guard.

Attacks are submitted as ordinary gateway futures, so when a scenario
injects them *before* (or between) honest traffic they interleave with
the honest sessions in the same :class:`~repro.api.concurrency.
SessionScheduler` drain, by virtual arrival time — adversarial load is
concurrent with honest load, not a separate phase.  Everything is drawn
from seeded private RNGs; same seed, same platform → byte-identical
attack stream.

The report's headline number is :attr:`AdversaryReport.
attacker_success_rate`: the fraction of *tampered* handshake attempts
that came back ``ok``.  The acceptance bar is exactly zero — one forged
nonce surviving verification is a broken protocol, not a statistic.
Scalper and flood traffic is measured by how much of it was shed
(``rejected`` envelopes), mirrored onto ``adversary.*`` counters so a
metrics snapshot alone proves the attacks were absorbed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import WorkloadError
from repro.api.envelope import ApiStatus
from repro.api.requests import (
    AuctionRequest,
    HandshakeRequest,
    LoginRequest,
    LogoutRequest,
    QueryRequest,
)
from repro.adversarial.handshake import TAMPER_MODES
from repro.workload.arrivals import PoissonArrivals

__all__ = ["AdversaryReport", "AdversaryDriver"]


@dataclass
class AdversaryReport:
    """What the attack populations attempted and what the platform did.

    ``statuses`` / ``error_codes`` histogram every attack envelope (the
    invariant auditor closes the taxonomy over them); the per-population
    sections break the same futures down by attack class.  ``succeeded``
    under ``protocol`` counts tampered handshakes that the platform
    *accepted* — the number the whole subsystem exists to keep at zero.
    """

    scalpers: int = 0
    scalper_requests: int = 0
    scalper_shed: int = 0
    scalper_trades_won: int = 0
    protocol_attempts: Dict[str, int] = field(default_factory=dict)
    protocol_rejected: Dict[str, int] = field(default_factory=dict)
    protocol_succeeded: int = 0
    flood_requests: int = 0
    flood_shed: int = 0
    statuses: Dict[str, int] = field(default_factory=dict)
    error_codes: Dict[str, int] = field(default_factory=dict)

    @property
    def requests(self) -> int:
        return (
            self.scalper_requests
            + sum(self.protocol_attempts.values())
            + self.flood_requests
        )

    @property
    def attacker_success_rate(self) -> float:
        """Tampered handshakes accepted / tampered handshakes attempted."""
        attempts = sum(self.protocol_attempts.values())
        return self.protocol_succeeded / attempts if attempts else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "attacker_success_rate": self.attacker_success_rate,
            "scalper": {
                "fleet": self.scalpers,
                "requests": self.scalper_requests,
                "shed": self.scalper_shed,
                "trades_won": self.scalper_trades_won,
            },
            "protocol": {
                "attempts": dict(sorted(self.protocol_attempts.items())),
                "rejected": dict(sorted(self.protocol_rejected.items())),
                "succeeded": self.protocol_succeeded,
            },
            "flood": {
                "requests": self.flood_requests,
                "shed": self.flood_shed,
            },
            "statuses": dict(sorted(self.statuses.items())),
            "error_codes": dict(sorted(self.error_codes.items())),
        }


class _TrackedFuture:
    """An attack future plus the attack class it belongs to."""

    __slots__ = ("future", "population", "tamper")

    def __init__(self, future, population: str, tamper: Optional[str] = None):
        self.future = future
        self.population = population
        self.tamper = tamper


class AdversaryDriver:
    """Injects seeded attack traffic through the gateway's submit path.

    Two-phase by design: :meth:`inject` only *submits* futures (so a
    scenario can lay attacks and honest sessions into the same drain);
    :meth:`collect` reads the resolved futures into a report afterwards.
    :meth:`run` is the standalone convenience that does both around a
    ``run_until_idle``.
    """

    def __init__(self, platform, seed: int = 0) -> None:
        self.platform = platform
        self.gateway = platform.gateway()
        self.seed = seed
        self._tracked: List[_TrackedFuture] = []
        self._scalpers = 0

    # -- phase 1: submission -------------------------------------------------

    def inject(
        self,
        at_ms: Optional[float] = None,
        scalpers: int = 8,
        bids_per_scalper: int = 4,
        protocol_rounds: int = 2,
        flood_requests: int = 40,
        arrival_rate_per_ms: float = 0.2,
    ) -> int:
        """Submit the full attack mix, arriving from ``at_ms`` onwards.

        Scalpers bid open-loop on the platform's hottest listing (the
        first listing of the first marketplace — every bot wants the same
        scarce item, that is the point); protocol bots cycle through
        every tamper mode ``protocol_rounds`` times; the flood hammers
        queries from one account.  Returns the number of futures
        submitted.  Attack arrivals are Poisson with ``arrival_rate_per_
        ms`` — dense compared to honest traffic, as abuse is.
        """
        if scalpers < 0 or bids_per_scalper < 0:
            raise WorkloadError("scalper fleet sizes cannot be negative")
        if protocol_rounds < 0 or flood_requests < 0:
            raise WorkloadError("attack volumes cannot be negative")
        if arrival_rate_per_ms <= 0:
            raise WorkloadError("attack arrival rate must be positive")
        base = self.gateway.sessions.horizon if at_ms is None else float(at_ms)
        marketplace = self.platform.marketplaces[0]
        listings = marketplace.catalog.listings()
        if not listings:
            raise WorkloadError("the hot marketplace has nothing to scalp")
        hot_item = listings[0].item
        rng = random.Random(f"adversary|{self.seed}")
        total = (
            scalpers * (bids_per_scalper + 2)
            + protocol_rounds * len(TAMPER_MODES)
            + flood_requests
        )
        offsets = PoissonArrivals(
            arrival_rate_per_ms, seed=self.seed + 11
        ).offsets_ms(total)
        clock = iter(offsets)
        submitted = 0
        self._scalpers += scalpers

        def _submit(request, population: str, tamper: Optional[str] = None):
            nonlocal submitted
            future = self.gateway.submit(
                request,
                at_ms=base + next(clock),
                session_id=f"adv-{population}",
            )
            self._tracked.append(_TrackedFuture(future, population, tamper))
            submitted += 1

        # Scalper fleet: login, hammer the hot auction, logout.  Open-loop —
        # each bot's requests arrive on the shared Poisson clock regardless
        # of how the previous one resolved (the scheduler still executes
        # them in arrival order, so the login lands first).
        for index in range(scalpers):
            bot = f"scalper-{self.seed}-{index:03d}"
            _submit(LoginRequest(bot), "scalper")
            for _ in range(bids_per_scalper):
                _submit(
                    AuctionRequest(
                        bot, hot_item, max_price=hot_item.price * (2 + rng.random())
                    ),
                    "scalper",
                )
            _submit(LogoutRequest(bot), "scalper")

        # Protocol bots: one deliberate violation per attempt, every mode.
        for round_no in range(protocol_rounds):
            for tamper in TAMPER_MODES:
                bot = f"protobot-{self.seed}-{round_no}"
                _submit(
                    HandshakeRequest(bot, tamper=tamper), "protocol", tamper=tamper
                )

        # Quota flood: one account, one operation, machine-gun cadence.
        flooder = f"flooder-{self.seed}"
        keywords = sorted({listing.item.category for listing in listings})
        for _ in range(flood_requests):
            _submit(QueryRequest(flooder, rng.choice(keywords)), "flood")
        return submitted

    # -- phase 2: accounting -------------------------------------------------

    def collect(self) -> AdversaryReport:
        """Fold the resolved attack futures into a report (and counters).

        Call after the session scheduler drained.  Consumes the tracked
        futures, so back-to-back ``inject``/``collect`` cycles on one
        driver never double-count.
        """
        report = AdversaryReport(scalpers=self._scalpers)
        metrics = self.platform.metrics
        for tracked in self._tracked:
            response = tracked.future.response
            report.statuses[response.status] = (
                report.statuses.get(response.status, 0) + 1
            )
            if response.error is not None:
                report.error_codes[response.error.code] = (
                    report.error_codes.get(response.error.code, 0) + 1
                )
            if tracked.population == "scalper":
                report.scalper_requests += 1
                metrics.counter("adversary.scalper.requests").increment()
                if response.status == ApiStatus.REJECTED:
                    report.scalper_shed += 1
                    metrics.counter("adversary.scalper.shed").increment()
                elif (
                    response.ok
                    and getattr(response.result, "succeeded", False)
                    and getattr(response.result, "transaction", None) is not None
                ):
                    report.scalper_trades_won += 1
            elif tracked.population == "protocol":
                tamper = tracked.tamper or "none"
                report.protocol_attempts[tamper] = (
                    report.protocol_attempts.get(tamper, 0) + 1
                )
                metrics.counter("adversary.protocol.attempts").increment()
                if response.ok:
                    # A tampered handshake was ACCEPTED — the one outcome
                    # the subsystem must never produce.
                    report.protocol_succeeded += 1
                    metrics.counter("adversary.protocol.succeeded").increment()
                else:
                    report.protocol_rejected[response.error.code] = (
                        report.protocol_rejected.get(response.error.code, 0) + 1
                    )
                    metrics.counter("adversary.protocol.rejected").increment()
            elif tracked.population == "flood":
                report.flood_requests += 1
                metrics.counter("adversary.flood.requests").increment()
                if response.status == ApiStatus.REJECTED:
                    report.flood_shed += 1
                    metrics.counter("adversary.flood.shed").increment()
        self._tracked = []
        self._scalpers = 0
        return report
