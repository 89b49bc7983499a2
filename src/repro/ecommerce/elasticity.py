"""The autoscaling control loop: routine elasticity for the buyer fleet.

ROADMAP item 3's end state: the failover machinery (replica bootstrap, WAL
catch-up, atomic shard-map flips) stops being disaster response and becomes
how the fleet breathes.  :class:`FleetAutoscaler` is a scheduled control
loop that watches the PR-7 observability surface — the per-server
``api.server.<name>.utilization`` / ``api.server.<name>.backlog_ms`` gauges
the concurrent driver publishes, plus the ``api.admission.rejected``
admission counter — and turns sustained pressure into topology changes:

- **scale out**: join a server (:meth:`ECommercePlatform.add_buyer_server`),
  then move load onto it — the hottest server hands a whole shard over when
  it owns several (:meth:`BuyerServerFleet.transfer_shard`), else its single
  hot shard is *split* live (:meth:`BuyerServerFleet.split_shard`) with the
  child owned by the newcomer;
- **scale in**: when the fleet has been idle below the low-water mark for a
  full cooldown, the most recently added server hands its shards back —
  split children return to their parent shard's current owner, everything
  else to the least-loaded survivor — and the server is decommissioned
  (:meth:`ECommercePlatform.remove_buyer_server`), LIFO so the founding
  topology is always the floor.

Every decision (including ``hold``) is recorded as an
``autoscaler.decision`` event and kept on the scaler for scenario reports.
The loop is deterministic: signals are read from the metrics registry, ties
break in fleet order, and nothing consults wall-clock time or randomness —
two same-seed runs scale identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.errors import ECommerceError
from repro.platform.clock import RecurringCallback

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.ecommerce.buyer_server import BuyerAgentServer
    from repro.ecommerce.platform_builder import ECommercePlatform

__all__ = ["AutoscalerPolicy", "AutoscalerDecision", "FleetAutoscaler"]


@dataclass
class AutoscalerPolicy:
    """Thresholds and limits of the control loop.

    Scale-out triggers when ANY pressure signal breaches its high-water
    mark: peak per-server utilization, peak per-server backlog, or new
    admission rejections since the previous tick.  Scale-in needs ALL
    signals quiet — peak utilization under the low-water mark, zero
    backlog breach, zero new rejections — for ``cooldown_ticks``
    consecutive ticks, and never shrinks below the founding fleet size
    (or ``min_servers`` when set higher).
    """

    scale_out_utilization: float = 0.7
    scale_in_utilization: float = 0.2
    scale_out_backlog_ms: float = 500.0
    scale_out_rejections: int = 25
    min_servers: Optional[int] = None
    max_servers: int = 16
    cooldown_ticks: int = 2

    def validate(self) -> None:
        if not 0.0 < self.scale_out_utilization <= 1.0:
            raise ECommerceError("scale_out_utilization must be in (0, 1]")
        if not 0.0 <= self.scale_in_utilization < self.scale_out_utilization:
            raise ECommerceError(
                "scale_in_utilization must be in [0, scale_out_utilization)"
            )
        if self.scale_out_backlog_ms <= 0:
            raise ECommerceError("scale_out_backlog_ms must be positive")
        if self.scale_out_rejections < 0:
            raise ECommerceError("scale_out_rejections cannot be negative")
        if self.max_servers <= 0:
            raise ECommerceError("max_servers must be positive")
        if self.cooldown_ticks < 0:
            raise ECommerceError("cooldown_ticks cannot be negative")


@dataclass
class AutoscalerDecision:
    """One control-loop tick: what was observed, what was done, and why."""

    at_ms: float
    action: str  # "scale-out" | "scale-in" | "hold"
    reason: str
    signals: Dict[str, float] = field(default_factory=dict)
    epoch: int = 0
    server: Optional[str] = None
    detail: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "at_ms": self.at_ms,
            "action": self.action,
            "reason": self.reason,
            "signals": dict(self.signals),
            "epoch": self.epoch,
        }
        if self.server is not None:
            payload["server"] = self.server
        if self.detail:
            payload["detail"] = dict(self.detail)
        return payload


class FleetAutoscaler:
    """Scheduled controller turning load signals into fleet topology changes."""

    def __init__(
        self,
        platform: "ECommercePlatform",
        policy: Optional[AutoscalerPolicy] = None,
    ) -> None:
        if platform.fleet is None:
            raise ECommerceError(
                "the autoscaler needs fleet mode (num_buyer_servers > 1)"
            )
        self.platform = platform
        self.fleet = platform.fleet
        self.policy = policy or AutoscalerPolicy()
        self.policy.validate()
        #: The founding fleet size is the default shrink floor: the
        #: autoscaler only ever removes capacity it (or a peer caller)
        #: added, never the topology the platform was built with.
        self.floor = max(self.policy.min_servers or 0, len(self.fleet.members()))
        self.decisions: List[AutoscalerDecision] = []
        self._added: List["BuyerAgentServer"] = []
        self._rejected_last = self._rejected_now()
        self._quiet_ticks = 0
        self._task: Optional[RecurringCallback] = None

    # -- signals ---------------------------------------------------------------------

    def _rejected_now(self) -> int:
        return self.platform.metrics.counter("api.admission.rejected").value

    def active_servers(self) -> List["BuyerAgentServer"]:
        """Fleet servers that are serving: running and not retired."""
        return [
            server for server in self.fleet.members() if server.context.host.is_running
        ]

    def signals(self) -> Dict[str, float]:
        """One deterministic read of the pressure gauges.

        Utilization and backlog are the per-server gauges the concurrent
        driver publishes after each run window (absent gauges read 0 — an
        idle fleet is simply quiet); rejections are the *delta* of the
        global admission counter since the previous tick, so one historic
        overload can never pin the fleet scaled out forever.
        """
        metrics = self.platform.metrics
        utilizations = []
        backlogs = []
        for server in self.active_servers():
            utilizations.append(
                metrics.gauge(f"api.server.{server.name}.utilization").value
            )
            backlogs.append(
                metrics.gauge(f"api.server.{server.name}.backlog_ms").value
            )
        rejected_now = self._rejected_now()
        return {
            "max_utilization": max(utilizations, default=0.0),
            "mean_utilization": (
                sum(utilizations) / len(utilizations) if utilizations else 0.0
            ),
            "max_backlog_ms": max(backlogs, default=0.0),
            "new_rejections": float(rejected_now - self._rejected_last),
            "active_servers": float(len(utilizations)),
        }

    # -- the control loop --------------------------------------------------------------

    def tick(self) -> AutoscalerDecision:
        """Evaluate the signals once and act; returns the decision made."""
        signals = self.signals()
        self._rejected_last = self._rejected_now()
        active = len(self.active_servers())

        overloaded = (
            signals["max_utilization"] >= self.policy.scale_out_utilization
            or signals["max_backlog_ms"] >= self.policy.scale_out_backlog_ms
            or signals["new_rejections"] >= self.policy.scale_out_rejections
        )
        quiet = (
            signals["max_utilization"] <= self.policy.scale_in_utilization
            and signals["max_backlog_ms"] < self.policy.scale_out_backlog_ms
            and signals["new_rejections"] == 0
        )

        if overloaded and active < self.policy.max_servers:
            self._quiet_ticks = 0
            decision = self._scale_out(signals)
        elif overloaded:
            self._quiet_ticks = 0
            decision = self._decide(
                "hold", "overloaded but at max_servers", signals
            )
        elif quiet and self._added and active > self.floor:
            self._quiet_ticks += 1
            if self._quiet_ticks > self.policy.cooldown_ticks:
                self._quiet_ticks = 0
                decision = self._scale_in(signals)
            else:
                decision = self._decide(
                    "hold",
                    f"quiet {self._quiet_ticks}/{self.policy.cooldown_ticks + 1} "
                    "ticks before scale-in",
                    signals,
                )
        else:
            if not quiet:
                self._quiet_ticks = 0
            decision = self._decide("hold", "load within band", signals)
        return decision

    def _decide(
        self,
        action: str,
        reason: str,
        signals: Dict[str, float],
        server: Optional[str] = None,
        **detail,
    ) -> AutoscalerDecision:
        decision = AutoscalerDecision(
            at_ms=self.platform.now,
            action=action,
            reason=reason,
            signals=signals,
            epoch=self.fleet.shard_map.epoch,
            server=server,
            detail=detail,
        )
        self.decisions.append(decision)
        self.platform.event_log.record(
            self.platform.now,
            "autoscaler.decision",
            server or "fleet",
            "autoscaler",
            action=action,
            reason=reason,
            signals=dict(signals),
            epoch=decision.epoch,
        )
        self.platform.metrics.counter(f"autoscaler.{action}").increment()
        return decision

    def _hottest_server(self) -> "BuyerAgentServer":
        """The active server with the highest utilization (fleet order ties)."""
        metrics = self.platform.metrics
        servers = self.active_servers()
        return max(
            servers,
            key=lambda server: metrics.gauge(
                f"api.server.{server.name}.utilization"
            ).value,
        )

    def _scale_out(self, signals: Dict[str, float]) -> AutoscalerDecision:
        """Add a server and move load onto it: whole-shard handback or live split."""
        hottest = self._hottest_server()
        newcomer = self.platform.add_buyer_server()
        self._added.append(newcomer)
        owned = self.fleet.shards_of(hottest)
        if len(owned) > 1:
            # The hottest server serves several shards: hand its largest
            # (by assigned consumers) to the newcomer whole.
            sizes = self.fleet.shard_sizes()
            shard = max(owned, key=lambda s: (sizes[s], -s))
            moved = self.fleet.transfer_shard(shard, newcomer, kind="scale-out")
            return self._decide(
                "scale-out",
                "pressure high; transferred a whole shard to the new server",
                signals,
                server=newcomer.name,
                source=hottest.name,
                shard=shard,
                moved=moved,
            )
        # One shard: split it live, the newcomer owns the child.
        shard = owned[0]
        split = self.fleet.split_shard(shard, target=newcomer)
        moved = split.run()
        return self._decide(
            "scale-out",
            "pressure high; split the hot shard onto the new server",
            signals,
            server=newcomer.name,
            source=hottest.name,
            parent=shard,
            child=split.child,
            moved=moved,
        )

    def _scale_in(self, signals: Dict[str, float]) -> AutoscalerDecision:
        """Retire the most recently added server, handing its shards back."""
        leaving = self._added.pop()
        shard_moves: List[Dict[str, object]] = []
        for shard in list(self.fleet.shards_of(leaving)):
            target = self._handback_target(shard, leaving)
            moved = self.fleet.transfer_shard(shard, target, kind="scale-in")
            shard_moves.append(
                {"shard": shard, "target": target.name, "moved": moved}
            )
        self.platform.remove_buyer_server(leaving)
        return self._decide(
            "scale-in",
            "fleet quiet past cooldown; retired the newest server",
            signals,
            server=leaving.name,
            moves=shard_moves,
        )

    def _handback_target(
        self, shard: int, leaving: "BuyerAgentServer"
    ) -> "BuyerAgentServer":
        """Where a retiring server's shard should go.

        A split child returns to its parent shard's current owner (undoing
        the split's placement, though the child shard itself lives on —
        split lineage is routing history and never rewinds).  Anything else
        goes to the surviving active server with the fewest assigned
        consumers, fleet order breaking ties.
        """
        parent = self.fleet.shard_map.parent_of(shard)
        if parent is not None:
            owner = self.fleet.owner_of_shard(parent)
            if owner is not leaving and owner.context.host.is_running:
                return owner
        sizes = self.fleet.shard_sizes()
        candidates = [
            server for server in self.active_servers() if server is not leaving
        ]
        if not candidates:
            raise ECommerceError("no surviving server to hand the shard back to")
        return min(
            candidates,
            key=lambda server: sum(
                sizes[s] for s in self.fleet.shards_of(server)
            ),
        )

    # -- scheduling --------------------------------------------------------------------

    def start(self, interval_ms: float) -> RecurringCallback:
        """Arm the control loop on the platform scheduler."""
        if interval_ms <= 0:
            raise ECommerceError("autoscaler interval must be positive")
        if self._task is not None and not self._task.cancelled:
            raise ECommerceError("the autoscaler is already running")
        self._task = self.platform.scheduler.call_every(
            interval_ms, self.tick, label="autoscaler.tick"
        )
        return self._task

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None
