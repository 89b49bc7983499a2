"""Outside-in span tracer: wraps each layer's public entry points.

The program carries no tracing hooks, so the benchmark records spans from
its own files: :class:`Tracer` replaces the public callables listed in
:data:`TARGETS` with timing wrappers for the duration of a ``with`` block
and restores the originals on exit.  A span is ``(name, start, end, parent,
op-id)``; spans are kept in memory (typed arrays, ~26 bytes each) and self
time is computed afterwards by :meth:`Tracer.summarize`, never inside a
wrapper.

A layer's *self time* is its spans' duration minus the part covered by
child spans.  Callees that are not wrapped (``ecommerce.session``,
``ecommerce.databases``, ``core.profile`` ...) are therefore charged to the
nearest wrapped caller.  The wrappers themselves cost time: the part that
falls inside a span and the part that falls on its parent are calibrated
on a no-op at install time and subtracted, which matters on the scoring
path where ``pref_part``/``term_part`` run thousands of times per request.
"""

from __future__ import annotations

import importlib
import json
from array import array
from types import FunctionType
from typing import Any, Callable, Dict, List, Optional, Tuple

from .calibration import Speed, clock

__all__ = ["TARGETS", "SPAN_NAMES", "DRIVER_SPAN", "Tracer", "leaked_wrappers"]

#: Root span the harness opens around every operation it issues; its self
#: time is wall spent outside every layer span (``trace.unattributed_share``).
DRIVER_SPAN = "bench.driver"

_AGLETS = (
    "ProfileAgent",
    "BuyerRecommendAgent",
    "MobileBuyerAgent",
    "HttpAgent",
    "BuyerServerManagementAgent",
)
_MIDDLEWARES = (
    "MetricsMiddleware",
    "AdmissionControlMiddleware",
    "DeadlineMiddleware",
    "RetryMiddleware",
    "QueueingMiddleware",
)
_KERNELS = ("ScoringKernel", "DictKernel", "ArrayKernel", "NumpyKernel")
_INDEX_METHODS = ("find_similar", "find_similar_many", "sync")

#: ``(span name, module, class or None for a module-level binding, attributes)``.
#: Span names are the program's module names.  A class attribute is wrapped
#: where the class defines it itself; inherited no-op defaults are left alone.
TARGETS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("api.gateway", "repro.api.gateway", "PlatformGateway", ("execute",)),
    ("api.gateway", "repro.api.concurrency", "SessionScheduler", ("step",)),
    *(
        ("api.middleware", "repro.api.middleware", name, ("handle",))
        for name in _MIDDLEWARES
    ),
    ("agents.messaging", "repro.agents.context", "AgletContext", ("deliver", "send_message")),
    ("agents.messaging", "repro.agents.proxy", "AgletProxy", ("send",)),
    (
        "agents.migration",
        "repro.agents.context",
        "AgletContext",
        ("dispatch", "retract", "clone", "deactivate", "activate"),
    ),
    # Patched where they are bound: AgletContext calls the names imported
    # into its own module; StateSnapshot.payload_bytes calls the estimator
    # through the serialization module's globals.
    ("agents.serialization", "repro.agents.context", None, ("capture_state", "restore_state")),
    ("agents.serialization", "repro.agents.serialization", None, ("estimate_payload_bytes",)),
    *(
        ("ecommerce.buyer_agents", "repro.ecommerce.buyer_agents", name, ("handle_message", "on_arrival"))
        for name in _AGLETS
    ),
    ("ecommerce.marketplace", "repro.ecommerce.marketplace", "MarketplaceAgent", ("handle_message",)),
    (
        "ecommerce.marketplace",
        "repro.ecommerce.marketplace",
        "MarketplaceServer",
        ("search", "sell_direct", "negotiate_purchase", "auction_purchase"),
    ),
    ("ecommerce.marketplace", "repro.ecommerce.catalog", "MerchandiseCatalog", ("search",)),
    (
        "ecommerce.recommendation",
        "repro.ecommerce.buyer_server",
        "RecommendationService",
        ("recommend", "recommend_many", "recommend_for_query", "batch_refresh", "cached_recommendations"),
    ),
    ("ecommerce.fanout", "repro.ecommerce.buyer_server", "BuyerServerFleet", ("query_similar",)),
    (
        "ecommerce.fleet_ops",
        "repro.ecommerce.buyer_server",
        "BuyerServerFleet",
        ("refresh_all", "handle_server_failure", "recover_server", "transfer_shard", "split_shard"),
    ),
    ("ecommerce.replication", "repro.ecommerce.replication", "ReplicationLog", ("append",)),
    ("ecommerce.replication", "repro.ecommerce.replication", "ReplicaState", ("apply_entries", "bootstrap")),
    (
        "ecommerce.replication",
        "repro.ecommerce.replication",
        "ReplicationManager",
        ("catch_up", "maybe_truncate", "anti_entropy_tick"),
    ),
    (
        "adversarial.handshake",
        "repro.adversarial.handshake",
        "HandshakeBroker",
        ("open", "exchange", "finalize", "perform", "redeem"),
    ),
    (
        "core.hybrid",
        "repro.core.hybrid",
        "AgentHybridRecommender",
        ("recommend", "recommend_for_query", "similar_users", "prepare_batch"),
    ),
    ("core.neighbors", "repro.core.neighbors", "ProfileNeighborIndex", _INDEX_METHODS),
    ("core.neighbors", "repro.core.sharding", "ShardedNeighborIndex", _INDEX_METHODS),
    *(
        ("core.scoring", "repro.core.scoring", name, ("prepare_target", "score_block", "pref_part", "term_part"))
        for name in _KERNELS
    ),
    ("core.learning", "repro.core.profile_learning", "ProfileLearner", ("apply",)),
    ("platform.transport", "repro.platform.transport", "Transport", ("deliver",)),
    (
        "platform.transport",
        "repro.platform.network",
        "SimulatedNetwork",
        ("transfer_latency", "round_trip_latency"),
    ),
    ("platform.telemetry", "repro.platform.events", "EventLog", ("record", "append")),
    ("platform.telemetry", "repro.platform.metrics", "Timer", ("record",)),
    ("platform.telemetry", "repro.platform.metrics", "Counter", ("increment",)),
    ("platform.telemetry", "repro.platform.metrics", "Gauge", ("set",)),
)

#: Layer span names in first-appearance order (the per-layer metric prefixes).
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(target[0] for target in TARGETS))

_CALIBRATION_CALLS = 20000
#: Attribute that identifies a function as one of this module's wrappers.
_MARK = "__wallclock_span__"


def _resolve(module_name: str, class_name: Optional[str]) -> Any:
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name is not None else owner


def leaked_wrappers() -> List[str]:
    """Wrap sites that currently hold a tracer wrapper instead of the original.

    Every run asserts this is empty before it starts and after it ends, so
    no wrapper can leak into an untraced measurement.
    """
    leaked = []
    for _span, module_name, class_name, attributes in TARGETS:
        try:
            owner = _resolve(module_name, class_name)
        except (ImportError, AttributeError):
            continue
        for attribute in attributes:
            if hasattr(vars(owner).get(attribute), _MARK):
                leaked.append(f"{module_name}.{class_name or ''}.{attribute}")
    return leaked


class Tracer:
    """Context manager that wraps :data:`TARGETS` and records spans."""

    def __init__(self) -> None:
        self.names: List[str] = [DRIVER_SPAN, *SPAN_NAMES]
        self._name_ids = {name: index for index, name in enumerate(self.names)}
        self.span_name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: List[int] = [-1]
        self._op = [-1]
        self._patched: List[Tuple[Any, str, Any]] = []
        #: Wrap sites named in TARGETS that the program no longer has.
        self.missing: List[str] = []
        self.inner_cost_s = 0.0
        self.outer_cost_s = 0.0
        self._root = self._wrap(_call, self._name_ids[DRIVER_SPAN])

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for span, module_name, class_name, attributes in TARGETS:
            label = f"{module_name}.{class_name}" if class_name else module_name
            try:
                owner = _resolve(module_name, class_name)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            for attribute in attributes:
                if attribute not in vars(owner):
                    if not hasattr(owner, attribute):
                        self.missing.append(f"{label}.{attribute}")
                    continue
                original = vars(owner)[attribute]
                if not isinstance(original, FunctionType):
                    self.missing.append(f"{label}.{attribute}")
                    continue
                setattr(owner, attribute, self._wrap(original, self._name_ids[span]))
                self._patched.append((owner, attribute, original))
        self._calibrate()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def _wrap(self, function: Callable[..., Any], name_id: int) -> Callable[..., Any]:
        names, starts, ends = self.span_name, self.start, self.end
        parents, ops, stack, op = self.parent, self.op, self._stack, self._op
        read = clock

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(op[0])
            ends.append(0.0)
            stack.append(index)
            starts.append(read())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = read()
                stack.pop()

        setattr(traced, _MARK, name_id)
        return traced

    def _calibrate(self) -> None:
        """Measure what one wrapper adds inside its span and on its parent."""
        probe = self._wrap(_noop, self._name_ids[DRIVER_SPAN])
        began = clock()
        for _ in range(_CALIBRATION_CALLS):
            _noop(self, began, None)
        bare = clock() - began
        began = clock()
        for _ in range(_CALIBRATION_CALLS):
            probe(self, began, None)
        wrapped = clock() - began
        inside = sum(self.end) - sum(self.start)
        self.inner_cost_s = max(0.0, inside / _CALIBRATION_CALLS)
        self.outer_cost_s = max(0.0, (wrapped - bare - inside) / _CALIBRATION_CALLS)
        for column in (self.span_name, self.start, self.end, self.parent, self.op):
            del column[:]

    # -- recording ----------------------------------------------------------

    def root(self, function: Callable[..., Any], *args: Any) -> Any:
        """Run one benchmark operation under a fresh :data:`DRIVER_SPAN`."""
        self._op[0] += 1
        return self._root(function, *args)

    # -- analysis -----------------------------------------------------------

    def summarize(self, speed: Speed) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total self seconds (wrapper cost taken out).

        Every span is scaled to the reference machine speed as of the start
        of its operation.
        """
        count = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child_time = [0.0] * count
        child_calls = [0] * count
        for index in range(count):
            above = parent[index]
            if above >= 0:
                child_time[above] += end[index] - start[index]
                child_calls[above] += 1
        inner, outer = self.inner_cost_s, self.outer_cost_s
        calls = [0] * len(self.names)
        self_time = [0.0] * len(self.names)
        names = self.span_name
        scale = 1.0
        for index in range(count):
            # Spans are stored in start order, so an operation's root span
            # comes before every span under it.
            if parent[index] < 0:
                scale = speed.scale(start[index])
            own = (
                end[index] - start[index] - child_time[index]
                - inner - outer * child_calls[index]
            )
            name_id = names[index]
            calls[name_id] += 1
            if own > 0.0:
                self_time[name_id] += own * scale
        return {
            name: {"calls": calls[index], "self_s": self_time[index]}
            for index, name in enumerate(self.names)
        }

    def dump(self, path: str, summary: Dict[str, Any], sample_ops: int = 50) -> None:
        """Write the summary plus every span of the first ``sample_ops`` operations."""
        spans = []
        for index in range(len(self.start)):
            if self.op[index] >= sample_ops:
                break
            spans.append(
                [
                    self.names[self.span_name[index]],
                    self.start[index],
                    self.end[index],
                    self.parent[index],
                    self.op[index],
                ]
            )
        payload = {
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans_total": len(self.start),
            "spans_sampled_ops": sample_ops,
            "wrapper_cost_s": {"inside_span": self.inner_cost_s, "on_parent": self.outer_cost_s},
            "missing_targets": self.missing,
            "summary": summary,
            "spans": spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")


def _noop(receiver: Any, first: Any, second: Any) -> None:
    """Calibration probe shaped like the hottest wrap site, ``pref_part(self, tq, entry)``."""
    return None


def _call(function: Callable[..., Any], *args: Any) -> Any:
    return function(*args)
