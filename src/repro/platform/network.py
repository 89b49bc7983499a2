"""Simulated network between agent servers.

The paper's platform spans a coordinator server, several marketplaces, buyer
agent servers and seller servers connected by a campus network.  This module
models that network: every pair of registered hosts gets a :class:`Link` with
configurable base latency, per-byte transfer cost, jitter and loss.  The model
is deterministic given the seed, so the same benchmark run always produces the
same latencies.

The network also supports partitions and administrative link cuts, which the
failure-injection tests use to exercise the robustness claims of mobile agents
("robust and fault-tolerant", §1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple
import random

from repro.errors import (
    HostUnreachableError,
    LinkDownError,
    NetworkError,
    TransferDroppedError,
)

__all__ = ["NetworkConfig", "Link", "SimulatedNetwork", "TransferOutcome"]


@dataclass
class NetworkConfig:
    """Parameters of the simulated network.

    Attributes:
        base_latency_ms: one-way propagation delay between two distinct hosts.
        local_latency_ms: delay for a host talking to itself (loopback).
        bandwidth_kb_per_ms: transfer rate used to charge for payload size.
        jitter_ms: maximum uniform jitter added to each transfer.
        loss_probability: probability a transfer is dropped outright.
    """

    base_latency_ms: float = 5.0
    local_latency_ms: float = 0.05
    bandwidth_kb_per_ms: float = 100.0
    jitter_ms: float = 0.0
    loss_probability: float = 0.0

    def validate(self) -> None:
        if self.base_latency_ms < 0 or self.local_latency_ms < 0:
            raise NetworkError("latencies must be non-negative")
        if self.bandwidth_kb_per_ms <= 0:
            raise NetworkError("bandwidth must be positive")
        if self.jitter_ms < 0:
            raise NetworkError("jitter must be non-negative")
        if not 0.0 <= self.loss_probability < 1.0:
            raise NetworkError("loss probability must be in [0, 1)")


@dataclass
class Link:
    """State of the (directed) connectivity between two hosts."""

    source: str
    destination: str
    latency_ms: float
    up: bool = True
    transfers: int = 0
    bytes_moved: int = 0

    def key(self) -> Tuple[str, str]:
        return (self.source, self.destination)


@dataclass(frozen=True)
class TransferOutcome:
    """Result of charging one transfer to the network model."""

    latency_ms: float
    bytes_moved: int
    source: str
    destination: str


class SimulatedNetwork:
    """Latency/bandwidth/loss model over a set of named hosts.

    ``seed`` seeds the private RNG that draws jitter and loss, so the same
    seed always produces the same latencies.
    """

    def __init__(self, config: Optional[NetworkConfig] = None, seed: int = 0) -> None:
        self.config = config or NetworkConfig()
        self.config.validate()
        self._rng = random.Random(seed)
        self._hosts: Set[str] = set()
        self._links: Dict[Tuple[str, str], Link] = {}
        self._down_hosts: Set[str] = set()
        self._partitions: List[Set[str]] = []
        self.total_transfers = 0
        self.total_bytes = 0
        self.dropped_transfers = 0

    # -- topology -----------------------------------------------------------

    def register_host(self, name: str) -> None:
        """Add ``name`` to the topology, creating links to existing hosts."""
        if name in self._hosts:
            return
        for other in self._hosts:
            self._ensure_link(name, other)
            self._ensure_link(other, name)
        self._ensure_link(name, name)
        self._hosts.add(name)

    def _ensure_link(self, source: str, destination: str) -> Link:
        key = (source, destination)
        if key not in self._links:
            latency = (
                self.config.local_latency_ms
                if source == destination
                else self.config.base_latency_ms
            )
            self._links[key] = Link(source, destination, latency)
        return self._links[key]

    @property
    def hosts(self) -> List[str]:
        return sorted(self._hosts)

    def link(self, source: str, destination: str) -> Link:
        if source not in self._hosts or destination not in self._hosts:
            raise HostUnreachableError(
                f"link {source}->{destination}: one of the hosts is not registered"
            )
        return self._ensure_link(source, destination)

    def set_latency(self, source: str, destination: str, latency_ms: float) -> None:
        """Override the one-way latency of a specific directed link."""
        if latency_ms < 0:
            raise NetworkError("latency must be non-negative")
        self.link(source, destination).latency_ms = latency_ms

    # -- failures -----------------------------------------------------------

    def cut_link(self, source: str, destination: str, both_ways: bool = True) -> None:
        self.link(source, destination).up = False
        if both_ways:
            self.link(destination, source).up = False

    def restore_link(self, source: str, destination: str, both_ways: bool = True) -> None:
        self.link(source, destination).up = True
        if both_ways:
            self.link(destination, source).up = True

    def take_host_down(self, name: str) -> None:
        if name not in self._hosts:
            raise HostUnreachableError(f"unknown host {name!r}")
        self._down_hosts.add(name)

    def bring_host_up(self, name: str) -> None:
        self._down_hosts.discard(name)

    def is_host_up(self, name: str) -> bool:
        return name in self._hosts and name not in self._down_hosts

    def can_reach(self, source: str, destination: str) -> bool:
        """Whether a transfer ``source → destination`` would start now: both
        hosts registered and up, no partition between them, the link not
        cut.  The loss model draws per transfer and is not consulted."""
        return (
            self.is_host_up(source)
            and self.is_host_up(destination)
            and not self._partitioned(source, destination)
            and self._ensure_link(source, destination).up
        )

    def partition(self, group_a: Iterable[str], group_b: Iterable[str]) -> None:
        """Split the network so the two groups cannot reach each other."""
        set_a, set_b = set(group_a), set(group_b)
        overlap = set_a & set_b
        if overlap:
            raise NetworkError(f"partition groups overlap: {sorted(overlap)}")
        self._partitions.append(set_a)
        self._partitions.append(set_b)

    def heal_partitions(self) -> None:
        self._partitions.clear()

    def _partitioned(self, source: str, destination: str) -> bool:
        for index in range(0, len(self._partitions), 2):
            group_a = self._partitions[index]
            group_b = self._partitions[index + 1]
            if (source in group_a and destination in group_b) or (
                source in group_b and destination in group_a
            ):
                return True
        return False

    # -- transfers ----------------------------------------------------------

    def transfer_latency(
        self, source: str, destination: str, payload_bytes: int = 0
    ) -> TransferOutcome:
        """Charge one transfer and return its latency.

        Raises:
            HostUnreachableError: unknown host, down host or partition.
            LinkDownError: the directed link was administratively cut.
            TransferDroppedError: the loss model dropped this transfer.
        """
        if source not in self._hosts:
            raise HostUnreachableError(f"unknown source host {source!r}")
        if destination not in self._hosts:
            raise HostUnreachableError(f"unknown destination host {destination!r}")
        if source in self._down_hosts:
            raise HostUnreachableError(f"source host {source!r} is down")
        if destination in self._down_hosts:
            raise HostUnreachableError(f"destination host {destination!r} is down")
        if self._partitioned(source, destination):
            raise HostUnreachableError(
                f"hosts {source!r} and {destination!r} are in different partitions"
            )
        link = self._ensure_link(source, destination)
        if not link.up:
            raise LinkDownError(f"link {source}->{destination} is down")
        if self.config.loss_probability and (
            self._rng.random() < self.config.loss_probability
        ):
            self.dropped_transfers += 1
            raise TransferDroppedError(
                f"transfer {source}->{destination} dropped by loss model"
            )

        payload_bytes = max(0, int(payload_bytes))
        serialization_ms = (payload_bytes / 1024.0) / self.config.bandwidth_kb_per_ms
        jitter = self._rng.uniform(0.0, self.config.jitter_ms) if self.config.jitter_ms else 0.0
        latency = link.latency_ms + serialization_ms + jitter

        link.transfers += 1
        link.bytes_moved += payload_bytes
        self.total_transfers += 1
        self.total_bytes += payload_bytes
        return TransferOutcome(latency, payload_bytes, source, destination)

    def round_trip_latency(
        self,
        source: str,
        destination: str,
        request_bytes: int = 0,
        response_bytes: int = 0,
    ) -> float:
        """Charge one request/response round trip; return its total latency.

        Two directed transfers (``source → destination`` carrying the
        request, ``destination → source`` carrying the response) are charged
        to the model; the caller decides what to do with the summed latency
        — notably the fleet fan-out charges the *maximum* round trip across
        all shards to the clock instead of letting each transfer advance it
        sequentially.  Any failure (down host, partition, cut link, loss)
        raises like :meth:`transfer_latency`; a response-leg failure after a
        successful request leg is exactly a timed-out RPC.
        """
        request = self.transfer_latency(source, destination, request_bytes)
        response = self.transfer_latency(destination, source, response_bytes)
        return request.latency_ms + response.latency_ms

    # -- reporting ----------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Aggregate counters used by the platform benchmarks."""
        return {
            "hosts": float(len(self._hosts)),
            "total_transfers": float(self.total_transfers),
            "total_bytes": float(self.total_bytes),
            "dropped_transfers": float(self.dropped_transfers),
        }
