"""Unit tests for hosts, the transport layer and failure injection."""

import pytest

from repro.errors import HostError, HostUnreachableError, PlatformError, TransferDroppedError
from repro.platform.clock import Scheduler
from repro.platform.events import EventLog
from repro.platform.failure import FailureInjector, FailurePlan
from repro.platform.host import Host, HostState
from repro.platform.metrics import MetricsRegistry
from repro.platform.network import NetworkConfig, SimulatedNetwork
from repro.platform.transport import Transport


@pytest.fixture
def env():
    scheduler = Scheduler()
    network = SimulatedNetwork(NetworkConfig(base_latency_ms=4.0), seed=2)
    transport = Transport(network, scheduler, EventLog(), MetricsRegistry())
    host_a = Host("a", network, scheduler)
    host_b = Host("b", network, scheduler)
    host_a.start()
    host_b.start()
    return scheduler, network, transport, host_a, host_b


class TestHost:
    def test_empty_name_rejected(self, env):
        _, network, _, _, _ = env
        with pytest.raises(HostError):
            Host("", network, Scheduler())

    def test_lifecycle_start_stop(self, env):
        *_, host_a, _ = env
        assert host_a.is_running
        host_a.stop()
        assert host_a.state is HostState.STOPPED

    def test_start_is_idempotent(self, env):
        *_, host_a, _ = env
        host_a.start()
        host_a.start()
        assert host_a.is_running

    def test_stop_requires_running(self, env):
        *_, host_a, _ = env
        host_a.stop()
        with pytest.raises(HostError):
            host_a.stop()

    def test_crash_and_recover(self, env):
        _, network, _, host_a, _ = env
        host_a.crash()
        assert host_a.state is HostState.CRASHED
        assert not network.is_host_up("a")
        host_a.recover()
        assert host_a.is_running
        assert network.is_host_up("a")

    def test_crash_requires_running(self, env):
        *_, host_a, _ = env
        host_a.stop()
        with pytest.raises(HostError):
            host_a.crash()

    def test_recover_requires_not_running(self, env):
        *_, host_a, _ = env
        with pytest.raises(HostError):
            host_a.recover()

    def test_services_attach_and_lookup(self, env):
        *_, host_a, _ = env
        host_a.attach_service("db", {"users": 1})
        assert host_a.service("db") == {"users": 1}
        assert host_a.has_service("db")
        assert "db" in host_a.services()

    def test_duplicate_service_rejected(self, env):
        *_, host_a, _ = env
        host_a.attach_service("db", object())
        with pytest.raises(HostError):
            host_a.attach_service("db", object())

    def test_missing_service_raises(self, env):
        *_, host_a, _ = env
        with pytest.raises(HostError):
            host_a.service("nope")


class TestTransport:
    def test_deliver_advances_clock_and_returns_receipt(self, env):
        scheduler, _, transport, *_ = env
        receipt = transport.deliver("a", "b", "message", payload_bytes=100)
        assert receipt.latency_ms > 0
        assert scheduler.clock.now == pytest.approx(receipt.arrived_at)
        assert receipt.kind == "message"

    def test_deliver_records_event_and_metrics(self, env):
        _, _, transport, *_ = env
        transport.deliver("a", "b", "agent-dispatch", payload_bytes=2048)
        assert transport.event_log.by_category("transfer.agent-dispatch")
        counters = transport.metrics.counters()
        assert counters["transport.agent-dispatch.count"] == 1.0

    def test_failed_delivery_raises_and_counts(self, env):
        _, network, transport, _, host_b = env
        host_b.crash()
        with pytest.raises(HostUnreachableError):
            transport.deliver("a", "b", "message")
        assert transport.metrics.counters()["transport.failures"] == 1.0

    def test_retries_on_loss(self):
        scheduler = Scheduler()
        network = SimulatedNetwork(NetworkConfig(loss_probability=0.6), seed=5)
        transport = Transport(network, scheduler)
        Host("a", network, scheduler).start()
        Host("b", network, scheduler).start()
        delivered = 0
        for _ in range(20):
            try:
                transport.deliver("a", "b", "message", retries=10)
                delivered += 1
            except TransferDroppedError:  # pragma: no cover - extremely unlikely
                pass
        assert delivered == 20
        assert transport.metrics.counters().get("transport.retries", 0) > 0


class TestFailureInjector:
    def test_immediate_crash_and_recover(self, env):
        scheduler, network, _, host_a, host_b = env
        injector = FailureInjector(network, scheduler)
        injector.register_host(host_a)
        injector.crash_host("a")
        assert host_a.state is HostState.CRASHED
        injector.recover_host("a")
        assert host_a.is_running

    def test_unregistered_host_rejected(self, env):
        scheduler, network, *_ = env
        injector = FailureInjector(network, scheduler)
        with pytest.raises(PlatformError):
            injector.crash_host("a")

    def test_link_cut_and_restore(self, env):
        scheduler, network, transport, *_ = env
        injector = FailureInjector(network, scheduler)
        injector.cut_link("a", "b")
        with pytest.raises(PlatformError):
            transport.deliver("a", "b", "message")
        injector.restore_link("a", "b")
        transport.deliver("a", "b", "message")

    def test_scheduled_plan_fires_at_times(self, env):
        scheduler, network, _, host_a, _ = env
        injector = FailureInjector(network, scheduler)
        injector.register_host(host_a)
        plan = FailurePlan().crash_host(10.0, "a").recover_host(20.0, "a")
        injector.apply_plan(plan)
        scheduler.run_until(15.0)
        assert host_a.state is HostState.CRASHED
        scheduler.run_until(25.0)
        assert host_a.is_running

    def test_plan_builder_chains(self):
        plan = (
            FailurePlan()
            .crash_host(1.0, "x")
            .cut_link(2.0, "x", "y")
            .restore_link(3.0, "x", "y")
            .recover_host(4.0, "x")
        )
        assert [action.kind for action in plan.actions] == [
            "crash-host", "cut-link", "restore-link", "recover-host",
        ]

    def test_partition_and_heal(self, env):
        scheduler, network, transport, *_ = env
        injector = FailureInjector(network, scheduler)
        injector.partition(["a"], ["b"])
        with pytest.raises(PlatformError):
            transport.deliver("a", "b", "message")
        injector.heal()
        transport.deliver("a", "b", "message")
