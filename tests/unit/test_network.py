"""Unit tests for the simulated network."""

import random

import pytest

from repro.errors import (
    HostUnreachableError,
    LinkDownError,
    NetworkError,
    TransferDroppedError,
)
from repro.ecommerce.platform_builder import build_platform
from repro.platform.network import NetworkConfig, SimulatedNetwork


@pytest.fixture
def net():
    network = SimulatedNetwork(NetworkConfig(base_latency_ms=5.0), seed=1)
    for name in ("a", "b", "c"):
        network.register_host(name)
    return network


class TestNetworkConfig:
    def test_defaults_are_valid(self):
        NetworkConfig().validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("base_latency_ms", -1.0),
            ("local_latency_ms", -0.1),
            ("bandwidth_kb_per_ms", 0.0),
            ("jitter_ms", -2.0),
            ("loss_probability", 1.0),
            ("loss_probability", -0.2),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        config = NetworkConfig()
        setattr(config, field, value)
        with pytest.raises(NetworkError):
            config.validate()

    def test_platform_uses_its_network_config_as_given(self):
        config = NetworkConfig(base_latency_ms=7.0)
        platform = build_platform(seed=5, network=config)
        assert platform.network.config is config
        assert platform.network.link("marketplace-1", "seller-1").latency_ms == 7.0
        # Without jitter or loss the build draws nothing: the network's RNG
        # is still the platform seed's.
        assert platform.network._rng.getstate() == random.Random(5).getstate()


class TestTopology:
    def test_register_host_is_idempotent(self, net):
        net.register_host("a")
        assert net.hosts == ["a", "b", "c"]

    def test_links_created_between_all_pairs(self, net):
        assert net.link("a", "b").latency_ms == 5.0
        assert net.link("b", "a").latency_ms == 5.0

    def test_loopback_uses_local_latency(self, net):
        assert net.link("a", "a").latency_ms == pytest.approx(0.05)

    def test_link_with_unknown_host_rejected(self, net):
        with pytest.raises(HostUnreachableError):
            net.link("a", "nowhere")

    def test_set_latency_overrides_one_direction(self, net):
        net.set_latency("a", "b", 42.0)
        assert net.link("a", "b").latency_ms == 42.0
        assert net.link("b", "a").latency_ms == 5.0

    def test_set_negative_latency_rejected(self, net):
        with pytest.raises(NetworkError):
            net.set_latency("a", "b", -1.0)


class TestTransfers:
    def test_base_latency_charged(self, net):
        outcome = net.transfer_latency("a", "b", payload_bytes=0)
        assert outcome.latency_ms == pytest.approx(5.0)

    def test_payload_adds_serialization_time(self, net):
        small = net.transfer_latency("a", "b", payload_bytes=0).latency_ms
        large = net.transfer_latency("a", "b", payload_bytes=1024 * 100).latency_ms
        assert large > small

    def test_unknown_hosts_rejected(self, net):
        with pytest.raises(HostUnreachableError):
            net.transfer_latency("a", "nowhere")
        with pytest.raises(HostUnreachableError):
            net.transfer_latency("nowhere", "a")

    def test_counters_accumulate(self, net):
        net.transfer_latency("a", "b", payload_bytes=100)
        net.transfer_latency("a", "c", payload_bytes=200)
        assert net.total_transfers == 2
        assert net.total_bytes == 300
        assert net.stats()["total_transfers"] == 2.0

    def test_negative_payload_clamped(self, net):
        outcome = net.transfer_latency("a", "b", payload_bytes=-50)
        assert outcome.bytes_moved == 0

    def test_jitter_stays_within_bound(self):
        network = SimulatedNetwork(NetworkConfig(base_latency_ms=5.0, jitter_ms=2.0), seed=3)
        network.register_host("a")
        network.register_host("b")
        for _ in range(50):
            latency = network.transfer_latency("a", "b").latency_ms
            assert 5.0 <= latency <= 7.0

    def test_deterministic_given_seed(self):
        def run(seed):
            network = SimulatedNetwork(NetworkConfig(jitter_ms=3.0), seed=seed)
            network.register_host("a")
            network.register_host("b")
            return [network.transfer_latency("a", "b").latency_ms for _ in range(10)]

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestFailures:
    def test_cut_link_blocks_both_directions(self, net):
        net.cut_link("a", "b")
        with pytest.raises(LinkDownError):
            net.transfer_latency("a", "b")
        with pytest.raises(LinkDownError):
            net.transfer_latency("b", "a")

    def test_cut_link_one_way(self, net):
        net.cut_link("a", "b", both_ways=False)
        with pytest.raises(LinkDownError):
            net.transfer_latency("a", "b")
        net.transfer_latency("b", "a")

    def test_restore_link(self, net):
        net.cut_link("a", "b")
        net.restore_link("a", "b")
        net.transfer_latency("a", "b")

    def test_host_down_blocks_transfers(self, net):
        net.take_host_down("b")
        with pytest.raises(HostUnreachableError):
            net.transfer_latency("a", "b")
        with pytest.raises(HostUnreachableError):
            net.transfer_latency("b", "a")
        assert not net.is_host_up("b")

    def test_bring_host_up(self, net):
        net.take_host_down("b")
        net.bring_host_up("b")
        net.transfer_latency("a", "b")

    def test_partition_blocks_cross_group_traffic(self, net):
        net.partition(["a"], ["b", "c"])
        with pytest.raises(HostUnreachableError):
            net.transfer_latency("a", "b")
        net.transfer_latency("b", "c")

    def test_heal_partitions(self, net):
        net.partition(["a"], ["b"])
        net.heal_partitions()
        net.transfer_latency("a", "b")

    def test_overlapping_partition_rejected(self, net):
        with pytest.raises(NetworkError):
            net.partition(["a", "b"], ["b", "c"])

    def test_loss_model_drops_and_counts(self):
        network = SimulatedNetwork(NetworkConfig(loss_probability=0.5), seed=11)
        network.register_host("a")
        network.register_host("b")
        drops = 0
        for _ in range(100):
            try:
                network.transfer_latency("a", "b")
            except TransferDroppedError:
                drops += 1
        assert drops > 0
        assert network.dropped_transfers == drops
