"""Cluster/network model."""

from dataclasses import replace

import pytest

from repro.sim.engine import Simulator
from repro.sim.network import ClusterSpec, Network


def run_transfer(net, src, dst, nbytes):
    sim = net.sim
    proc = sim.process(net.transfer(src, dst, nbytes))
    sim.run(until=proc)
    return sim.now


class TestClusterSpec:
    def test_defaults_match_testbed(self):
        spec = ClusterSpec()
        assert spec.latency == pytest.approx(0.1e-3)
        assert spec.bandwidth == pytest.approx(117.5 * (1 << 20))

    def test_effective_rates_below_wire(self):
        spec = ClusterSpec()
        assert spec.rx_rate("client") < spec.bandwidth
        assert spec.rx_rate("server") < spec.bandwidth
        # clients are the CPU-bound side
        assert spec.rx_rate("client") < spec.rx_rate("server")

    def test_service_time_defaults(self):
        spec = ClusterSpec()
        service = {m: spec.method_costs(m)[0] for m in ("meta.put_node", "meta.get_node")}
        assert service["meta.put_node"] > service["meta.get_node"]
        assert spec.method_costs("unknown.method")[0] > 0

    def test_reply_cpu_dominated_by_tree_nodes(self):
        spec = ClusterSpec()
        assert spec.method_costs("meta.get_node")[1] > spec.method_costs("data.get_page")[1]

    def test_compute_cost(self):
        spec = ClusterSpec()
        one = spec.compute_cost("client.build_node", 1)
        assert spec.compute_cost("client.build_node", 10) == pytest.approx(10 * one)
        with pytest.raises(KeyError):
            spec.compute_cost("nope", 1)

    def test_with_overrides(self):
        base = ClusterSpec()
        base.method_costs("meta.get_node")  # fill the memo before copying
        spec = replace(
            base, latency=5e-3, aggregate=False,
            service_fixed={"meta.get_node": 1e-3},
        )
        assert spec.latency == 5e-3
        assert spec.aggregate is False
        # a copy prices from its own tables, not the original's memo
        assert spec.method_costs("meta.get_node")[0] == 1e-3
        # original untouched (frozen dataclass semantics)
        assert base.aggregate is True
        assert base.method_costs("meta.get_node")[0] == 45e-6

    def test_async_latency(self):
        spec = ClusterSpec()
        assert spec.method_costs("meta.put_node")[2] > 0
        assert spec.method_costs("meta.get_node")[2] == 0.0


class TestNetwork:
    def test_node_registry(self):
        net = Network(Simulator())
        a = net.add_node("a")
        assert net.nodes["a"] is a
        with pytest.raises(ValueError):
            net.add_node("a")

    def test_node_role_validation(self):
        net = Network(Simulator())
        with pytest.raises(ValueError):
            net.add_node("x", role="gateway")

    def test_transfer_time_includes_latency_and_serialization(self):
        sim = Simulator()
        spec = ClusterSpec()
        net = Network(sim, spec)
        a, b = net.add_node("a"), net.add_node("b")
        nbytes = 1 << 20
        elapsed = run_transfer(net, a, b, nbytes)
        expected = nbytes / spec.tx_rate("server") + spec.latency + nbytes / spec.rx_rate("server")
        assert elapsed == pytest.approx(expected, rel=1e-9)

    def test_loopback_is_nearly_free(self):
        sim = Simulator()
        net = Network(sim)
        a = net.add_node("a")
        elapsed = run_transfer(net, a, a, 1 << 30)
        assert elapsed < 1e-3

    def test_counters(self):
        sim = Simulator()
        net = Network(sim)
        a, b = net.add_node("a"), net.add_node("b")
        run_transfer(net, a, b, 1000)
        assert net.messages_sent == 1
        assert net.bytes_sent == 1000

    def test_concurrent_transfers_share_nic(self):
        """Two transfers out of one node serialize on its tx lane."""
        sim = Simulator()
        spec = ClusterSpec()
        net = Network(sim, spec)
        src = net.add_node("src")
        dsts = [net.add_node(f"d{i}") for i in range(2)]
        nbytes = 10 << 20
        sim.run(until=sim.join(net.transfer(src, d, nbytes) for d in dsts))
        single = nbytes / spec.tx_rate("server")
        # both transfers must serialize on src.tx: ~2x one transfer time
        assert sim.now >= 2 * single
        assert sim.now < 2 * single + nbytes / spec.rx_rate("server") + 1e-2

    def test_distinct_paths_run_parallel(self):
        sim = Simulator()
        spec = ClusterSpec()
        net = Network(sim, spec)
        pairs = [(net.add_node(f"s{i}"), net.add_node(f"d{i}")) for i in range(4)]
        nbytes = 10 << 20
        sim.run(until=sim.join(net.transfer(s, d, nbytes) for s, d in pairs))
        single = (
            nbytes / spec.tx_rate("server")
            + spec.latency
            + nbytes / spec.rx_rate("server")
        )
        assert sim.now == pytest.approx(single, rel=1e-6)
