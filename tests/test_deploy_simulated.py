"""Simulated deployment: topology, timing sanity, concurrency behaviour."""

import pytest

from repro.core.config import DeploymentSpec
from repro.deploy.simulated import SimDeployment
from repro.errors import BlobNotFound, ConfigError, VersionNotPublished
from repro.net.sansio import Batch, Call
from repro.sim.network import ClusterSpec
from repro.util.sizes import KB, MB, TB

PAGE = 64 * KB


def make(n=4, clients=2, cache=0, cluster=None):
    return SimDeployment(
        DeploymentSpec(n_data=n, n_meta=n, n_clients=clients, cache_capacity=cache),
        cluster=cluster,
    )


class TestTopology:
    def test_colocated_layout(self):
        dep = make(n=3)
        names = set(dep.network.nodes)
        assert {"vm-node", "pm-node", "prov-0", "prov-1", "prov-2"} <= names
        assert {"client-0", "client-1"} <= names
        # data provider i and metadata provider i share a node
        assert dep.executor.node_of(("data", 1)) is dep.executor.node_of(("meta", 1))

    def test_separate_layout(self):
        dep = SimDeployment(
            DeploymentSpec(n_data=2, n_meta=3, n_clients=1, colocate=False)
        )
        assert dep.executor.node_of(("data", 0)) is not dep.executor.node_of(("meta", 0))

    def test_client_nodes_have_client_role(self):
        dep = make()
        assert all(n.role == "client" for n in dep.client_nodes)
        assert dep.executor.node_of("vm").role == "server"


class TestDeploymentSurface:
    def test_a_fault_through_any_driver_holds_for_every_client(self):
        dep = make(clients=2)
        assert dep.drivers[0] is dep.driver
        dep.drivers[1].fail(("data", 0))
        (error,) = dep.driver.run(_stats_of(("data", 0)))
        assert error.error_type == "PeerUnavailable"
        assert dep.metrics()["actors"]["data/0"] == {"down": str(error)}
        dep.driver.heal(("data", 0))
        (stats,) = dep.drivers[1].run(_stats_of(("data", 0)))
        assert stats["provider_id"] == 0
        # one executor counts for every driver: per-actor served counters
        assert dep.drivers[1].server_stats() == dep.driver.server_stats()
        assert dep.workload_stats()[("data", 0)] == (1, 1)

    def test_add_data_provider_is_refused(self):
        with make() as dep, pytest.raises(ConfigError, match="simulat"):
            dep.add_data_provider()
        assert dep.data_ids == [0, 1, 2, 3]

    def test_a_failed_op_does_not_resurface_in_the_next(self):
        dep = make()
        client = dep.client()
        with pytest.raises(BlobNotFound):
            client.latest("no-such-blob")
        assert dep.driver.call("vm", "vm.stats")["assigns"] == 0


def _stats_of(address):
    results = yield Batch([Call(address, f"{address[0]}.stats", allow_error=True)])
    return results


class TestFunctional:
    def test_write_read_roundtrip_virtual(self):
        dep = make()
        blob = dep.alloc_blob(1 * TB, PAGE)
        client = dep.client()
        wres = client.write_virtual(blob, 0, 8 * PAGE)
        assert wres.version == 1 and wres.published
        rres = client.read_virtual(blob, 0, 8 * PAGE)
        assert rres.version == 1
        assert rres.pages_fetched == 8
        assert rres.data is None  # virtual read skips assembly

    def test_unpublished_read_fails_in_sim(self):
        dep = make()
        blob = dep.alloc_blob(1 * TB, PAGE)
        client = dep.client()
        with pytest.raises(VersionNotPublished):
            client.read_virtual(blob, 0, PAGE, version=3)

    def test_warm_cache_helper(self):
        dep = make()
        blob = dep.alloc_blob(1 * TB, PAGE)
        writer = dep.client()
        writer.write_virtual(blob, 0, 4 * PAGE)
        reader = dep.client(index=1, cached=True)
        cached = dep.warm_client_cache(reader, blob)
        assert cached > 0
        res = reader.read_virtual(blob, 0, 4 * PAGE)
        assert res.nodes_fetched == 0
        assert res.cache_hits > 0

    def test_warm_cache_requires_cache(self):
        dep = make()
        blob = dep.alloc_blob(1 * TB, PAGE)
        client = dep.client(cached=False)
        with pytest.raises(ValueError):
            dep.warm_client_cache(client, blob)


def timed(dep, op):
    """``(op(), the simulated seconds it took)``."""
    start = dep.now
    value = op()
    return value, dep.now - start


def trace_names(dep, op):
    """Run ``op`` traced; its op span and the actor kinds of its rpc spans,
    in completion order with repeats of one batch's kind collapsed."""
    with dep.traced() as tid:
        op()
    spans = [s for s in dep.spans() if s["trace"] == tid]
    (op_span,) = [s for s in spans if s["kind"] == "op"]
    rpcs = [s for s in spans if s["kind"] == "rpc"]
    ends = [s["end_ns"] for s in rpcs]
    assert ends == sorted(ends)
    assert all(
        op_span["start_ns"] <= s["start_ns"] <= s["end_ns"] <= op_span["end_ns"]
        for s in rpcs
    )
    kinds = [s["name"].split("/")[0] for s in rpcs]
    return [k for i, k in enumerate(kinds) if i == 0 or kinds[i - 1] != k]


class TestTimingSanity:
    def test_durations_positive_and_ordered(self):
        dep = make()
        client = dep.client()
        blob = client.alloc(1 * TB, PAGE)
        _, small = timed(dep, lambda: client.write_virtual(blob, 0, PAGE))
        _, large = timed(dep, lambda: client.write_virtual(blob, 1 * MB, 64 * PAGE))
        assert 0 < small < large

    def test_cached_read_faster_than_uncached(self):
        dep = make()
        blob = dep.alloc_blob(1 * TB, PAGE)
        writer = dep.client()
        writer.write_virtual(blob, 0, 32 * PAGE)
        reader = dep.client(index=1, cached=True)
        reader.open(blob)
        _, cold = timed(dep, lambda: reader.read_virtual(blob, 0, 32 * PAGE))
        _, warm = timed(dep, lambda: reader.read_virtual(blob, 0, 32 * PAGE))
        assert warm < cold

    def test_trace_marks_monotone(self):
        """A traced op's rpc spans follow its batches in protocol order,
        inside its op span."""
        dep = make()
        client = dep.client()
        blob = client.alloc(1 * TB, PAGE)
        write = trace_names(dep, lambda: client.write_virtual(blob, 0, 4 * PAGE))
        assert write == ["pm", "data", "vm", "meta", "vm"]
        read = trace_names(dep, lambda: client.read_virtual(blob, 0, 4 * PAGE))
        assert read == ["vm", "meta", "data"]

    def test_latency_scaling(self):
        """10x link latency must slow a small read (RTT-dominated)."""
        def read_time(latency):
            dep = make(cluster=ClusterSpec(latency=latency))
            blob = dep.alloc_blob(1 * TB, PAGE)
            client = dep.client()
            client.write_virtual(blob, 0, PAGE)
            _, dur = timed(dep, lambda: client.read_virtual(blob, 0, PAGE))
            return dur

        assert read_time(1e-3) > read_time(0.1e-3) * 2

    def test_concurrent_clients_slower_than_single(self):
        """Two clients hammering the same providers see some contention."""
        def mean_duration(n_clients):
            dep = make(n=2, clients=n_clients)
            blob = dep.alloc_blob(1 * TB, PAGE)
            writer = dep.client()
            writer.write_virtual(blob, 0, 64 * PAGE)
            durations = []

            def loop(client):
                yield from client.open(blob)
                for _ in range(5):
                    start = dep.sim.now
                    yield from client.read_virtual(blob, 0, 64 * PAGE)
                    durations.append(dep.sim.now - start)

            dep.sim.run(until=dep.sim.join(
                loop(dep.async_client(index=i)) for i in range(n_clients)
            ))
            return sum(durations) / len(durations)

        assert mean_duration(4) > mean_duration(1)

    def test_deterministic_timing(self):
        def once():
            dep = make()
            blob = dep.alloc_blob(1 * TB, PAGE)
            client = dep.client()
            client.write_virtual(blob, 0, 16 * PAGE)
            _, dur = timed(dep, lambda: client.read_virtual(blob, 0, 16 * PAGE))
            return dur

        assert once() == once()
