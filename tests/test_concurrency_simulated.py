"""Concurrency semantics on the simulator: deterministic interleavings.

The threaded tests exercise real parallelism; these run the same protocol
code under the discrete-event engine, where interleavings are exactly
reproducible — so stronger end-state properties can be asserted for large
concurrent workloads (and failures are replayable).
"""

import pytest

from repro.core.config import DeploymentSpec
from repro.deploy.simulated import SimDeployment
from repro.util.rng import substream
from repro.util.sizes import KB, MB, TB

PAGE = 64 * KB


def make(n_clients, providers=8):
    dep = SimDeployment(
        DeploymentSpec(
            n_data=providers, n_meta=providers, n_clients=n_clients,
            cache_capacity=0,
        )
    )
    blob = dep.alloc_blob(1 * TB, PAGE)
    return dep, blob


class TestConcurrentWritersSim:
    def test_versions_unique_and_complete(self):
        n, per = 8, 5
        dep, blob = make(n)
        versions: list[int] = []

        def writer(i):
            client = dep.async_client(index=i)
            for k in range(per):
                res = yield from client.write_virtual(blob, (i * per + k) * PAGE, PAGE)
                versions.append(res.version)

        dep.sim.run(until=dep.sim.join(writer(i) for i in range(n)))
        assert sorted(versions) == list(range(1, n * per + 1))
        assert dep.vm.get_latest(blob) == n * per

    def test_interleaved_overlapping_writes_all_publish(self):
        n = 10
        dep, blob = make(n)

        def writer(i):
            client = dep.async_client(index=i)
            rng = substream(4, "sim-writer", i)
            for _ in range(4):
                offset = int(rng.integers(0, 64)) * PAGE
                npages = int(rng.integers(1, 8))
                yield from client.write_virtual(blob, offset, npages * PAGE)

        dep.sim.run(until=dep.sim.join(writer(i) for i in range(n)))
        assert dep.vm.get_latest(blob) == n * 4
        assert dep.vm.in_flight_versions(blob) == []

    def test_reader_never_sees_unpublished_version(self):
        """Readers polling LATEST while writers run: every observed version
        must already be published at observation time."""
        dep, blob = make(4)
        observed: list[tuple[int, int]] = []

        def writer(i):
            client = dep.async_client(index=i)
            for k in range(6):
                yield from client.write_virtual(blob, (i * 6 + k) * PAGE, PAGE)

        def reader(i):
            client = dep.async_client(index=i)
            for _ in range(12):
                res = yield from client.read_virtual(blob, 0, PAGE)
                observed.append((res.version, res.latest))

        gens = [writer(i) for i in range(2)] + [reader(i) for i in (2, 3)]
        dep.sim.run(until=dep.sim.join(gens))
        for version, latest in observed:
            assert version <= latest

    def test_stress_many_writers_deterministic(self):
        def run():
            dep, blob = make(16)
            log = []

            def writer(i):
                client = dep.async_client(index=i)
                for k in range(3):
                    res = yield from client.write_virtual(blob, (i * 3 + k) * PAGE, PAGE)
                    log.append((round(dep.sim.now, 9), res.version))

            dep.sim.run(until=dep.sim.join(writer(i) for i in range(16)))
            return log

        assert run() == run()


class TestMetadataConsistencyUnderConcurrency:
    def test_every_snapshot_tree_complete_after_concurrent_writes(self):
        """After n concurrent overlapping writes, every published version's
        tree must be fully traversable (no dangling weaving references)."""
        n = 12
        dep, blob = make(n)

        def writer(i):
            client = dep.async_client(index=i)
            rng = substream(9, "weave", i)
            offset = int(rng.integers(0, 32)) * PAGE
            npages = int(rng.integers(1, 16))
            yield from client.write_virtual(blob, offset, npages * PAGE)

        dep.sim.run(until=dep.sim.join(writer(i) for i in range(n)))
        latest = dep.vm.get_latest(blob)
        assert latest == n
        # traverse every snapshot over the whole written window
        client = dep.client()
        for version in range(1, latest + 1):
            res = client.read_virtual(blob, 0, 48 * PAGE, version=version)
            assert res.version == version  # traversal completed

    def test_border_refs_only_to_smaller_versions(self):
        """Scan all stored internal nodes: children never reference a
        version newer than the node's own (acyclicity of weaving)."""
        n = 8
        dep, blob = make(n)

        def writer(i):
            client = dep.async_client(index=i)
            yield from client.write_virtual(blob, (i % 4) * PAGE, 2 * PAGE)

        dep.sim.run(until=dep.sim.join(writer(i) for i in range(n)))
        for provider in dep.meta.values():
            for key in provider.list_nodes(blob):
                node = provider.get_node(key)
                if not node.is_leaf:
                    assert node.left_version <= key.version
                    assert node.right_version <= key.version
