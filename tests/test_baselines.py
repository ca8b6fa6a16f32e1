"""Lock-based baseline: the simulated RW lock and the writer-collapse behaviour."""

import pytest

from repro.baselines.locked import LockedClusterSim, SimRWLock
from repro.core.config import DeploymentSpec
from repro.sim.engine import Simulator
from repro.util.sizes import KB, MB


class TestSimRWLock:
    def test_readers_share(self):
        sim = Simulator()
        lock = SimRWLock(sim)
        r1, r2 = lock.acquire("read"), lock.acquire("read")
        sim.run()
        assert r1.triggered and r2.triggered
        assert lock.max_readers == 2

    def test_writer_excludes_readers(self):
        sim = Simulator()
        lock = SimRWLock(sim)
        w = lock.acquire("write")
        r = lock.acquire("read")
        sim.run()
        assert w.triggered and not r.triggered
        lock.release("write")
        sim.run()
        assert r.triggered

    def test_fifo_no_starvation(self):
        """A writer queued behind readers runs before later readers."""
        sim = Simulator()
        lock = SimRWLock(sim)
        r1 = lock.acquire("read")
        w = lock.acquire("write")
        r2 = lock.acquire("read")
        sim.run()
        assert r1.triggered and not w.triggered and not r2.triggered
        lock.release("read")
        sim.run()
        assert w.triggered and not r2.triggered
        lock.release("write")
        sim.run()
        assert r2.triggered

    def test_writers_serialize(self):
        sim = Simulator()
        lock = SimRWLock(sim)
        w1, w2 = lock.acquire("write"), lock.acquire("write")
        sim.run()
        assert w1.triggered and not w2.triggered


class TestLockedClusterSim:
    def spec(self, n):
        return DeploymentSpec(n_data=8, n_meta=1, n_clients=n)

    def test_single_client_bandwidth_reasonable(self):
        sim = LockedClusterSim(self.spec(1))
        (bw,) = sim.run_clients(1, iterations=5, size=4 * MB, kind="write")
        assert 40 < bw < 120  # within the cluster's physical envelope

    def test_writer_bandwidth_collapses(self):
        """The ablation headline: per-writer bandwidth ~ 1/n."""
        def mean_bw(n):
            sim = LockedClusterSim(self.spec(n))
            bws = sim.run_clients(n, iterations=5, size=4 * MB, kind="write")
            return sum(bws) / len(bws)

        b1, b4, b8 = mean_bw(1), mean_bw(4), mean_bw(8)
        assert b4 < 0.4 * b1
        assert b8 < 0.2 * b1

    def test_reader_bandwidth_flat(self):
        def mean_bw(n):
            sim = LockedClusterSim(self.spec(n))
            bws = sim.run_clients(n, iterations=5, size=4 * MB, kind="read")
            return sum(bws) / len(bws)

        b1, b8 = mean_bw(1), mean_bw(8)
        assert b8 > 0.8 * b1  # shared lock: readers hardly degrade

    def test_mixed_contention_blocks_readers(self):
        """Unlike the paper's system, here a writer stalls all readers."""
        sim = LockedClusterSim(DeploymentSpec(n_data=8, n_meta=1, n_clients=4))
        durations = []

        def reader(idx):
            d = yield from sim.access_proto(idx, 4 * MB, "read")
            durations.append(("r", d))

        def writer(idx):
            d = yield from sim.access_proto(idx, 32 * MB, "write")
            durations.append(("w", d))

        procs = [
            sim.sim.process(writer(0)),
            sim.sim.process(reader(1)),
            sim.sim.process(reader(2)),
        ]
        sim.sim.run(until=sim.sim.all_of(procs))
        reader_times = [d for k, d in durations if k == "r"]
        write_time = next(d for k, d in durations if k == "w")
        # readers arrived after the writer: they waited out the write
        assert all(t > 0.5 * write_time for t in reader_times)
