"""Bench harness: workload generators, the global-lock bracket and figure
scaffolding."""

import pytest

from repro.bench.figures import FigureData, Series, render_series_table
from repro.bench.workloads import (
    SegmentPicker,
    SimRWLock,
    client_access_loop,
    populate_window,
    run_concurrent_clients,
)
from repro.core.config import DeploymentSpec
from repro.deploy.simulated import SimDeployment
from repro.sim.engine import Simulator
from repro.util.sizes import KB, MB, TB

PAGE = 64 * KB


class TestSegmentPicker:
    def test_offsets_within_window(self):
        picker = SegmentPicker(window=64 * MB, segment=8 * MB, base=1 * MB)
        gen = picker.offsets(0)
        for _ in range(20):
            off = next(gen)
            assert 1 * MB <= off < 1 * MB + 64 * MB
            assert (off - 1 * MB) % (8 * MB) == 0

    def test_each_lap_covers_all_slots(self):
        picker = SegmentPicker(window=32 * MB, segment=8 * MB)
        gen = picker.offsets(3)
        lap = {next(gen) for _ in range(4)}
        assert len(lap) == 4  # a permutation, not sampling with replacement

    def test_clients_deterministic_and_distinct(self):
        picker = SegmentPicker(window=64 * MB, segment=8 * MB)
        a1 = [next(picker.offsets(0)) for _ in range(1)]
        a2 = [next(picker.offsets(0)) for _ in range(1)]
        assert a1 == a2
        seq_a = list(zip(range(8), picker.offsets(0)))
        seq_b = list(zip(range(8), picker.offsets(1)))
        assert seq_a != seq_b

    def test_window_validation(self):
        with pytest.raises(ValueError):
            next(SegmentPicker(window=1 * MB, segment=8 * MB).offsets(0))


class TestWorkloadRuns:
    def make(self, n_clients=2):
        dep = SimDeployment(
            DeploymentSpec(n_data=4, n_meta=4, n_clients=n_clients, cache_capacity=0)
        )
        blob = dep.alloc_blob(1 * TB, PAGE)
        return dep, blob

    def test_populate_window(self):
        dep, blob = self.make()
        client = dep.client()
        versions = populate_window(client, blob, window=8 * MB, segment=2 * MB)
        assert versions == 4
        assert dep.vm.get_latest(blob) == 4

    def test_run_concurrent_clients_write(self):
        dep, blob = self.make(2)
        picker = SegmentPicker(window=16 * MB, segment=2 * MB)
        bws = run_concurrent_clients(dep, blob, 2, 3, picker, kind="write")
        assert len(bws) == 2
        assert all(10 < bw < 120 for bw in bws)

    def test_run_concurrent_clients_read_cached_faster(self):
        dep, blob = self.make(1)
        picker = SegmentPicker(window=8 * MB, segment=2 * MB)
        populate_window(dep.client(), blob, 8 * MB, 2 * MB)
        uncached = run_concurrent_clients(dep, blob, 1, 4, picker, kind="read")
        dep2, blob2 = self.make(1)
        populate_window(dep2.client(), blob2, 8 * MB, 2 * MB)
        picker2 = SegmentPicker(window=8 * MB, segment=2 * MB)
        cached = run_concurrent_clients(
            dep2, blob2, 1, 4, picker2, kind="read", cached=True
        )
        assert cached[0] > uncached[0]

    def test_unknown_kind_rejected(self):
        dep, blob = self.make(1)
        picker = SegmentPicker(window=8 * MB, segment=2 * MB)
        with pytest.raises(ValueError):
            run_concurrent_clients(dep, blob, 1, 1, picker, kind="scan")


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


class TestLockedAccessLoop:
    """This system's own READ / WRITE under a global RW lock: the
    baseline of ablation bench A."""

    WINDOW = 32 * MB

    def deployment(self, n):
        dep = SimDeployment(DeploymentSpec(n_data=8, n_meta=1, n_clients=n))
        blob = dep.alloc_blob(1 * TB, PAGE)
        populate_window(dep.client("populator"), blob, self.WINDOW, 4 * MB)
        return dep, blob

    def mean_bw(self, n, kind):
        dep, blob = self.deployment(n)
        picker = SegmentPicker(window=self.WINDOW, segment=4 * MB)
        bws = run_concurrent_clients(
            dep, blob, n, 5, picker, kind=kind, lock=SimRWLock(dep.sim)
        )
        return sum(bws) / len(bws)

    def test_single_client_bandwidth_reasonable(self):
        assert 40 < self.mean_bw(1, "write") < 120  # the cluster's envelope

    def test_writer_bandwidth_collapses(self):
        """The ablation headline: per-writer bandwidth ~ 1/n."""
        b1, b4, b8 = (self.mean_bw(n, "write") for n in (1, 4, 8))
        assert b4 < 0.4 * b1
        assert b8 < 0.2 * b1

    def test_reader_bandwidth_flat(self):
        b1, b8 = self.mean_bw(1, "read"), self.mean_bw(8, "read")
        assert b8 > 0.8 * b1  # shared lock: readers hardly degrade

    def test_mixed_contention_blocks_readers(self):
        """Unlike the paper's system, here a writer stalls all readers."""
        dep, blob = self.deployment(3)
        lock = SimRWLock(dep.sim)
        clients = [dep.async_client(index=i, cached=False) for i in range(3)]
        dep.sim.run(until=dep.sim.all_of(
            [dep.sim.process(client.open(blob)) for client in clients]
        ))
        writes, reads = [], []
        loops = [
            client_access_loop(
                dep, clients[0], blob, SegmentPicker(self.WINDOW, 32 * MB),
                0, 1, "write", writes, lock,
            ),
            *(
                client_access_loop(
                    dep, clients[i], blob, SegmentPicker(self.WINDOW, 4 * MB),
                    i, 1, "read", reads, lock,
                )
                for i in (1, 2)
            ),
        ]
        dep.sim.run(until=dep.sim.all_of([dep.sim.process(loop) for loop in loops]))
        (write_time,) = writes
        # readers arrived after the writer: they waited out the write
        assert len(reads) == 2
        assert all(t > 0.5 * write_time for t in reads)


class TestFigureScaffolding:
    def test_render_series_table(self):
        fig = FigureData(
            figure_id="Fig X",
            title="demo",
            xlabel="x",
            ylabel="y",
            series=[Series("a", [1, 2], [0.5, 1.5])],
            paper=[Series("a", [1, 2], [0.4, 1.2])],
            notes="n",
        )
        text = render_series_table(fig)
        assert "Fig X" in text and "[measured] a" in text and "[paper] a" in text
        assert "note: n" in text

    def test_series_by_label(self):
        fig = FigureData("f", "t", "x", "y", series=[Series("a", [1], [2])])
        assert fig.series_by_label("a").y == [2]
        with pytest.raises(KeyError):
            fig.series_by_label("zzz")
