"""Bench harness: workload generators and figure scaffolding."""

import pytest

from repro.bench.figures import FigureData, Series, render_series_table
from repro.bench.workloads import SegmentPicker, populate_window, run_concurrent_clients
from repro.core.config import DeploymentSpec
from repro.deploy.simulated import SimDeployment
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
