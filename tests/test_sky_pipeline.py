"""End-to-end supernova campaign over the blob service."""

import numpy as np
import pytest

from repro.core.config import DeploymentSpec
from repro.deploy.inproc import build_inproc
from repro.deploy.threaded import build_threaded
from repro.sky.lightcurve import SUPERNOVA
from repro.sky.pipeline import SupernovaPipeline
from repro.sky.skymodel import SkyModel, SkySpec, SupernovaEvent
from repro.util.sizes import KB

SPEC = SkySpec(tiles_x=2, tiles_y=2, seed=11)
EPOCHS = 10


@pytest.fixture(scope="module")
def campaign_report():
    """One full campaign, reused by several assertions (it is expensive)."""
    model = SkyModel.with_random_events(SPEC, n_supernovae=3, n_variables=3,
                                        epochs=EPOCHS)
    dep = build_inproc(DeploymentSpec(n_data=4, n_meta=4))
    pipe = SupernovaPipeline(model, dep.client("survey"))
    report = pipe.run_campaign(epochs=EPOCHS)
    return model, pipe, report


class TestCampaign:
    def test_all_supernovae_found(self, campaign_report):
        _, _, report = campaign_report
        assert report.true_supernovae == 3
        assert report.recall == 1.0

    def test_no_false_supernovae(self, campaign_report):
        _, _, report = campaign_report
        assert report.precision == 1.0

    def test_variables_not_claimed_as_supernovae(self, campaign_report):
        model, _, report = campaign_report
        claimed = report.supernova_tracks()
        for var in model.variables:
            for track in claimed:
                if track.tile == var.tile:
                    assert np.hypot(track.x - var.x, track.y - var.y) > 3.0

    def test_epoch_versions_monotone(self, campaign_report):
        _, _, report = campaign_report
        assert len(report.epoch_versions) == EPOCHS
        assert report.epoch_versions == sorted(report.epoch_versions)
        # each epoch writes one version per tile
        assert report.epoch_versions[0] == SPEC.n_tiles

    def test_tracks_have_curves_and_labels(self, campaign_report):
        _, _, report = campaign_report
        assert report.tracks, "campaign found no variable objects at all"
        for track in report.tracks:
            assert track.label in ("supernova", "variable", "noise")
            assert track.curve is not None and len(track.curve) == EPOCHS

    def test_io_accounting(self, campaign_report):
        _, pipe, report = campaign_report
        expected_write = EPOCHS * SPEC.n_tiles * pipe.mapping.tile_slot_bytes
        assert report.bytes_written == expected_write
        assert report.bytes_read > 0

    def test_classification_reads_each_track_epoch_once(self, campaign_report):
        """Scans read epoch e of every tile, and each tile's reference
        once; a track's light curve reads its tile once per epoch, the
        reference included."""
        _, pipe, report = campaign_report
        scan_reads = (EPOCHS - 1) * SPEC.n_tiles + SPEC.n_tiles
        track_reads = len(report.tracks) * EPOCHS
        assert report.tracks
        assert report.bytes_read == (
            (scan_reads + track_reads) * pipe.mapping.tile_slot_bytes
        )


class TestSnapshotIsolation:
    def test_reading_old_epoch_after_new_writes(self):
        """Epoch snapshots stay bit-identical while new epochs arrive —
        the versioning property the application depends on."""
        model = SkyModel.with_random_events(SPEC, 1, 1, epochs=4)
        dep = build_inproc(DeploymentSpec(n_data=4, n_meta=4))
        pipe = SupernovaPipeline(model, dep.client())
        pipe.observe_epoch(0)
        tile = (0, 0)
        first = pipe.read_tile(tile, 0)
        for epoch in range(1, 4):
            pipe.observe_epoch(epoch)
            again = pipe.read_tile(tile, 0)
            assert np.array_equal(first, again)

    def test_epoch_images_roundtrip_exactly(self):
        model = SkyModel(spec=SPEC)
        dep = build_inproc(DeploymentSpec(n_data=4, n_meta=4))
        pipe = SupernovaPipeline(model, dep.client())
        pipe.observe_epoch(0)
        for tile in pipe.mapping.all_tiles():
            direct = model.render_epoch(tile, 0)
            via_blob = pipe.read_tile(tile, 0)
            assert np.array_equal(direct, via_blob)


class TestConcurrentCampaign:
    def test_multiple_telescopes_and_workers(self):
        """Write/write (telescopes) + read/write (workers) concurrency on
        the threaded deployment; results equal the serial campaign."""
        model = SkyModel.with_random_events(SPEC, 2, 2, epochs=6)
        with build_threaded(DeploymentSpec(n_data=4, n_meta=4)) as dep:
            pipe = SupernovaPipeline(model, dep.client("coordinator"))
            telescopes = [dep.client(f"scope-{i}") for i in range(2)]
            workers = [dep.client(f"worker-{i}") for i in range(2)]
            report = pipe.run_campaign(
                epochs=6, telescopes=telescopes, workers=workers
            )
        serial_dep = build_inproc(DeploymentSpec(n_data=4, n_meta=4))
        serial = SupernovaPipeline(model, serial_dep.client()).run_campaign(epochs=6)
        assert report.recall == serial.recall
        assert report.claimed_supernovae == serial.claimed_supernovae

    def test_concurrent_epoch_version_pinning(self):
        """While telescopes write epoch e+1, reads of epoch e are stable."""
        model = SkyModel(spec=SPEC)
        with build_threaded(DeploymentSpec(n_data=4, n_meta=4)) as dep:
            pipe = SupernovaPipeline(model, dep.client("coordinator"))
            telescopes = [dep.client(f"t{i}") for i in range(2)]
            pipe.observe_epoch(0, telescopes)
            baseline = {
                tile: pipe.read_tile(tile, 0) for tile in pipe.mapping.all_tiles()
            }
            import threading

            done = threading.Event()

            def write_more():
                for epoch in range(1, 4):
                    pipe.observe_epoch(epoch, telescopes)
                done.set()

            t = threading.Thread(target=write_more)
            t.start()
            reader = dep.client("reader")
            while not done.is_set():
                for tile in pipe.mapping.all_tiles():
                    again = pipe.read_tile(tile, 0, reader)
                    assert np.array_equal(baseline[tile], again)
            t.join(timeout=60)


class TestDetectionAcrossScales:
    def test_bright_supernova_single_tile(self):
        spec = SkySpec(tiles_x=1, tiles_y=1, seed=5)
        sn = SupernovaEvent(tile=(0, 0), x=100.0, y=64.0, t0=3.0, peak_flux=9000.0)
        model = SkyModel(spec=spec, supernovae=[sn])
        dep = build_inproc(DeploymentSpec(n_data=2, n_meta=2))
        pipe = SupernovaPipeline(model, dep.client())
        report = pipe.run_campaign(epochs=8)
        assert report.matched_supernovae == 1
        assert report.precision == 1.0

    def test_empty_sky_no_detections(self):
        model = SkyModel(spec=SkySpec(tiles_x=1, tiles_y=1, seed=6))
        dep = build_inproc(DeploymentSpec(n_data=2, n_meta=2))
        pipe = SupernovaPipeline(model, dep.client())
        report = pipe.run_campaign(epochs=5)
        assert report.claimed_supernovae == 0
        assert report.recall == 1.0  # vacuous but exercised
