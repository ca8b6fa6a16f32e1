"""End-to-end supernova campaign over the blob service.

The workflow of paper §I on top of the versioned blob:

1. **Observe** — telescopes render each epoch's tiles and WRITE them into
   the sky blob (page-aligned tile slots). Multiple telescopes write
   concurrently (write/write concurrency); each epoch's completion version
   is recorded, pinning that epoch as an immutable snapshot.
2. **Scan** — analysis workers READ tile snapshots (pinned versions, so
   scanning proceeds while newer epochs are being written: read/write
   concurrency), difference against the reference epoch and extract
   candidates.
3. **Track & classify** — candidates are clustered into per-position
   tracks, light curves extracted across epoch snapshots, and each track
   classified supernova / variable / noise.
4. **Evaluate** — against the synthetic ground truth: precision and recall
   over the injected supernovae.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.core.client import BlobClient
from repro.sky.detect import Candidate, detect_sources, difference_image
from repro.sky.lightcurve import (
    SUPERNOVA,
    classify_lightcurve,
    extract_flux,
)
from repro.sky.mapping import SkyMapping
from repro.sky.skymodel import SkyModel

Tile = tuple[int, int]


@dataclass
class Track:
    """Candidate detections clustered at one sky position."""

    tile: Tile
    x: float
    y: float
    hits: int = 1
    label: str = ""
    curve: np.ndarray | None = None

    def absorb(self, cand: Candidate) -> None:
        """Flux-free running mean of the position."""
        self.x = (self.x * self.hits + cand.x) / (self.hits + 1)
        self.y = (self.y * self.hits + cand.y) / (self.hits + 1)
        self.hits += 1


@dataclass
class CampaignReport:
    """Outcome of one campaign."""

    epochs: int
    epoch_versions: list[int]
    tracks: list[Track]
    true_supernovae: int
    matched_supernovae: int
    claimed_supernovae: int
    bytes_written: int = 0
    bytes_read: int = 0

    @property
    def recall(self) -> float:
        return (
            self.matched_supernovae / self.true_supernovae
            if self.true_supernovae
            else 1.0
        )

    @property
    def precision(self) -> float:
        return (
            self.matched_supernovae / self.claimed_supernovae
            if self.claimed_supernovae
            else 1.0
        )

    def supernova_tracks(self) -> list[Track]:
        return [t for t in self.tracks if t.label == SUPERNOVA]


class SupernovaPipeline:
    """Drives a campaign against a deployment's blob service."""

    def __init__(
        self,
        model: SkyModel,
        client: BlobClient,
        pagesize: int = 1 << 16,
        match_radius: float = 3.0,
        threshold_sigma: float = 5.0,
    ) -> None:
        self.model = model
        self.client = client
        self.mapping = SkyMapping(model.spec, pagesize)
        self.match_radius = match_radius
        self.threshold_sigma = threshold_sigma
        self.blob_id = client.alloc(self.mapping.blob_size, pagesize)
        self.epoch_versions: list[int] = []
        self.bytes_written = 0
        self.bytes_read = 0
        #: each tile's decoded reference (epoch 0), kept after its first
        #: read: the snapshot is pinned and immutable, so the copy is
        #: never stale
        self._references: dict[Tile, np.ndarray] = {}

    # -- observe -----------------------------------------------------------

    def observe_epoch(
        self, epoch: int, telescopes: list[BlobClient] | None = None
    ) -> int:
        """WRITE all tiles of one epoch; returns the pinned epoch version.

        With several telescope clients the tile set is partitioned among
        them and written from concurrent threads (each telescope is an
        independent writer, as in the paper's multi-telescope scenario).
        """
        telescopes = telescopes or [self.client]
        tiles = self.mapping.all_tiles()
        shares: list[list[Tile]] = [
            tiles[i :: len(telescopes)] for i in range(len(telescopes))
        ]

        def observe(client: BlobClient, share: list[Tile]) -> int:
            written = 0
            for tile in share:
                image = self.model.render_epoch(tile, epoch)
                data = self.mapping.encode_tile(image)
                client.write(self.blob_id, data, self.mapping.tile_offset(tile))
                written += len(data)
            return written

        if len(telescopes) == 1:
            self.bytes_written += observe(telescopes[0], shares[0])
        else:
            sums = [0] * len(telescopes)

            def worker(i: int) -> None:
                sums[i] = observe(telescopes[i], shares[i])

            threads = [
                threading.Thread(target=worker, args=(i,), name=f"telescope-{i}")
                for i in range(len(telescopes))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            self.bytes_written += sum(sums)
        version = self.client.latest(self.blob_id)
        self.epoch_versions.append(version)
        return version

    # -- read snapshots ------------------------------------------------------

    def read_tile(self, tile: Tile, epoch: int, client: BlobClient | None = None) -> np.ndarray:
        """READ a tile image from the pinned snapshot of an epoch."""
        client = client or self.client
        version = self.epoch_versions[epoch]
        result = client.read(
            self.blob_id,
            self.mapping.tile_offset(tile),
            self.mapping.tile_slot_bytes,
            version=version,
        )
        assert result.data is not None
        self.bytes_read += len(result.data)
        return self.mapping.decode_tile(result.data)

    # -- scan ----------------------------------------------------------------

    def scan_epoch(
        self, epoch: int, workers: list[BlobClient] | None = None
    ) -> dict[Tile, list[Candidate]]:
        """Difference epoch vs the reference (epoch 0) and extract candidates.

        Tiles are independent — "the analysis itself is an embarrassingly
        parallel problem" (§I) — so with several worker clients the scan
        fans out over threads, reading pinned snapshots while later epochs
        may still be written. A tile's reference is read once per
        campaign, by the first scan that reaches it.
        """
        workers = workers or [self.client]
        tiles = self.mapping.all_tiles()
        out: dict[Tile, list[Candidate]] = {}
        lock = threading.Lock()

        def scan(client: BlobClient, share: list[Tile]) -> None:
            for tile in share:
                reference = self._references.get(tile)
                if reference is None:
                    reference = self._references[tile] = self.read_tile(
                        tile, 0, client
                    )
                current = self.read_tile(tile, epoch, client)
                diff = difference_image(current, reference)
                cands = detect_sources(diff, self.threshold_sigma)
                with lock:
                    out[tile] = cands

        if len(workers) == 1:
            scan(workers[0], tiles)
        else:
            shares = [tiles[i :: len(workers)] for i in range(len(workers))]
            threads = [
                threading.Thread(
                    target=scan, args=(workers[i], shares[i]), name=f"scanner-{i}"
                )
                for i in range(len(workers))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        return out

    # -- campaign -----------------------------------------------------------------

    def run_campaign(
        self,
        epochs: int,
        telescopes: list[BlobClient] | None = None,
        workers: list[BlobClient] | None = None,
    ) -> CampaignReport:
        """Observe all epochs, scan, track, classify, evaluate."""
        tracks: list[Track] = []
        for epoch in range(epochs):
            self.observe_epoch(epoch, telescopes)
            if epoch == 0:
                continue
            for tile, cands in self.scan_epoch(epoch, workers).items():
                for cand in cands:
                    self._absorb(tracks, tile, cand)
        self._classify_tracks(tracks, epochs)
        return self._evaluate(tracks, epochs)

    def _absorb(self, tracks: list[Track], tile: Tile, cand: Candidate) -> None:
        for track in tracks:
            if track.tile == tile and cand.distance_to(track.x, track.y) <= self.match_radius:
                track.absorb(cand)
                return
        tracks.append(Track(tile=tile, x=cand.x, y=cand.y))

    def _classify_tracks(self, tracks: list[Track], epochs: int) -> None:
        # photometric noise of an aperture sum: sigma * aperture diameter
        aperture = 4
        noise_floor = self.model.spec.noise_sigma * (2 * aperture + 1) * 2.0
        for track in tracks:
            curve = np.empty(epochs)
            for epoch in range(epochs):
                img = self.read_tile(track.tile, epoch).astype(np.float64)
                if epoch == 0:
                    ref = img  # the reference is epoch 0: one read serves both
                curve[epoch] = extract_flux(img - ref, track.x, track.y, aperture)
            track.curve = curve
            track.label = classify_lightcurve(curve, noise_floor)

    def _evaluate(self, tracks: list[Track], epochs: int) -> CampaignReport:
        claimed = [t for t in tracks if t.label == SUPERNOVA]
        matched = 0
        for sn in self.model.supernovae:
            hit = any(
                t.tile == sn.tile
                and float(np.hypot(t.x - sn.x, t.y - sn.y)) <= self.match_radius
                for t in claimed
            )
            if hit:
                matched += 1
        return CampaignReport(
            epochs=epochs,
            epoch_versions=list(self.epoch_versions),
            tracks=tracks,
            true_supernovae=len(self.model.supernovae),
            matched_supernovae=matched,
            claimed_supernovae=len(claimed),
            bytes_written=self.bytes_written,
            bytes_read=self.bytes_read,
        )
