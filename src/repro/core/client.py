"""The client facade over the sans-io protocols.

A :class:`BlobClient` binds a driver, a metadata router and a private
metadata cache, and exposes the paper's primitives as ordinary methods.
Many clients may share one driver — each keeps its own cache and
write-uid sequence, exactly like independent client processes in the
paper's deployment. Each primitive is one private protocol that resolves
the blob's geometry itself, and :meth:`BlobClient._run` is the one place
a client meets its driver — all :class:`AsyncBlobClient` changes: it
awaits the aio driver's ``drive`` (:mod:`repro.net.aio`), so thousands of
client coroutines share one event loop, a shape the paper's 64-thread
client tier cannot express.
"""

from __future__ import annotations

import itertools
import threading
from functools import partial
from typing import Any, Awaitable, Callable, Sequence

from repro.core.protocol import (
    LATEST,
    ReadResult,
    WriteResult,
    alloc_protocol,
    fresh_write_uid,
    read_protocol,
    split_pages,
    stat_protocol,
    virtual_pages,
    write_protocol,
)
from repro.core.gc import GCStats, gc_protocol
from repro.metadata.cache import DEFAULT_CAPACITY, MetadataCache
from repro.metadata.router import StaticRouter
from repro.metadata.tree import TreeGeometry
from repro.net.sansio import Protocol
from repro.providers.page import PagePayload
from repro.util.bits import align_down, align_up

_client_seq = itertools.count(1)


class BlobClient:
    """One logical client of the blob service."""

    def __init__(
        self,
        driver,
        router: StaticRouter,
        *,
        name: str | None = None,
        cache_capacity: int = DEFAULT_CAPACITY,
        elastic: bool = False,
    ) -> None:
        self.driver = driver
        self.router = router
        #: elastic-cluster mode (deployments with strategy="hash_ring"):
        #: WRITEs allocate at each page's consistent-hash home and READs
        #: fall back to the pm's relocation table when a rebalance moved
        #: pages off the providers their metadata records
        self.elastic = elastic
        self.name = name or f"client-{next(_client_seq)}"
        self.cache: MetadataCache | None = (
            MetadataCache(cache_capacity) if cache_capacity > 0 else None
        )
        self._geoms: dict[str, TreeGeometry] = {}
        self._geom_lock = threading.Lock()

    def _run(self, proto: Protocol[Any]) -> Any:
        """Run one primitive's protocol (blocking; awaitable in the subclass)."""
        return self.driver.run(proto)

    # -- blob lifecycle ---------------------------------------------------

    def alloc(self, total_size: int, pagesize: int) -> str:
        """Create a blob (paper's ALLOC); returns its globally unique id."""
        return self._run(self._alloc(total_size, pagesize))

    def open(self, blob_id: str) -> TreeGeometry:
        """Learn (and cache) the geometry of an existing blob."""
        return self._run(self._geometry(blob_id))

    geometry = open

    def latest(self, blob_id: str) -> int:
        """Latest published version number."""
        return self._run(self._latest(blob_id))

    # -- WRITE -----------------------------------------------------------

    def write(self, blob_id: str, data: bytes, offset: int) -> WriteResult:
        """Page-aligned WRITE of real bytes; returns the assigned version."""
        pages = partial(split_pages, data)
        return self._run(self._write(blob_id, offset, pages))

    def write_pages(
        self, blob_id: str, offset: int, payloads: Sequence[PagePayload]
    ) -> WriteResult:
        """WRITE pre-split page payloads at a page-aligned offset."""
        return self._run(self._write(blob_id, offset, lambda _: payloads))

    def write_virtual(self, blob_id: str, offset: int, size: int) -> WriteResult:
        """WRITE with virtual payloads (protocol exercised, no real bytes)."""
        pages = partial(virtual_pages, size)
        return self._run(self._write(blob_id, offset, pages))

    def write_unaligned(
        self,
        blob_id: str,
        data: bytes,
        offset: int,
        base_version: int = LATEST,
    ) -> WriteResult:
        """Unaligned WRITE via read-modify-write of the boundary pages.

        Extension beyond the paper (which writes whole pages): the head and
        tail fragments are taken from ``base_version``; concurrent writers
        to the same boundary pages resolve last-writer-wins at page
        granularity. Snapshot semantics of the *aligned* region are
        unchanged.
        """
        return self._run(self._write_unaligned(blob_id, data, offset, base_version))

    # -- READ ------------------------------------------------------------

    def read(
        self,
        blob_id: str,
        offset: int,
        size: int,
        version: int = LATEST,
        with_data: bool = True,
    ) -> ReadResult:
        """READ a segment out of snapshot ``version`` (default: latest)."""
        proto = self._read(blob_id, offset, size, version, with_data=with_data)
        return self._run(proto)

    def read_bytes(
        self, blob_id: str, offset: int, size: int, version: int = LATEST
    ) -> bytes:
        """READ and return the segment's bytes."""
        return self._run(self._read_bytes(blob_id, offset, size, version))

    def read_into(
        self,
        blob_id: str,
        out: bytearray | memoryview,
        offset: int,
        version: int = LATEST,
    ) -> ReadResult:
        """READ ``len(out)`` bytes at ``offset`` straight into ``out``.

        Zero-copy assembly: provider pages are scattered into the caller's
        buffer via memoryview slices — no intermediate ``bytes`` objects
        are built from payloads. ``ReadResult.data`` is a memoryview over
        ``out`` (so ``.data.obj is out``); the stored pages themselves are
        never aliased by ``out``, so mutating the buffer afterwards cannot
        disturb any published snapshot.
        """
        size = memoryview(out).nbytes
        return self._run(self._read(blob_id, offset, size, version, out=out))

    # -- garbage collection ------------------------------------------------

    def gc(
        self,
        blob_id: str,
        keep_versions: Sequence[int],
        data_ids: Sequence[int],
        meta_ids: Sequence[int],
    ) -> GCStats:
        """Client-ordered GC: drop everything unreachable from the kept
        snapshots (paper lists GC as client-ordered; see repro.core.gc)."""
        return self._run(self._gc(blob_id, keep_versions, data_ids, meta_ids))

    # -- the protocols: one body for both facades --------------------------
    # The geometry lock is never held across a yield: a protocol may be
    # suspended on another thread's batch or on the event loop.

    def _geometry(self, blob_id: str) -> Protocol[TreeGeometry]:
        with self._geom_lock:
            geom = self._geoms.get(blob_id)
        if geom is None:
            total_size, pagesize, _ = yield from stat_protocol(blob_id)
            geom = TreeGeometry(total_size, pagesize)
            with self._geom_lock:
                self._geoms[blob_id] = geom
        return geom

    def _alloc(self, total_size: int, pagesize: int) -> Protocol[str]:
        blob_id = yield from alloc_protocol(total_size, pagesize)
        with self._geom_lock:
            self._geoms[blob_id] = TreeGeometry(total_size, pagesize)
        return blob_id

    def _latest(self, blob_id: str) -> Protocol[int]:
        return (yield from stat_protocol(blob_id))[2]

    def _write(
        self,
        blob_id: str,
        offset: int,
        pages: Callable[[int], Sequence[PagePayload]],
    ) -> Protocol[WriteResult]:
        """WRITE the payloads ``pages(pagesize)`` builds at ``offset``."""
        geom = yield from self._geometry(blob_id)
        return (yield from write_protocol(
            blob_id, geom, offset, pages(geom.pagesize), self.router,
            fresh_write_uid(self.name), hashed_alloc=self.elastic,
        ))

    def _write_unaligned(
        self, blob_id: str, data: bytes, offset: int, base_version: int
    ) -> Protocol[WriteResult]:
        geom = yield from self._geometry(blob_id)
        if not data:
            raise ValueError("write_unaligned requires non-empty data")
        lo = align_down(offset, geom.pagesize)
        hi = align_up(offset + len(data), geom.pagesize)
        base = yield from self._read(blob_id, lo, hi - lo, base_version)
        assert base.data is not None
        merged = bytearray(base.data)
        merged[offset - lo : offset - lo + len(data)] = data
        pages = partial(split_pages, bytes(merged))
        return (yield from self._write(blob_id, lo, pages))

    def _read(
        self, blob_id: str, offset: int, size: int, version: int, **how: Any
    ) -> Protocol[ReadResult]:
        """READ; ``how`` is ``with_data=`` or ``out=`` of read_protocol."""
        geom = yield from self._geometry(blob_id)
        return (yield from read_protocol(
            blob_id, geom, offset, size, self.router, version=version,
            cache=self.cache, locate_fallback=self.elastic, **how,
        ))

    def _read_bytes(
        self, blob_id: str, offset: int, size: int, version: int
    ) -> Protocol[bytes]:
        result = yield from self._read(blob_id, offset, size, version)
        assert result.data is not None
        return result.data

    def _gc(
        self,
        blob_id: str,
        keep_versions: Sequence[int],
        data_ids: Sequence[int],
        meta_ids: Sequence[int],
    ) -> Protocol[GCStats]:
        geom = yield from self._geometry(blob_id)
        return (yield from gc_protocol(
            blob_id, geom, tuple(keep_versions), self.router,
            tuple(data_ids), tuple(meta_ids),
        ))


class AsyncBlobClient(BlobClient):
    """:class:`BlobClient` whose every public method returns an awaitable.

    It runs the *same* protocols through an :class:`repro.net.aio.AioDriver`
    (any driver with an awaitable ``drive(proto)``), so a method here and
    its blocking twin produce bit-identical wire traffic. Await them from
    coroutines on the driver's loop (``run_async`` / ``spawn`` enter it).
    """

    def _run(self, proto: Protocol[Any]) -> Awaitable[Any]:
        return self.driver.drive(proto)
