"""RAM-based data provider.

Stores pages in local memory only (the paper's design point: RAM storage
for access efficiency, persistence left to a lower tier). A provider that
restarts comes back empty; its pages survive only through replicas
(``replication > 1``). Pages are write-once: the provider enforces
immutability, which is what makes lock-free reads safe — a published page
can never change under a reader.

RPC surface: the ``handle`` table at the end of :class:`DataProvider`.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ImmutabilityViolation, PageCorrupt, PageMissing
from repro.net.sansio import rpc_handler
from repro.providers.page import PageKey, PagePayload, page_checksum


def _owned(payload: PagePayload) -> PagePayload:
    """The payload to *store*: one that pins no memory but its own page.

    A page that arrived over the wire is a view into its whole message
    (see :mod:`repro.net.codec`) — every page of the ``put_page`` batch
    plus the pickle — and pages of one batch are garbage-collected at
    different times, so it is copied out to ``bytes`` once, here. (Kept
    as views, ``peak_rss_mb`` on perfbench ``seg_write_durable`` rose
    432 -> 444 MiB; copied, it fell to 416.) In-process payloads
    (``bytes``, or views over the writer's immutable ``bytes``) are
    stored as they come.
    """
    data = payload.data
    if type(data) is memoryview and type(data.obj) is not bytes:
        return PagePayload(payload.nbytes, bytes(data))
    return payload


class DataProvider:
    """One data-provider process (one per node in the paper's deployment)."""

    def __init__(self, provider_id: int, checksum: bool = False) -> None:
        self.provider_id = provider_id
        self._pages: dict[PageKey, PagePayload] = {}
        self.bytes_stored = 0
        self.puts = 0
        self.gets = 0
        #: integrity mode: checksum every real page on put, verify on get
        #: (storage-tier CPU work; virtual pages have no bytes to sum)
        self.checksum = checksum
        self._checksums: dict[PageKey, int] = {}

    # -- storage operations ------------------------------------------------

    def put_page(self, key: PageKey, payload: PagePayload) -> bool:
        """Store a page, write-once; returns ``True``."""
        if key in self._pages:
            raise ImmutabilityViolation(
                f"provider {self.provider_id}: page {key} already stored"
            )
        return self._store(key, payload)

    def _store(self, key: PageKey, payload: PagePayload) -> bool:
        self._pages[key] = _owned(payload)
        self.bytes_stored += payload.nbytes
        self.puts += 1
        if self.checksum:
            digest = page_checksum(payload)
            if digest is not None:
                self._checksums[key] = digest
        return True

    def get_page(self, key: PageKey) -> PagePayload:
        """The stored page, checksum-verified in integrity mode."""
        self.gets += 1
        payload = self._pages.get(key)
        if payload is None:
            raise PageMissing(f"provider {self.provider_id}: no page {key}")
        expected = self._checksums.get(key)
        if expected is not None and page_checksum(payload) != expected:
            raise PageCorrupt(
                f"provider {self.provider_id}: page {key} failed its checksum"
            )
        return payload

    def free_pages(self, keys: Iterable[PageKey]) -> int:
        """Drop pages (garbage collection); returns the number freed."""
        freed = 0
        for key in keys:
            payload = self._pages.pop(key, None)
            if payload is not None:
                self.bytes_stored -= payload.nbytes
                self._checksums.pop(key, None)
                freed += 1
        return freed

    def list_pages(self, blob_id: str) -> list[PageKey]:
        """Every key held for a blob (the GC sweep's input)."""
        return [k for k in self._pages if k.blob_id == blob_id]

    def iter_pages(self, blob_id: str) -> Iterable[tuple[PageKey, PagePayload]]:
        """``(key, payload)`` for every page held for a blob.

        Inspection surface (no RPC): the
        cross-driver conformance suite uses it to compare stored page
        contents across deployments.
        """
        for key, payload in self._pages.items():
            if key.blob_id == blob_id:
                yield key, payload

    def dump_pages(self, blob_id: str) -> list[tuple[PageKey, PagePayload]]:
        """:meth:`iter_pages` as an RPC-shaped list.

        Lets out-of-process deployments expose the same inspection surface
        the conformance suite reads in-process; page contents travel out
        of band (see ``PagePayload.__reduce_ex__``).
        """
        return list(self.iter_pages(blob_id))

    def manifest(self) -> list[tuple[PageKey, int]]:
        """``(key, nbytes)`` for every page held — the rebalance
        planner's input (what this provider *actually* holds, which after
        crashes or partial migrations may differ from what was allocated)."""
        return [(key, payload.nbytes) for key, payload in self._pages.items()]

    def migrate_in(self, key: PageKey, payload: PagePayload) -> bool:
        """Accept a page handed off by another provider.

        Idempotent, unlike :meth:`put_page`: migration moves are resumed
        after crashes, so the same hand-off may arrive twice — a page
        already held is acknowledged (``False``), never an
        ImmutabilityViolation. Write-once discipline is preserved because
        the payload for a given key is immutable cluster-wide.
        """
        if key in self._pages:
            return False
        return self._store(key, payload)

    @property
    def page_count(self) -> int:
        return len(self._pages)

    def stats(self) -> dict[str, int]:
        """Storage counters."""
        return {
            "provider_id": self.provider_id,
            "pages": len(self._pages),
            "bytes": self.bytes_stored,
            "puts": self.puts,
            "gets": self.gets,
        }

    handle = rpc_handler(
        "data provider",
        {
            "data.put_page": put_page,
            "data.get_page": get_page,
            "data.free_pages": free_pages,
            "data.list_pages": list_pages,
            "data.dump_pages": dump_pages,
            "data.stats": stats,
            "data.manifest": manifest,
            "data.migrate_in": migrate_in,
        },
    )
